#include "api/registry.hpp"

#include <algorithm>
#include <optional>
#include <type_traits>

#include "util/check.hpp"
#include "util/parse.hpp"

namespace marioh::api {
namespace {

/// Renders "a, b, c" from a sorted name list.
std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

template <typename T>
bool ParseNumber(const std::string& text, T* out) {
  try {
    size_t pos = 0;
    if constexpr (std::is_same_v<T, double>) {
      // Finite values only: std::stod would also take "nan" and "inf".
      std::optional<double> value = util::ParseDouble(text);
      if (!value.has_value()) return false;
      *out = *value;
      return true;
    } else if constexpr (std::is_same_v<T, int>) {
      *out = std::stoi(text, &pos);
    } else {
      unsigned long long v = std::stoull(text, &pos);
      if (text.find('-') != std::string::npos) return false;
      *out = static_cast<T>(v);
    }
    return pos == text.size();
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

MethodRegistry& MethodRegistry::Global() {
  static MethodRegistry* registry = new MethodRegistry();
  EnsureBuiltinMethodsRegistered();
  return *registry;
}

Status MethodRegistry::Register(MethodInfo info, MethodFactory factory) {
  if (info.name.empty()) {
    return Status::InvalidArgument("method name must not be empty");
  }
  if (!factory) {
    return Status::InvalidArgument("method '" + info.name +
                                   "' registered without a factory");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  // Copy the key out before moving `info` into the entry: the key and
  // value expressions are unsequenced relative to each other.
  std::string name = info.name;
  auto [it, inserted] = entries_.try_emplace(
      std::move(name), Entry{std::move(info), std::move(factory)});
  if (!inserted) {
    return Status::AlreadyExists("method '" + it->first +
                                 "' is already registered");
  }
  return Status::Ok();
}

Status MethodRegistry::UnknownMethod(const std::string& name) const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) names.push_back(key);
  return Status::NotFound("unknown method '" + name +
                          "'; known methods: " + JoinNames(names));
}

StatusOr<std::unique_ptr<Reconstructor>> MethodRegistry::Create(
    const std::string& name, const MethodConfig& config) const {
  MethodFactory factory;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(name);
    if (it == entries_.end()) return UnknownMethod(name);
    factory = it->second.factory;
  }
  // Invoked outside the lock: factories may touch the registry.
  return factory(config);
}

StatusOr<MethodInfo> MethodRegistry::Info(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  if (it == entries_.end()) return UnknownMethod(name);
  return it->second.info;
}

bool MethodRegistry::Contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.count(name) > 0;
}

std::vector<std::string> MethodRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) names.push_back(key);
  return names;  // std::map iteration is already sorted
}

std::vector<MethodInfo> MethodRegistry::Methods() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MethodInfo> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) out.push_back(entry.info);
  return out;
}

namespace {

std::vector<std::string> RosterByOrder(int MethodInfo::*order_field) {
  std::vector<MethodInfo> methods = MethodRegistry::Global().Methods();
  std::vector<const MethodInfo*> listed;
  for (const MethodInfo& m : methods) {
    if (m.*order_field >= 0) listed.push_back(&m);
  }
  std::sort(listed.begin(), listed.end(),
            [order_field](const MethodInfo* a, const MethodInfo* b) {
              return a->*order_field < b->*order_field;
            });
  std::vector<std::string> names;
  names.reserve(listed.size());
  for (const MethodInfo* m : listed) names.push_back(m->name);
  return names;
}

}  // namespace

std::vector<std::string> Table2Roster() {
  return RosterByOrder(&MethodInfo::table2_order);
}

std::vector<std::string> Table3Roster() {
  return RosterByOrder(&MethodInfo::table3_order);
}

std::unique_ptr<Reconstructor> MustCreateMethod(
    const std::string& name, uint64_t seed,
    const core::MariohOptions* marioh_base) {
  MethodConfig config;
  config.seed = seed;
  config.marioh_base = marioh_base;
  return ValueOrDie(MethodRegistry::Global().Create(name, config),
                    __FILE__, __LINE__);
}

OverrideReader::OverrideReader(const MethodConfig& config)
    : config_(config), consumed_(config.overrides.size(), false) {}

const std::string* OverrideReader::Find(const std::string& key) {
  known_keys_.push_back(key);
  const std::string* value = nullptr;
  for (size_t i = 0; i < config_.overrides.size(); ++i) {
    if (config_.overrides[i].first == key) {
      consumed_[i] = true;
      value = &config_.overrides[i].second;  // last assignment wins
    }
  }
  return value;
}

namespace {

template <typename T>
void ReadOverride(const std::string& key, const std::string* value, T* out,
                  std::string* first_error) {
  if (value == nullptr) return;
  T parsed{};
  if (!ParseNumber(*value, &parsed)) {
    if (first_error->empty()) {
      *first_error = "bad value '" + *value + "' for option '" + key + "'";
    }
    return;
  }
  *out = parsed;
}

}  // namespace

void OverrideReader::Get(const std::string& key, double* out) {
  ReadOverride(key, Find(key), out, &first_error_);
}
void OverrideReader::Get(const std::string& key, unsigned long* out) {
  ReadOverride(key, Find(key), out, &first_error_);
}
void OverrideReader::Get(const std::string& key, unsigned long long* out) {
  ReadOverride(key, Find(key), out, &first_error_);
}
void OverrideReader::Get(const std::string& key, int* out) {
  ReadOverride(key, Find(key), out, &first_error_);
}
void OverrideReader::Get(const std::string& key, bool* out) {
  const std::string* value = Find(key);
  if (value == nullptr) return;
  if (*value == "true" || *value == "1") {
    *out = true;
  } else if (*value == "false" || *value == "0") {
    *out = false;
  } else if (first_error_.empty()) {
    first_error_ = "bad value '" + *value + "' for option '" + key +
                   "' (expected true/false)";
  }
}

Status OverrideReader::Finish(const std::string& method_name) const {
  std::string supported = known_keys_.empty()
                              ? std::string("none")
                              : JoinNames(known_keys_);
  if (!first_error_.empty()) {
    return Status::InvalidArgument(method_name + ": " + first_error_);
  }
  for (size_t i = 0; i < consumed_.size(); ++i) {
    if (!consumed_[i]) {
      return Status::InvalidArgument(
          method_name + ": unknown option '" + config_.overrides[i].first +
          "'; supported options: " + supported);
    }
  }
  return Status::Ok();
}

namespace internal {

MethodRegistrar::MethodRegistrar(MethodInfo info, MethodFactory factory) {
  Status status =
      MethodRegistry::Global().Register(std::move(info), std::move(factory));
  if (!status.ok()) {
    // A duplicate in-tree registration is a programming error.
    util::CheckFailed(__FILE__, __LINE__, status.ToString());
  }
}

}  // namespace internal
}  // namespace marioh::api
