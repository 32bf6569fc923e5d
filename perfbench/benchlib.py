"""Pure helpers of the MARIOH benchmark: percentiles, span self time, and
parsers for the daemon's `wait` replies and `metrics json` scrapes.

Kept free of I/O so test_benchlib.py can check them directly.
"""

import json
import math
import shlex


def _rank(p, n):
    """1-based nearest rank of the p-th percentile of n samples; the
    epsilon keeps float error (0.999 * 10000 > 9990) off the ceiling."""
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def percentile(values, p):
    """Nearest-rank p-th percentile (0 < p <= 100) of a non-empty list."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def balanced(groups):
    """Cuts every group's samples (in arrival order) to the smallest
    group's count, so each group weighs the same in pooled statistics:
    whole cycles of a closed loop that takes the groups in turn."""
    keep = min(len(v) for v in groups.values())
    return {k: v[:keep] for k, v in groups.items()}


def latency_percentiles(groups):
    """(p50, p90, n) of request latencies grouped by target. p50 is the
    mean over targets of each target's median: a pooled median of
    targets that cost different amounts sits at the edge between the
    cheap and the dear ones and reads a tail. p90 is pooled over the
    balanced samples, so it has >= 10 samples beyond it from n = 100."""
    even = balanced(groups)
    pooled = [x for v in even.values() for x in v]
    p50 = sum(percentile(v, 50) for v in even.values()) / len(even)
    return p50, percentile(pooled, 90), len(pooled)


def tail_percentile(n, candidates=(99.9, 99.0, 90.0), beyond=10):
    """Highest candidate percentile with at least `beyond` of `n` samples
    above its nearest rank, or None when even the lowest has fewer."""
    for p in sorted(candidates, reverse=True):
        if n - _rank(p, n) >= beyond:
            return p
    return None


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that its children cover (overlapping children count once, and a child
    reaching outside its parent counts only inside it).

    `spans` are dicts with id, parent (0 = root), start and end. Returns
    {id: self seconds}.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    result = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo = max(c["start"], cursor)
            hi = min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[s["id"]] = (s["end"] - s["start"]) - covered
    return result


def self_time_by_name(spans):
    """Total self seconds per span name."""
    own = self_times(spans)
    totals = {}
    for s in spans:
        totals[s["name"]] = totals.get(s["name"], 0.0) + own[s["id"]]
    return totals


def overlaps(span, window):
    """True when `span` and `window` share part of their intervals."""
    return span["start"] < window["end"] and window["start"] < span["end"]


def parse_job_reply(line):
    """Parses an `ok job <id> state=... key=value ...` reply of `submit`,
    `poll` or `wait` into {"id": int, "state": str or None, key: value}.
    Raises ValueError on anything else (an `error ...` line included)."""
    words = shlex.split(line.strip())
    if len(words) < 3 or words[0] != "ok" or words[1] != "job":
        raise ValueError("not a job reply: %r" % line)
    reply = {"id": int(words[2]), "state": None}
    for word in words[3:]:
        key, sep, value = word.partition("=")
        if not sep:
            raise ValueError("bad field %r in %r" % (word, line))
        reply[key] = value
    return reply


def parse_metrics_json(line):
    """Parses an `ok metrics-json {...}` reply into
    {"counters": {key: value}, "gauges": {key: value},
     "histograms": {key: {"count", "sum", "max"}}} where key is the
    metric name, plus `{labels}` when it has labels."""
    prefix = "ok metrics-json "
    if not line.startswith(prefix):
        raise ValueError("not a metrics-json reply: %r" % line[:80])
    raw = json.loads(line[len(prefix):])

    def key(m):
        return m["name"] + ("{%s}" % m["labels"] if m.get("labels") else "")

    return {
        "counters": {key(m): m["value"] for m in raw.get("counters", [])},
        "gauges": {key(m): m["value"] for m in raw.get("gauges", [])},
        "histograms": {
            key(m): {"count": m["count"], "sum": m["sum"], "max": m["max"]}
            for m in raw.get("histograms", [])
        },
    }


TERMINAL_COUNTERS = (
    "marioh_jobs_done_total",
    "marioh_jobs_failed_total",
    "marioh_jobs_cancelled_total",
    "marioh_jobs_deadline_exceeded_total",
)


def scrape_violations(metrics):
    """Problems in a scrape: the partition accepted == done + failed +
    cancelled + deadline_exceeded + queued + running must hold exactly,
    and no submit may have been rejected. Returns a list of messages."""
    c, g = metrics["counters"], metrics["gauges"]
    problems = []
    accepted = c.get("marioh_jobs_accepted_total")
    if accepted is None:
        return ["scrape has no marioh_jobs_accepted_total"]
    parts = sum(c.get(name, 0) for name in TERMINAL_COUNTERS)
    parts += g.get("marioh_jobs_queued", 0) + g.get("marioh_jobs_running", 0)
    if accepted != parts:
        problems.append("partition broken: accepted=%s but terminal+queued+"
                        "running=%s" % (accepted, parts))
    rejected = c.get("marioh_submits_rejected_total", 0)
    if rejected != 0:
        problems.append("submits_rejected=%s (expected 0)" % rejected)
    return problems


def histogram_mean(metrics, key):
    """Mean of a scraped histogram (sum / count), 0.0 when empty."""
    h = metrics["histograms"].get(key)
    if not h or not h["count"]:
        return 0.0
    return h["sum"] / h["count"]
