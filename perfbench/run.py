#!/usr/bin/env python3
"""The MARIOH benchmark: one command, three workloads.

    python3 perfbench/run.py --workload solo_train|reconstruct_stream|served_mix
                             --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds the library, the
marioh_served daemon and the workload driver from source into
$CARGO_TARGET_DIR (default .bench_build). Every metric is printed by
name with its unit; the last stdout line is one JSON object with the
keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a separate traced
run. See perfbench/README.md for what each workload and metric is for.
"""

import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchlib  # noqa: E402

WORKLOADS = ("solo_train", "reconstruct_stream", "served_mix")

END_TO_END = (
    ("req_p50_s", "s"),
    ("req_p90_s", "s"),
    ("req_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("jaccard_x100", "%"),
)

PER_LAYER = (
    ("mlp.fit_s", "s"),
    ("mlp.fit_gflop", "GFLOP"),
    ("mlp.fit_gflops_per_s", "GFLOP/s"),
    ("mlp.score_s", "s"),
    ("classifier.train_s", "s"),
    ("classifier.positives", "count"),
    ("classifier.negatives", "count"),
    ("classifier.prep_s", "s"),
    ("features.extract_s", "s"),
    ("features.rows", "count"),
    ("clique.enumerate_source_s", "s"),
    ("clique.enumerate_s", "s"),
    ("clique.count", "count"),
    ("clique.truncated", "count"),
    ("csr.build_s", "s"),
    ("csr.patches", "count"),
    ("csr.rebuilds", "count"),
    ("csr.patch_ratio", "ratio"),
    ("filtering_s", "s"),
    ("filtering.edges", "count"),
    ("bidir_s", "s"),
    ("bidir.iteration_s", "s"),
    ("bidir.iterations", "count"),
    ("bidir.subcliques_scored", "count"),
    ("bidir.accepted_phase1", "count"),
    ("bidir.accepted_phase2", "count"),
    ("bidir.accept_ratio", "ratio"),
    ("parallel.cpu_per_wall", "ratio"),
    ("session.train_s", "s"),
    ("session.reconstruct_s", "s"),
    ("session.evaluate_s", "s"),
    ("service.submit_rtt_s", "s"),
    ("service.queue_wait_s", "s"),
    ("service.run_s", "s"),
    ("service.cpu_per_wall", "ratio"),
    ("journal.fsync_s", "s"),
    ("journal.fsyncs_per_job", "count"),
    ("net.wait_notify_s", "s"),
    ("net.lines_per_job", "count"),
    ("gen.prepare_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
)

# served_mix: the daemon's shape and the load generator's. The datasets
# (profile and count) are the driver's served_reference choice.
SERVED_WORKERS = 2
SERVED_CONNECTIONS = 4
SETUP_REPS_SERVED = 15

# Seconds a driver run may take beyond the window: repeated set-ups,
# references and, in traced runs, the standalone layer calls.
DRIVER_MARGIN_S = 150


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build

def build(root):
    """Configures and builds perfbench/ into the build directory; returns
    that directory. Exits 2 (printing no result) when the build fails,
    e.g. in a directory that holds no MARIOH sources."""
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, base, "perfbench")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  cwd=root, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            log("perfbench: build step failed: %s" % e)
            sys.exit(2)
        if done.returncode != 0:
            log("perfbench: build failed: %s" % " ".join(step))
            sys.exit(2)
    return build_dir


def run_context(root, build_dir):
    """Machine and build facts printed with every result."""
    context = {"nproc": os.cpu_count(), "loadavg_before": read_loadavg()}
    context["cpu_model"] = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    context["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    context["build_type"] = "unknown"
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    context["build_type"] = line.split("=", 1)[1].strip()
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                capture_output=True, text=True, timeout=10)
        context["git_commit"] = (commit.stdout.strip()
                                 if commit.returncode == 0 else "unknown")
    except (OSError, subprocess.TimeoutExpired):
        context["git_commit"] = "unknown"
    return context


def read_loadavg():
    try:
        with open("/proc/loadavg") as f:
            return [float(x) for x in f.read().split()[:3]]
    except OSError:
        return None


# ------------------------------------------------------------ in-process

def run_driver(build_dir, argv, seconds):
    """Runs perfbench_driver and returns its last stdout line as JSON.
    Exits 2 (printing no result) when it outlasts its time budget."""
    exe = os.path.join(build_dir, "perfbench_driver")
    try:
        done = subprocess.run([exe] + argv, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=seconds + DRIVER_MARGIN_S)
    except subprocess.TimeoutExpired:
        log("perfbench: perfbench_driver %s took over %d s"
            % (" ".join(argv), seconds + DRIVER_MARGIN_S))
        sys.exit(2)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("perfbench_driver %s exited %d"
                           % (" ".join(argv), done.returncode))
    return json.loads(lines[-1])


def read_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def per_rep_sums(values, reps):
    """Sums `values` in `reps` equal consecutive chunks."""
    k = len(values) // reps
    return [sum(values[i * k:(i + 1) * k]) for i in range(reps)]


def loop_layers(cycle, probes, n):
    """Per-layer values per request from the Session's loop counters of
    one cycle (one request on each of the n datasets) and the standalone
    reconstruct probes (one per dataset)."""
    scored = cycle["maximal_cliques"] + cycle["subcliques_scored"]
    accepted = cycle["accepted_phase1"] + cycle["accepted_phase2"]
    snapshots = cycle["snapshot_patches"] + cycle["snapshot_rebuilds"]

    def probe(key):
        return sum(p[key] for p in probes) / len(probes)

    return {
        "clique.count": cycle["maximal_cliques"] / n,
        "clique.truncated": cycle["cliques_truncated"] / n,
        "csr.patches": cycle["snapshot_patches"] / n,
        "csr.rebuilds": cycle["snapshot_rebuilds"] / n,
        "csr.patch_ratio": (cycle["snapshot_patches"] / snapshots
                            if snapshots else 0.0),
        "filtering.edges": cycle["filtering_edges"] / n,
        "bidir.iterations": cycle["iterations"] / n,
        "bidir.subcliques_scored": cycle["subcliques_scored"] / n,
        "bidir.accepted_phase1": cycle["accepted_phase1"] / n,
        "bidir.accepted_phase2": cycle["accepted_phase2"] / n,
        "bidir.accept_ratio": accepted / scored if scored else 0.0,
        "filtering_s": probe("filtering_s"),
        "csr.build_s": probe("csr_build_s"),
        "clique.enumerate_s": probe("enumerate_s"),
        "mlp.score_s": probe("score_s"),
        "bidir.iteration_s": probe("bidir_iteration_s"),
    }


def train_layers(probes):
    """Per-layer values per request from the standalone calls below
    Session::Train (one probe per dataset)."""
    n = len(probes)

    def mean(key):
        return sum(p[key] for p in probes) / n

    fit_s, train_s = mean("fit_s"), mean("classifier_train_s")
    return {
        "mlp.fit_s": fit_s,
        "mlp.fit_gflop": mean("fit_gflop"),
        "mlp.fit_gflops_per_s": mean("fit_gflop") / fit_s,
        "classifier.train_s": train_s,
        "classifier.positives": mean("positives"),
        "classifier.negatives": mean("negatives"),
        "classifier.prep_s": train_s - fit_s - mean("enumerate_source_s"),
        "clique.enumerate_source_s": mean("enumerate_source_s"),
        "features.extract_s": mean("features_extract_s"),
        "features.rows": mean("features_rows"),
    }


def run_in_process(build_dir, args, spans_path):
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        argv += ["--spans", spans_path]
    raw = run_driver(build_dir, argv, args.seconds)
    requests = raw["requests"]
    targets = sorted({r["target"] for r in requests})
    failed = sum(1 for r in requests if not r["ok"])
    p50, p90, pooled = benchlib.latency_percentiles(
        {t: [r["latency"] for r in requests if r["target"] == t]
         for t in targets})
    result = {"attempted": len(requests), "failed": failed,
              "pooled": pooled, "notes": []}
    scores = [statistics.median([r["score"] for r in requests
                               if r["target"] == t]) for t in targets]
    result["e2e"] = {
        "req_p50_s": p50,
        "req_p90_s": p90,
        "req_per_s": len(requests) / raw["window_s"],
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "jaccard_x100": sum(scores) / len(scores),
    }
    if not args.trace:
        return result

    # Per-layer values are per request, averaged over the datasets.
    def per_target_median(key):
        return sum(statistics.median([r[key] for r in requests
                                    if r["target"] == t])
                   for t in targets) / len(targets)

    layers = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
    layers.update(loop_layers(raw["cycle"], raw["probe_reconstruct"],
                              len(targets)))
    if args.workload == "solo_train":
        layers.update(train_layers(raw["probe_train"]))
        layers["session.train_s"] = per_target_median("train")
    else:
        probes = raw["probe_reconstruct"]
        layers["features.extract_s"] = sum(
            p["features_extract_s"] for p in probes) / len(probes)
        layers["features.rows"] = sum(
            p["features_rows"] for p in probes) / len(probes)
        result["notes"].append(
            "train-side layers (mlp.fit, classifier, session.train) do no "
            "work in this window: 0")
    layers["session.reconstruct_s"] = per_target_median("reconstruct")
    layers["session.evaluate_s"] = per_target_median("evaluate")
    layers["bidir_s"] = layers["session.reconstruct_s"] - layers["filtering_s"]
    wall = sum(r["reconstruct"] for r in requests)
    cpu = sum(r["reconstruct_cpu"] for r in requests)
    layers["parallel.cpu_per_wall"] = cpu / wall if wall else 0.0
    reps = len(raw["setup_s"])
    layers["gen.prepare_s"] = statistics.median(
        per_rep_sums(raw["prepare_s"], reps))
    result["notes"].append("service, journal and net layers do no work in "
                           "this workload: 0")

    spans = read_spans(spans_path)
    window = next(s for s in spans if s["name"] == "window")
    in_window = [s for s in spans
                 if s is not window and benchlib.overlaps(s, window)]
    layers["trace.spans"] = len(spans)
    layers["trace.overhead_pct"] = (100.0 * len(in_window) * raw["span_cost_s"]
                                    / (window["end"] - window["start"]))
    fits = sum(1 for s in in_window if s["name"] == "mlp.fit")
    result["notes"].append("Mlp::Fit spans inside the timed window: %d "
                           "(probes run after the window)" % fits)
    result["layers"] = layers
    result["spans"] = spans
    return result


# ------------------------------------------------------------ served_mix

class LineClient:
    """One connection to marioh_served speaking the line protocol."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.reader = self.sock.makefile("r", encoding="utf-8", newline="\n")
        greeting = self.reader.readline()
        if not greeting.startswith("ok marioh_served"):
            raise RuntimeError("bad greeting %r" % greeting)

    def call(self, line):
        self.sock.sendall((line + "\n").encode())
        reply = self.reader.readline()
        if not reply:
            raise RuntimeError("connection closed after %r" % line)
        return reply.rstrip("\n")

    def close(self):
        try:
            self.reader.close()
            self.sock.close()
        except OSError:
            pass


class Daemon:
    """A marioh_served process with its journal in `workdir`."""

    def __init__(self, build_dir, workdir):
        os.makedirs(workdir, exist_ok=True)
        self.log_path = os.path.join(workdir, "daemon.out")
        self.log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            [os.path.join(build_dir, "marioh_served"), "--port", "0",
             "--workers", str(SERVED_WORKERS),
             "--journal-dir", os.path.join(workdir, "journal")],
            stdout=self.log, stderr=self.log, stdin=subprocess.DEVNULL)
        try:
            self.port = self._wait_port()
        except RuntimeError:
            self.stop()
            raise

    def _wait_port(self):
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError("marioh_served exited %d"
                                   % self.proc.returncode)
            with open(self.log_path) as f:
                for line in f:
                    if line.startswith("ok marioh_served port="):
                        return int(line.split()[2].split("=")[1])
            time.sleep(0.002)
        raise RuntimeError("marioh_served did not report its port")

    def cpu_seconds(self):
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        ticks = os.sysconf("SC_CLK_TCK")
        return (int(fields[11]) + int(fields[12])) / ticks

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for marioh_served")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        return self.proc.returncode


class SpanLog:
    """In-memory spans of the load generator (traced runs only)."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.lock = threading.Lock()
        self.epoch = time.monotonic()

    def add(self, name, request, start, end, parent=0):
        if not self.enabled:
            return 0
        with self.lock:
            span_id = len(self.spans) + 1
            self.spans.append({"id": span_id, "parent": parent, "name": name,
                               "request": request, "start": start - self.epoch,
                               "end": end - self.epoch})
            return span_id

    @staticmethod
    def cost_per_span():
        scratch = SpanLog(True)
        n = 20000
        t0 = time.monotonic()
        for _ in range(n):
            now = time.monotonic()
            scratch.add("request", "r", now, time.monotonic())
        return (time.monotonic() - t0) / n


def load_generator(port, deadline, references, spans, index, out):
    """One closed-loop connection: submit + wait until the deadline,
    cycling over the datasets d0, d1, ... from its own offset."""
    client = None
    turn = index
    try:
        client = LineClient(port)
        while time.monotonic() < deadline:
            dataset = turn % len(references)
            reference = references[dataset]
            turn += 1
            t0 = time.monotonic()
            submitted = benchlib.parse_job_reply(client.call(
                "submit method=MARIOH train=d{0}.train target=d{0}.target "
                "truth=d{0}.truth".format(dataset)))
            t1 = time.monotonic()
            reply = benchlib.parse_job_reply(
                client.call("wait %d" % submitted["id"]))
            t2 = time.monotonic()
            # Forget the finished job, as a client done with it would, so
            # the daemon's memory holds its working set, not the window's
            # history of results.
            forgot = client.call("forget %d" % submitted["id"])
            ok = reply.get("state") == "DONE" and all(
                reply.get(key) == value for key, value in reference.items())
            if not ok:
                log("served_mix: job %d differs from the reference: %r"
                    % (reply["id"], reply))
            if not forgot.startswith("ok forget"):
                log("served_mix: %r failed: %s" % ("forget", forgot))
                ok = False
            request = "c%d.j%d" % (index, submitted["id"])
            root = spans.add("request", request, t0, t2)
            spans.add("service.submit", request, t0, t1, root)
            spans.add("service.wait", request, t1, t2, root)
            out.append({"latency": t2 - t0, "submit_rtt": t1 - t0, "ok": ok,
                        "dataset": dataset, "end": t2,
                        "jaccard": float(reply.get("jaccard", "nan"))})
    except (OSError, RuntimeError, ValueError) as e:
        log("served_mix: connection %d: %s" % (index, e))
        out.append({"latency": None, "submit_rtt": None, "ok": False,
                    "dataset": None, "end": None, "jaccard": None})
    finally:
        if client is not None:
            client.close()


def run_served(build_dir, args, spans_path):
    workroot = os.path.join(build_dir, "served-%d" % os.getpid())
    shutil.rmtree(workroot, ignore_errors=True)
    ref_argv = ["--workload", "served_reference", "--seed", str(args.seed),
                "--trace", str(args.trace)]
    if args.trace:
        ref_argv += ["--spans", spans_path]
    ref = run_driver(build_dir, ref_argv, 0)
    datasets = len(ref["seeds"])

    # Set-up, repeated: start a daemon and `gen` the dataset into it. The
    # last repetition's daemon serves the window.
    setup_s, gen_s = [], []
    daemon = control = None
    try:
        for rep in range(SETUP_REPS_SERVED):
            if daemon is not None:
                control.close()
                daemon.stop()
            t0 = time.monotonic()
            daemon = Daemon(build_dir, os.path.join(workroot, "rep%d" % rep))
            control = LineClient(daemon.port)
            t1 = time.monotonic()
            for i, seed in enumerate(ref["seeds"]):
                reply = control.call("gen d%d %s %d"
                                     % (i, ref["profile"], seed))
                if not reply.startswith("ok generated"):
                    raise RuntimeError("gen failed: %s" % reply)
            t2 = time.monotonic()
            setup_s.append(t2 - t0)
            gen_s.append(t2 - t1)

        spans = SpanLog(bool(args.trace))
        samples = [[] for _ in range(SERVED_CONNECTIONS)]
        cpu0 = daemon.cpu_seconds()
        start = time.monotonic()
        deadline = start + args.seconds
        threads = [threading.Thread(target=load_generator,
                                    args=(daemon.port, deadline,
                                          ref["replies"],
                                          spans, i, samples[i]))
                   for i in range(SERVED_CONNECTIONS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        window_s = time.monotonic() - start
        daemon_cpu = daemon.cpu_seconds() - cpu0
        scrape = benchlib.parse_metrics_json(control.call("metrics json"))
        peak_rss = daemon.peak_rss_mb()
    finally:
        if control is not None:
            control.close()
        exit_code = daemon.stop() if daemon is not None else 0
        shutil.rmtree(workroot, ignore_errors=True)

    jobs = sorted((s for per in samples for s in per),
                  key=lambda j: j["end"] or 0.0)
    latencies = [j["latency"] for j in jobs if j["latency"] is not None]
    failed = sum(1 for j in jobs if not j["ok"])
    served = sorted({j["dataset"] for j in jobs if j["latency"] is not None})
    p50, p90, pooled = benchlib.latency_percentiles(
        {d: [j["latency"] for j in jobs if j["dataset"] == d]
         for d in served})
    result = {"attempted": len(jobs), "failed": failed,
              "pooled": pooled, "notes": []}
    problems = benchlib.scrape_violations(scrape)
    if exit_code != 0:
        problems.append("marioh_served exited %d on SIGTERM" % exit_code)
    result["problems"] = problems
    # Printed on every run: a disk shared with other tenants shows here
    # first, since each job fsyncs its journal records.
    fsync = scrape["histograms"].get("marioh_journal_fsync_seconds")
    if fsync and fsync["count"]:
        result["notes"].append(
            "journal fsync mean %.2f ms, max %.2f ms over %d fsyncs"
            % (1e3 * fsync["sum"] / fsync["count"], 1e3 * fsync["max"],
               fsync["count"]))
    per_dataset = [[j["jaccard"] for j in jobs
                    if j["ok"] and j["dataset"] == d]
                   for d in range(datasets)]
    good = [sum(v) / len(v) for v in per_dataset if v]
    result["e2e"] = {
        "req_p50_s": p50,
        "req_p90_s": p90,
        "req_per_s": len(jobs) / window_s,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss,
        "jaccard_x100": 100.0 * sum(good) / len(good) if good else 0.0,
    }
    if not args.trace:
        return result

    c = scrape["counters"]
    done = c.get("marioh_jobs_done_total", 0)
    layers = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
    n = datasets
    layers.update(train_layers(ref["probe_train"]))
    layers.update(loop_layers(ref["cycle"], ref["probe_reconstruct"], n))
    layers["session.train_s"] = ref["train"] / n
    layers["session.reconstruct_s"] = ref["reconstruct"] / n
    layers["session.evaluate_s"] = ref["evaluate"] / n
    layers["bidir_s"] = layers["session.reconstruct_s"] - layers["filtering_s"]
    layers["parallel.cpu_per_wall"] = (ref["reconstruct_cpu"]
                                       / ref["reconstruct"])
    stage_sum = sum(h["sum"] for k, h in scrape["histograms"].items()
                    if k.startswith("marioh_stage_duration_seconds{"))
    queue_wait = benchlib.histogram_mean(scrape, "marioh_wait_latency_seconds")
    run_s = stage_sum / done if done else 0.0
    layers.update({
        "service.submit_rtt_s": statistics.median(
            [j["submit_rtt"] for j in jobs if j["ok"]]),
        "service.queue_wait_s": queue_wait,
        "service.run_s": run_s,
        "service.cpu_per_wall": daemon_cpu / window_s,
        "journal.fsync_s": benchlib.histogram_mean(
            scrape, "marioh_journal_fsync_seconds"),
        "journal.fsyncs_per_job": (c.get("marioh_journal_fsyncs_total", 0)
                                   / c["marioh_jobs_accepted_total"]),
        "net.wait_notify_s": (sum(latencies) / len(latencies)
                              - queue_wait - run_s),
        "net.lines_per_job": (c.get("marioh_lines_served_total", 0) / done
                              if done else 0.0),
        "gen.prepare_s": statistics.median(gen_s),
    })
    layers["trace.spans"] = len(spans.spans)
    layers["trace.overhead_pct"] = (100.0 * len(spans.spans)
                                    * SpanLog.cost_per_span() / window_s)
    result["notes"].append("layers below Session are measured by standalone "
                           "calls on the same %s inputs, threads=1"
                           % ref["profile"])
    result["layers"] = layers
    # The load generator numbers its spans from 1: move them past the
    # driver's.
    driver_spans = read_spans(spans_path)
    offset = max((sp["id"] for sp in driver_spans), default=0)
    for sp in spans.spans:
        sp["id"] += offset
        sp["parent"] += offset if sp["parent"] else 0
    result["spans"] = driver_spans + spans.spans
    return result


# ------------------------------------------------------------------ report

def print_self_times(spans, layers):
    totals = benchlib.self_time_by_name(spans)
    print("self time by span name (s, summed over the trace):")
    for name, value in sorted(totals.items(), key=lambda kv: -kv[1]):
        print("  %-28s %12.6f" % (name, value))
    # Session stages are opaque spans; the standalone calls below them
    # are made outside the window. Subtracting each call's time from the
    # layer that makes it gives the self time per request of each layer.
    attributed = {
        "api.session train (minus classifier.train)":
            layers["session.train_s"] - layers["classifier.train_s"],
        "core.classifier (classifier.prep_s)": layers["classifier.prep_s"],
        "ml.mlp fit (mlp.fit_s)": layers["mlp.fit_s"],
        "hypergraph.clique source (clique.enumerate_source_s)":
            layers["clique.enumerate_source_s"],
        "core.filtering (filtering_s)": layers["filtering_s"],
        "core.bidirectional loop (bidir_s)": layers["bidir_s"],
        "api.session evaluate (session.evaluate_s)":
            layers["session.evaluate_s"],
    }
    print("attributed self time per request (s):")
    for name, value in sorted(attributed.items(), key=lambda kv: -kv[1]):
        if value:
            print("  %-52s %12.6f" % (name, value))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = build(root)
    context = run_context(root, build_dir)
    spans_path = os.path.join(build_dir, "spans-%d.jsonl" % os.getpid())
    try:
        if args.workload == "served_mix":
            result = run_served(build_dir, args, spans_path)
        else:
            result = run_in_process(build_dir, args, spans_path)
    finally:
        if os.path.exists(spans_path):
            os.remove(spans_path)
    context["loadavg_after"] = read_loadavg()

    print("context: " + json.dumps(context, sort_keys=True))
    if context["build_type"] != "Release":
        print("WARNING: build type is %r, not Release; timings are not "
              "comparable" % context["build_type"])
    n = result["pooled"]
    tail = benchlib.tail_percentile(n)
    print("workload %s seed %d: %d requests, %d failed, error_rate %.4f; "
          "highest percentile with >=10 samples beyond it: %s"
          % (args.workload, args.seed, result["attempted"], result["failed"],
             result["failed"] / max(1, result["attempted"]),
             "none" if tail is None else "p%g" % tail))
    if tail is None or tail < 90:
        print("note: req_p90_s has fewer than 10 samples beyond it here "
              "(nearest rank of %d samples)" % n)
    for problem in result.get("problems", []):
        print("FAILED CHECK: " + problem)
    for note in result["notes"]:
        print("note: " + note)

    names = END_TO_END if not args.trace else PER_LAYER
    values = result["e2e"] if not args.trace else result["layers"]
    metrics = {}
    for name, unit in names:
        metrics[name] = {"value": values[name], "unit": unit}
        print("%-28s %16.6f %s" % (name, values[name], unit))
    if args.trace:
        print_self_times(result["spans"], values)

    correct = (result["attempted"] > 0 and result["failed"] == 0
               and not result.get("problems"))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
