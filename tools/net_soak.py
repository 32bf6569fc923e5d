#!/usr/bin/env python3
"""Socketed soak for marioh_served.

Spawns the daemon on an ephemeral port, drives ~50 requests across
several concurrent TCP connections (gen / submit / wait / poll /
metrics json / forget plus deliberate protocol errors), then SIGTERMs it
and asserts:

  * every request got a well-formed one-line reply (ok/error, never EOF
    mid-conversation),
  * the daemon exits 0 and writes its --metrics-json observability
    snapshot, with the counters/gauges/histograms/spans sections,
  * the service counter partition holds in that snapshot:
      marioh_jobs_accepted_total == done + failed + cancelled
          + deadline_exceeded totals + marioh_jobs_queued
          + marioh_jobs_running
    (all jobs terminal at shutdown, and rejected submits stay out of
    `accepted`), every driven job was accepted, and every connection
    was counted,
  * the same partition holds *live*, scraped from the `metrics` verb
    mid-run while worker connections are still submitting — the
    registry's collection hooks publish mutex-coherent snapshots, so
    the invariant is exact at any instant, not just at quiescence,
  * the shutdown snapshot agrees with the last live scrape on the
    accepted count (no job was admitted after the traffic stopped).

Usage: net_soak.py /path/to/marioh_served [metrics.json]

Exit status 0 on success; nonzero with a diagnostic on any failure.
No dependencies beyond the Python 3 standard library.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

CONNECTIONS = 5
JOBS_PER_CONNECTION = 3  # gen is shared; each conn submits+waits this many


def fail(message):
    print("net_soak: FAIL: " + message, file=sys.stderr)
    sys.exit(1)


class Client:
    """One line-protocol conversation over a fresh TCP connection."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.buf = b""
        self.greeting = self.read_line()
        if not self.greeting.startswith("ok marioh_served client=conn-"):
            fail("bad greeting: %r" % self.greeting)

    def read_line(self):
        while b"\n" not in self.buf:
            chunk = self.sock.recv(4096)
            if not chunk:
                fail("connection closed mid-conversation")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode()

    def request(self, line):
        self.sock.sendall((line + "\n").encode())
        reply = self.read_line()
        if not (reply.startswith("ok ") or reply.startswith("error ")):
            fail("malformed reply to %r: %r" % (line, reply))
        return reply

    def close(self):
        self.sock.close()

    def scrape_metrics(self):
        """Scrapes the `metrics` verb: reads the `ok metrics lines=N`
        header, then exactly N Prometheus text lines, and returns
        {series_signature: float} (comment lines skipped)."""
        reply = self.request("metrics")
        if not reply.startswith("ok metrics lines="):
            fail("bad metrics header: %r" % reply)
        count = int(reply.split("lines=", 1)[1])
        series = {}
        for _ in range(count):
            line = self.read_line()
            if line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            series[name] = float(value)
        return series


def snapshot_series(snapshot):
    """Flattens a metrics JSON snapshot's counters and gauges into the
    same {series_signature: float} shape `scrape_metrics` returns."""
    series = {}
    for section in ("counters", "gauges"):
        for metric in snapshot[section]:
            key = metric["name"]
            if metric.get("labels"):
                key += "{" + metric["labels"] + "}"
            series[key] = float(metric["value"])
    return series


def assert_partition(series, where):
    """accepted == terminals + queued + running, exactly, in a metrics
    scrape or snapshot (counters are integers, so float equality is
    exact)."""
    terminal = (series["marioh_jobs_done_total"] +
                series["marioh_jobs_failed_total"] +
                series["marioh_jobs_cancelled_total"] +
                series["marioh_jobs_deadline_exceeded_total"] +
                series["marioh_jobs_queued"] +
                series["marioh_jobs_running"])
    if series["marioh_jobs_accepted_total"] != terminal:
        fail("%s: partition violated: accepted=%s vs sum=%s"
             % (where, series["marioh_jobs_accepted_total"], terminal))


def drive_connection(port, index, errors):
    try:
        client = Client(port)
        for j in range(JOBS_PER_CONNECTION):
            seed = index * 100 + j + 1
            reply = client.request(
                "submit method=MaxClique target=soak.target "
                "truth=soak.truth seed=%d" % seed)
            if not reply.startswith("ok job "):
                fail("submit rejected: %r" % reply)
            job_id = reply.split()[2]
            reply = client.request("wait " + job_id)
            if "state=DONE" not in reply:
                fail("job %s did not finish DONE: %r" % (job_id, reply))
            client.request("poll " + job_id)
            client.request("forget " + job_id)
        # Protocol errors must be answered, not fatal.
        reply = client.request("definitely-not-a-verb")
        if not reply.startswith("error "):
            fail("unknown verb not an error: %r" % reply)
        reply = client.request("metrics json")
        if not reply.startswith("ok metrics-json {"):
            fail("bad metrics json reply: %r" % reply[:80])
        reply = client.request("quit")
        if reply != "ok bye":
            fail("quit reply: %r" % reply)
        client.close()
    except SystemExit:
        # fail() inside a worker thread only kills the thread; record it
        # so the main thread turns it into a process-level failure.
        errors.append("connection %d: assertion failed (see stderr)" % index)
    except Exception as exc:  # noqa: BLE001 - surface everything
        errors.append("connection %d: %r" % (index, exc))


def main():
    if len(sys.argv) < 2:
        fail("usage: net_soak.py /path/to/marioh_served [metrics.json]")
    binary = sys.argv[1]
    metrics_path = (sys.argv[2] if len(sys.argv) > 2
                    else "net_soak_metrics.json")

    command = [binary, "--port", "0", "--workers", "2",
               "--max-connections", "32", "--job-ttl", "600",
               "--metrics-json", metrics_path]
    daemon = subprocess.Popen(
        command,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        banner = daemon.stdout.readline().strip()
        # "ok marioh_served port=NNNN workers=..."
        fields = dict(f.split("=", 1) for f in banner.split()[2:] if "=" in f)
        if not banner.startswith("ok marioh_served") or "port" not in fields:
            fail("bad banner: %r" % banner)
        port = int(fields["port"])

        # One connection seeds the shared dataset for everyone.
        seeder = Client(port)
        reply = seeder.request("gen soak crime 42")
        if not reply.startswith("ok generated"):
            fail("gen failed: %r" % reply)

        errors = []
        threads = [threading.Thread(target=drive_connection,
                                    args=(port, i, errors))
                   for i in range(CONNECTIONS)]
        for t in threads:
            t.start()
        # Scrape the metrics endpoint while the workers are mid-flight:
        # the partition must hold at any instant, not just at the end.
        live = seeder.scrape_metrics()
        assert_partition(live, "mid-run scrape")
        print("net_soak: mid-run partition holds (accepted=%d)"
              % live["marioh_jobs_accepted_total"])
        for t in threads:
            t.join()
        if errors:
            fail("; ".join(errors))

        final = seeder.scrape_metrics()
        assert_partition(final, "post-run scrape")
        if final["marioh_process_rss_bytes"] <= 0:
            fail("process RSS gauge missing from metrics scrape")

        print("net_soak: final scrape: accepted=%d done=%d lines_served=%d"
              % (final["marioh_jobs_accepted_total"],
                 final["marioh_jobs_done_total"],
                 final["marioh_lines_served_total"]))
        seeder.request("quit")
        seeder.close()

        daemon.send_signal(signal.SIGTERM)
        try:
            daemon.wait(timeout=60)
        except subprocess.TimeoutExpired:
            daemon.kill()
            fail("daemon did not exit within 60s of SIGTERM")
        if daemon.returncode != 0:
            fail("daemon exit status %d" % daemon.returncode)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()

    if not os.path.exists(metrics_path):
        fail("daemon exited without writing %s" % metrics_path)
    with open(metrics_path) as f:
        snapshot = json.load(f)
    for section in ("counters", "gauges", "histograms", "spans"):
        if section not in snapshot:
            fail("metrics snapshot missing %r section" % section)
    series = snapshot_series(snapshot)

    assert_partition(series, "shutdown snapshot")
    accepted = series["marioh_jobs_accepted_total"]
    expected_jobs = CONNECTIONS * JOBS_PER_CONNECTION
    if accepted < expected_jobs:
        fail("expected >= %d accepted jobs, snapshot says %d"
             % (expected_jobs, accepted))
    if accepted != final["marioh_jobs_accepted_total"]:
        fail("shutdown snapshot accepted=%d disagrees with the last live "
             "scrape %d" % (accepted, final["marioh_jobs_accepted_total"]))
    connections = series["marioh_connections_total"]
    if connections < CONNECTIONS + 1:
        fail("expected >= %d connections, snapshot says %d"
             % (CONNECTIONS + 1, connections))
    print("net_soak: metrics snapshot OK (%d counters, %d spans)"
          % (len(snapshot["counters"]), len(snapshot["spans"])))

    print("net_soak: OK — %d jobs over %d connections, partition holds, "
          "clean shutdown (%s)" % (accepted, connections, metrics_path))


if __name__ == "__main__":
    main()
