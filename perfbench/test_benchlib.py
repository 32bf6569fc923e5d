"""Tests of the benchmark's own helpers: python3 perfbench/test_benchlib.py"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchlib  # noqa: E402
import run  # noqa: E402


def span(span_id, parent, start, end, name="s"):
    return {"id": span_id, "parent": parent, "name": name,
            "start": start, "end": end}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(benchlib.percentile(values, 50), 50)
        self.assertEqual(benchlib.percentile(values, 90), 90)
        self.assertEqual(benchlib.percentile(values, 99), 99)
        self.assertEqual(benchlib.percentile([3.0], 90), 3.0)
        self.assertEqual(benchlib.percentile([4, 1, 3, 2], 50), 2)
        self.assertEqual(benchlib.percentile([4, 1, 3, 2], 90), 4)

    def test_balanced_keeps_whole_cycles(self):
        groups = {"a": [1, 2, 3], "b": [4, 5], "c": [6, 7, 8, 9]}
        self.assertEqual(benchlib.balanced(groups),
                         {"a": [1, 2], "b": [4, 5], "c": [6, 7]})

    def test_p50_is_the_mean_of_per_target_medians(self):
        # Two cheap and two dear targets: a pooled median would read the
        # slowest cheap request (0.19) or the fastest dear one.
        groups = {"cheap1": [0.10, 0.11, 0.19], "cheap2": [0.10, 0.12, 0.18],
                  "dear1": [0.30, 0.31, 0.32], "dear2": [0.30, 0.33, 0.34],
                  }
        p50, p90, n = benchlib.latency_percentiles(groups)
        self.assertAlmostEqual(p50, (0.11 + 0.12 + 0.31 + 0.33) / 4)
        self.assertEqual(n, 12)
        self.assertEqual(p90, 0.33)  # rank 11 of the 12 pooled samples

    def test_extra_requests_of_a_partial_cycle_are_dropped(self):
        groups = {"a": [1.0] * 50 + [100.0], "b": [2.0] * 50}
        p50, p90, n = benchlib.latency_percentiles(groups)
        self.assertEqual((p50, p90, n), (1.5, 2.0, 100))

    def test_tail_needs_ten_samples_beyond(self):
        # p90 of n samples sits at rank ceil(0.9 n); it qualifies once
        # n - rank >= 10, i.e. from n = 100 on.
        self.assertIsNone(benchlib.tail_percentile(5))
        self.assertIsNone(benchlib.tail_percentile(99))
        self.assertEqual(benchlib.tail_percentile(100), 90.0)
        self.assertEqual(benchlib.tail_percentile(999), 90.0)
        self.assertEqual(benchlib.tail_percentile(1000), 99.0)
        self.assertEqual(benchlib.tail_percentile(10000), 99.9)

    def test_tail_custom_candidates(self):
        self.assertEqual(benchlib.tail_percentile(40, (50, 75)), 75)
        self.assertEqual(benchlib.tail_percentile(20, (50, 75)), 50)
        self.assertIsNone(benchlib.tail_percentile(19, (50, 75)))


class SelfTimeTest(unittest.TestCase):
    def test_leaf_is_its_duration(self):
        self.assertAlmostEqual(benchlib.self_times([span(1, 0, 0, 2)])[1], 2)

    def test_nested_children_are_subtracted(self):
        spans = [span(1, 0, 0, 10), span(2, 1, 1, 3), span(3, 1, 5, 9),
                 span(4, 3, 6, 7)]
        own = benchlib.self_times(spans)
        self.assertAlmostEqual(own[1], 4)   # 10 - 2 - 4
        self.assertAlmostEqual(own[2], 2)
        self.assertAlmostEqual(own[3], 3)   # 4 - 1 (grandchild is not ours)
        self.assertAlmostEqual(own[4], 1)

    def test_overlapping_children_count_once(self):
        spans = [span(1, 0, 0, 10), span(2, 1, 1, 5), span(3, 1, 4, 6)]
        self.assertAlmostEqual(benchlib.self_times(spans)[1], 5)

    def test_child_outside_parent_counts_only_inside(self):
        spans = [span(1, 0, 0, 4), span(2, 1, 3, 8), span(3, 1, 9, 12)]
        self.assertAlmostEqual(benchlib.self_times(spans)[1], 3)

    def test_by_name_sums_spans(self):
        spans = [span(1, 0, 0, 4, "request"), span(2, 1, 0, 3, "train"),
                 span(3, 0, 5, 9, "request"), span(4, 3, 5, 8, "train")]
        totals = benchlib.self_time_by_name(spans)
        self.assertAlmostEqual(totals["request"], 2)
        self.assertAlmostEqual(totals["train"], 6)

    def test_overlaps(self):
        window = span(1, 0, 10, 20)
        self.assertTrue(benchlib.overlaps(span(2, 0, 19, 25), window))
        self.assertFalse(benchlib.overlaps(span(3, 0, 20, 25), window))
        self.assertFalse(benchlib.overlaps(span(4, 0, 0, 10), window))


class ParseTest(unittest.TestCase):
    def test_wait_reply(self):
        reply = benchlib.parse_job_reply(
            "ok job 12 state=DONE method=MARIOH target=d.target "
            "unique_edges=80 total_edges=80 jaccard=0.7396 "
            "multi_jaccard=0.7396 seconds=0.153\n")
        self.assertEqual(reply["id"], 12)
        self.assertEqual(reply["state"], "DONE")
        self.assertEqual(reply["unique_edges"], "80")
        self.assertEqual(reply["jaccard"], "0.7396")

    def test_submit_reply_has_no_state(self):
        reply = benchlib.parse_job_reply("ok job 3")
        self.assertEqual(reply, {"id": 3, "state": None})

    def test_failed_job_message_is_quoted(self):
        reply = benchlib.parse_job_reply(
            'ok job 4 state=FAILED method=MARIOH target=x status=NOT_FOUND '
            'seconds=0 message="dataset \'x\' is not loaded"')
        self.assertEqual(reply["state"], "FAILED")
        self.assertEqual(reply["message"], "dataset 'x' is not loaded")

    def test_error_lines_are_rejected(self):
        with self.assertRaises(ValueError):
            benchlib.parse_job_reply("error NOT_FOUND: no job 9")
        with self.assertRaises(ValueError):
            benchlib.parse_job_reply("ok job 5 state")

    def scrape(self, accepted=5, done=3, queued=1, running=1, rejected=0):
        body = {
            "counters": [
                {"name": "marioh_jobs_accepted_total", "value": accepted},
                {"name": "marioh_jobs_done_total", "value": done},
                {"name": "marioh_jobs_failed_total", "value": 0},
                {"name": "marioh_submits_rejected_total", "value": rejected},
            ],
            "gauges": [
                {"name": "marioh_jobs_queued", "value": queued},
                {"name": "marioh_jobs_running", "value": running},
            ],
            "histograms": [
                {"name": "marioh_stage_duration_seconds",
                 "labels": "stage=\"train\"", "count": 2, "sum": 0.5,
                 "max": 0.3, "buckets": []},
                {"name": "marioh_wait_latency_seconds", "count": 4,
                 "sum": 1.0, "max": 0.4, "buckets": []},
                {"name": "marioh_journal_fsync_seconds", "count": 0,
                 "sum": 0, "max": 0, "buckets": []},
            ],
            "spans": [],
        }
        return benchlib.parse_metrics_json("ok metrics-json " +
                                           json.dumps(body))

    def test_metrics_json(self):
        m = self.scrape()
        self.assertEqual(m["counters"]["marioh_jobs_done_total"], 3)
        self.assertEqual(m["gauges"]["marioh_jobs_queued"], 1)
        key = 'marioh_stage_duration_seconds{stage="train"}'
        self.assertEqual(m["histograms"][key]["sum"], 0.5)
        self.assertAlmostEqual(
            benchlib.histogram_mean(m, "marioh_wait_latency_seconds"), 0.25)
        self.assertEqual(
            benchlib.histogram_mean(m, "marioh_journal_fsync_seconds"), 0.0)
        self.assertEqual(benchlib.histogram_mean(m, "absent"), 0.0)
        with self.assertRaises(ValueError):
            benchlib.parse_metrics_json("ok metrics lines=3")

    def test_scrape_check(self):
        self.assertEqual(benchlib.scrape_violations(self.scrape()), [])
        broken = benchlib.scrape_violations(self.scrape(accepted=6))
        self.assertEqual(len(broken), 1)
        self.assertIn("partition", broken[0])
        rejected = benchlib.scrape_violations(self.scrape(rejected=2))
        self.assertEqual(len(rejected), 1)
        self.assertIn("submits_rejected", rejected[0])


class ContractTest(unittest.TestCase):
    """run.py prints exactly the metrics BENCHMARK.json names."""

    def test_metric_lists_match_benchmark_json(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))
        # reconstruct_stream runs but is not gated (see README.md).
        gated = [w for w in run.WORKLOADS if w != "reconstruct_stream"]
        self.assertEqual([w["name"] for w in spec["workloads"]], gated)
        for w in spec["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)


if __name__ == "__main__":
    unittest.main()
