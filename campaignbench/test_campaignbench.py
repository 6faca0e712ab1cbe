#!/usr/bin/env python3
"""Tests of the campaign benchmark itself.

    python3 campaignbench/test_campaignbench.py

Each test drives campaignbench/run.py for about a second, most of them on a
short campaign (--hours 2), so the first test to run also builds the
benchmark.
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("outline_ideal", "outline_lossy", "fleet_grid")
SHORT = ["--hours", "2", "--seconds", "1"]


def run(workload, trace, *extra, seed=3, length=SHORT):
    """Returns (exit code, stdout lines, parsed last-line JSON)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)] + length + list(extra),
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1])


class CampaignBenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def assert_metrics(self, result, declared):
        want = {m["name"]: m["unit"] for m in declared}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for m in result["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))

    def test_short_run_prints_every_metric_with_its_unit(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=0):
                code, lines, result = run(workload, 0)
                self.assertEqual(code, 0, lines)
                self.assertTrue(result["correct"])
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(result["failed"], 0)
                self.assert_metrics(result, self.spec["end_to_end"])
                self.assertTrue(any(l.startswith("shards_failed_ratio: 0 ") for l in lines))
                self.assertTrue(any(l.startswith("host: cpu=") for l in lines))
            with self.subTest(workload=workload, trace=1):
                code, lines, result = run(workload, 1)
                self.assertEqual(code, 0, lines)
                self.assertTrue(result["correct"])
                self.assert_metrics(result, self.spec["per_layer"])

    def test_wrong_pinned_digest_fails_the_run(self):
        code, _, result = run("outline_ideal", 0, "--expect-digest", "0" * 40)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_replay_decrypts_every_non_probe_client_flow(self):
        code, lines, result = run("outline_ideal", 1)
        self.assertEqual(code, 0, lines)
        replay = [l for l in lines if l.startswith("replay: ")]
        self.assertEqual(len(replay), 1, lines)
        match = re.match(r"replay: (\d+) of (\d+) non-probe client flows decrypted", replay[0])
        self.assertIsNotNone(match, replay[0])
        decrypted, flows = int(match.group(1)), int(match.group(2))
        self.assertGreater(flows, 0)
        self.assertEqual(decrypted, flows)
        self.assertGreater(result["metrics"]["proxy.decrypt_bytes"]["value"], 0)

    def test_unfinished_probe_is_not_a_client_flow(self):
        # At this seed one shard of outline_lossy ends while a probe is
        # still open, so the probe never reaches the probe log; its flow
        # must still be told apart from client flows by its source.
        code, lines, result = run("outline_lossy", 1, seed=34, length=["--seconds", "1"])
        self.assertEqual(code, 0, lines)
        self.assertTrue(result["correct"])


if __name__ == "__main__":
    unittest.main()
