"""Self-tests of the benchmark harness (not of the program).

    python3 perfbench/selftest.py

Checks the percentile arithmetic on known samples, that every operation
list is a pure function of the workload seed, and that the load
generator never holds more than two connections.  Needs nothing from
``src/``; the connection test talks to a stub server on localhost.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import unittest
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import loadgen  # noqa: E402
import mix  # noqa: E402
import tracing  # noqa: E402


class PercentileTests(unittest.TestCase):
    def test_nearest_rank(self):
        sample = list(range(200, 0, -1))  # 1..200, unsorted
        self.assertEqual(common.percentile(sample, 50), 100)
        self.assertEqual(common.percentile(sample, 90), 180)
        self.assertEqual(common.percentile(sample, 99), 198)
        self.assertEqual(common.percentile([7.0], 90), 7.0)
        with self.assertRaises(ValueError):
            common.percentile([], 50)

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        self.assertEqual(common.tail_percentile(100), 90)
        self.assertEqual(common.tail_percentile(120), 90)
        self.assertEqual(common.tail_percentile(240), 95)
        self.assertEqual(common.tail_percentile(500), 98)
        self.assertEqual(common.tail_percentile(1000), 99)
        with self.assertRaises(ValueError):
            common.tail_percentile(99)
        for n in (100, 240, 777, 5000):
            sample = range(1, n + 1)
            cut = common.percentile(sample, common.tail_percentile(n))
            self.assertGreaterEqual(sum(1 for v in sample if v > cut), 10)

    def test_quartile_spread(self):
        # statistics.quantiles([1..9], n=4) -> [2.5, 5.0, 7.5]
        self.assertAlmostEqual(common.quartile_spread(range(1, 10)), 1.0)
        self.assertEqual(common.quartile_spread([3.0] * 10), 0.0)

    def test_union_length(self):
        spans = [(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (5.5, 5.7)]
        self.assertAlmostEqual(tracing.union_length(spans), 4.0)
        self.assertEqual(tracing.union_length([]), 0.0)


class OperationListTests(unittest.TestCase):
    def test_plan_list_is_a_function_of_the_seed(self):
        self.assertEqual(mix.plan_phases(7, 2), mix.plan_phases(7, 2))
        self.assertNotEqual(mix.plan_phases(7, 2), mix.plan_phases(8, 2))
        self.assertNotEqual(mix.plan_phases(7, 2), mix.plan_phases(7, 3))

    def test_plan_list_keeps_its_distinct_operations(self):
        def identities(bodies):
            return sorted((b["seed"], b["second_stage"]) for b in bodies)

        reference = identities(mix.plan_phases(0, 1)[0])
        for seed in range(20):
            first, repeats = mix.plan_phases(seed, seed % 3 + 1)
            self.assertEqual(identities(first), reference)
            self.assertEqual(len(repeats), mix.PLAN_REPEATS)
            self.assertTrue(set(identities(repeats)) <= set(reference))
            self.assertNotIn(mix.WARMUP_SEED, {b["seed"] for b in first})
            self.assertEqual(len(first) + len(repeats), mix.ops_per_round("serve-plan"))

    def test_replan_walks_are_a_function_of_the_seed(self):
        self.assertEqual(mix.replan_walks(3, 1), mix.replan_walks(3, 1))
        self.assertNotEqual(mix.replan_walks(3, 1), mix.replan_walks(4, 1))
        self.assertNotEqual(mix.replan_walks(3, 1), mix.replan_walks(3, 2))
        for seed in range(20):
            walks = mix.replan_walks(seed, seed % 3 + 1)
            for walk, seeds in zip(walks, mix.REPLAN_CLIENT_SEEDS):
                self.assertEqual(sorted(s for s, _ in walk), sorted(seeds))
                for _, repeats in walk:
                    self.assertEqual(len(set(repeats)), mix.REPLAN_REPEATS)
                    self.assertTrue(all(0 < p < mix.PERIODS for p in repeats))


class _CountingHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        body = json.dumps({"ok": True}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.server.close_after_reply:
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class LoadGeneratorTests(unittest.TestCase):
    def serve(self, close_after_reply=False):
        server = ThreadingHTTPServer(("127.0.0.1", 0), _CountingHandler)
        server.daemon_threads = True
        server.connections = 0
        server.lock = threading.Lock()
        server.close_after_reply = close_after_reply
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        self.addCleanup(thread.join, 5)
        self.addCleanup(server.server_close)
        self.addCleanup(server.shutdown)
        return server

    def test_never_more_than_two_connections(self):
        server = self.serve()
        phases = [[{"n": i} for i in range(25)], [{"n": i} for i in range(7)]]
        scripts = loadgen.shared_queue_scripts(phases, "/v1/plan")
        records, (start, end) = loadgen.run_clients(server.server_address[1], scripts)
        self.assertEqual(len(records), 32)
        self.assertTrue(all(r["status"] == 200 for r in records))
        self.assertLessEqual(server.connections, loadgen.CLIENTS)
        self.assertLess(start, end)
        first_phase_end = max(r["end"] for r in records if r["phase"] == 0)
        self.assertTrue(
            all(r["start"] >= first_phase_end for r in records if r["phase"] == 1)
        )

    def test_refuses_a_third_client(self):
        with self.assertRaises(ValueError):
            loadgen.run_clients(1, [lambda c: None] * (loadgen.CLIENTS + 1))

    def test_does_not_reopen_a_closed_connection(self):
        server = self.serve(close_after_reply=True)

        def script(client):
            client.post("/v1/plan", {})
            client.post("/v1/plan", {})

        with self.assertRaises(ConnectionError):
            loadgen.run_clients(server.server_address[1], [script])
        self.assertEqual(server.connections, 1)


if __name__ == "__main__":
    unittest.main()
