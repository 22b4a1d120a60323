"""Tests of the benchmark's own code. Run with `python3 perfbench/run.py --self-test`;
every benchmark run also runs the fast ones before measuring."""

import json
import os
import socket
import subprocess
import sys
import threading
import time
import unittest

import run as bench


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(bench.percentile(values, 50), 50)
        self.assertEqual(bench.percentile(values, 99), 99)
        self.assertEqual(bench.percentile(values, 100), 100)
        self.assertEqual(bench.percentile([7.0], 99), 7.0)
        with self.assertRaises(ValueError):
            bench.percentile([], 50)

    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(bench.reportable_percentile(10000), 99.9)
        self.assertEqual(bench.reportable_percentile(1000), 99.0)
        self.assertEqual(bench.reportable_percentile(999), 98.0)
        self.assertEqual(bench.reportable_percentile(500), 98.0)
        self.assertEqual(bench.reportable_percentile(200), 95.0)
        self.assertEqual(bench.reportable_percentile(20), 50.0)
        self.assertIsNone(bench.reportable_percentile(19))
        for n in (20, 57, 100, 333, 1000, 4321, 10000):
            q = bench.reportable_percentile(n)
            self.assertGreaterEqual(n * (100 - q) / 100, 10 - 1e-9)


class NameTest(unittest.TestCase):
    def test_valid(self):
        for name in ("p50_ms", "serve.http.parse_us", "a", "9lives", "x-y.z_1", "a" * 64):
            self.assertTrue(bench.valid_name(name), name)

    def test_invalid(self):
        for name in ("", "_lead", ".lead", "has space", "slash/no", "a" * 65, "ünï", "p99%"):
            self.assertFalse(bench.valid_name(name), name)

    def test_every_declared_name_is_valid(self):
        for name, unit in bench.END_TO_END + bench.PER_LAYER:
            self.assertTrue(bench.valid_name(name), name)
            self.assertTrue(bench.UNIT_RE.fullmatch(unit), unit)


def load_benchmark():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class SchemaTest(unittest.TestCase):
    def result(self):
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {"p50_ms": {"value": 1.25, "unit": "ms"},
                            "setup_s": {"value": 0.5, "unit": "s"}}}

    def test_valid_result(self):
        self.assertEqual(bench.schema_errors(self.result(), ["p50_ms", "setup_s"]), [])

    def test_rejections(self):
        r = self.result()
        del r["failed"]
        self.assertTrue(bench.schema_errors(r, ["p50_ms", "setup_s"]))
        r = self.result()
        r["attempted"] = 0
        self.assertTrue(bench.schema_errors(r, ["p50_ms", "setup_s"]))
        r = self.result()
        r["attempted"] = True
        self.assertTrue(bench.schema_errors(r, ["p50_ms", "setup_s"]))
        r = self.result()
        r["metrics"]["p50_ms"]["value"] = float("nan")
        self.assertTrue(bench.schema_errors(r, ["p50_ms", "setup_s"]))
        r = self.result()
        r["metrics"]["extra"] = {"value": 1, "unit": "ms"}
        self.assertTrue(bench.schema_errors(r, ["p50_ms", "setup_s"]))
        r = self.result()
        r["metrics"]["p50_ms"]["unit"] = "milli seconds"
        self.assertTrue(bench.schema_errors(r, ["p50_ms", "setup_s"]))

    def test_benchmark_json_matches_the_code(self):
        spec = load_benchmark()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in spec["workloads"]], list(bench.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], bench.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], bench.PER_LAYER)
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"], max(m["bound"] for m in spec["end_to_end"]))


class SlowServer:
    """Answers each request on a connection `delay` seconds after reading it,
    one at a time: pipelined requests queue, as on a saturated server."""

    def __init__(self, delay=0.03):
        self.delay = delay
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self.port = self.sock.getsockname()[1]
        self.stop = False
        threading.Thread(target=self.accept, daemon=True).start()

    def accept(self):
        while not self.stop:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            threading.Thread(target=self.serve, args=(conn,), daemon=True).start()

    def serve(self, conn):
        buf = b""
        with conn:
            while True:
                while b"\r\n\r\n" not in buf:
                    chunk = conn.recv(65536)
                    if not chunk:
                        return
                    buf += chunk
                head, _, rest = buf.partition(b"\r\n\r\n")
                length = 0
                for line in head.split(b"\r\n"):
                    if line.lower().startswith(b"content-length:"):
                        length = int(line.split(b":")[1])
                while len(rest) < length:
                    chunk = conn.recv(65536)
                    if not chunk:
                        return
                    rest += chunk
                buf = rest[length:]
                time.sleep(self.delay)
                conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")


def drive(server, commands):
    """Run prm_bench load against `server`; one JSON reply per command."""
    proc = subprocess.Popen([bench.PRM_BENCH, "load", "--workload", "fit_cold", "--seed", "5"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        assert "ready" in proc.stdout.readline()
        replies = []
        for command in ["connect 127.0.0.1:%d" % server.port] + commands:
            proc.stdin.write(command + "\n")
            proc.stdin.flush()
            replies.append(json.loads(proc.stdout.readline()))
        return replies[1:]
    finally:
        proc.stdin.close()
        proc.wait(30)
        server.stop = True
        server.sock.close()


class OpenLoopScheduleTest(unittest.TestCase):
    """The generator keeps its schedule against a slow server (open loop),
    so latency timed from the due time grows with the queue."""

    def test_schedule_kept_against_a_slow_server(self):
        reply = drive(SlowServer(), ["run t 400 1 0.25"])[0]
        # Poisson count at 400/s over 1.25 s: 500 +- 4 sigma; 400 measured.
        self.assertTrue(410 <= reply["attempted"] <= 590, reply["attempted"])
        self.assertTrue(310 <= reply["measured"] <= 490, reply["measured"])
        self.assertEqual(len(reply["latency_us"]), reply["measured"])
        self.assertEqual(reply["failed"], 0)
        late = sorted(reply["late_us"])
        self.assertLess(bench.percentile(late, 50), 1000.0)  # sent on time (us)
        latency = sorted(reply["latency_us"])
        # 4 connections x 1/30 ms serve ~133/s: a 400/s open loop queues up,
        # so the last requests wait far longer than one service time.
        self.assertGreater(bench.percentile(latency, 99), 500_000.0)
        # Latency is timed from the due time: never below the service time.
        self.assertGreater(latency[0], 29_000.0)


class CapacityTest(unittest.TestCase):
    """Saturation over a fixed amount of work finds the service rate, and a
    faster server reads higher."""

    def test_capacity_tracks_service_rate(self):
        rates = []
        for delay in (0.06, 0.03, 0.015):
            reply = drive(SlowServer(delay), ["saturate 100 8 4"])[0]
            self.assertEqual(reply["failed"], 0)
            self.assertEqual(reply["attempted"], 108)
            rates.append(reply["completed"] / reply["seconds"])
        # 4 connections, one request at a time each: 4 / delay per second.
        for delay, rate in zip((0.06, 0.03, 0.015), rates):
            self.assertLess(abs(rate - 4 / delay) / (4 / delay), 0.2, (delay, rate))
        self.assertEqual(rates, sorted(rates))


def run_tests(slow):
    loader = unittest.TestLoader()
    suite = unittest.TestSuite()
    for case in (PercentileTest, NameTest, SchemaTest):
        suite.addTests(loader.loadTestsFromTestCase(case))
    if slow:
        suite.addTests(loader.loadTestsFromTestCase(OpenLoopScheduleTest))
        suite.addTests(loader.loadTestsFromTestCase(CapacityTest))
    result = unittest.TextTestRunner(stream=sys.stderr, verbosity=1 if slow else 0).run(suite)
    return 0 if result.wasSuccessful() else 1


def run(slow=False):
    """Entry point used by run.py; returns 0 when every test passed."""
    return run_tests(slow)
