#!/usr/bin/env python3
"""The prm service benchmark.

Drives the shipped `prm_cli serve` binary as child process(es) with an
open-loop load generator (`prm_bench load`) over loopback, checks the
outputs, and prints every metric by name with its unit. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.

    python3 perfbench/run.py --workload fit_cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload fit_cold --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --all --seed 1            # every workload, untraced
    python3 perfbench/run.py --self-test               # the benchmark's own tests
    python3 perfbench/run.py --compare A.json B.json   # refuses unlike hosts/builds

--trace 0 measures the end-to-end metrics; --trace 1 measures the
per-layer ones (counters scraped from /metrics around the untraced phases,
timings from `prm_bench trace`, an in-process replay of the same requests).
Run from the root of a checkout; the first run builds into .bench_build/.
See perfbench/README.md for the workloads and every metric.
"""

import argparse
import http.client
import json
import math
import os
import re
import select
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")
PRM_CLI = os.path.join(BUILD, "prm", "examples", "prm_cli")
PRM_BENCH = os.path.join(BUILD, "prm_bench")

# Per workload, measured on the 4-core reference host with the server on 2
# cores (README.md, "Workloads"): the saturation rate (`reference_rps`, which
# sizes the fixed amount of work the saturation phase completes), the p99
# limit, the open-loop `peak` rate (the highest rate whose p99 stayed within
# that limit in most runs; a run whose peak p99 does not is marked invalid),
# and the `nominal` rate well below it.
WORKLOADS = {
    "fit_cold": {
        "why": "distinct series: both caches miss, every request runs the LM multistart",
        "reference_rps": 720, "nominal_rps": 120, "peak_rps": 360, "p99_limit_ms": 250.0,
    },
    "live_ingest": {
        "why": "telemetry streams into live::Monitor behind the WAL, recovered at boot",
        "reference_rps": 66000, "nominal_rps": 3000, "peak_rps": 20000, "p99_limit_ms": 50.0,
    },
    "routed_ingest": {
        "why": "the same streams through the router to 3 cluster nodes",
        "reference_rps": 12000, "nominal_rps": 2000, "peak_rps": 5000, "p99_limit_ms": 50.0,
    },
}

WARMUP_S = 0.5            # each timed phase first runs this long unreported
SATURATE_DEPTH = 8        # requests in flight per connection while saturating
SPLIT = (0.55, 0.25, 0.20)  # shares of --seconds: nominal, peak, saturation
SETUP_REPEATS = 15        # setup_s is the median of this many cold starts
LATE_P50_LIMIT_MS = 1.0   # generator validity: median lateness
LATE_P99_LIMIT_MS = 25.0  # generator validity: tail lateness (host stalls included)

# The gated end-to-end metrics (BENCHMARK.json). The latency and throughput
# figures are printed beside them but not gated: on the reference host they
# moved by 20% to several-fold between runs of the same code (README.md).
END_TO_END = [("setup_s", "s"), ("cpu_us_per_op", "us"), ("rss_peak_mb", "MiB")]

PER_LAYER = [
    ("serve.http.parse_us", "us"), ("serve.json.parse_us", "us"),
    ("serve.app.handle_us", "us"), ("serve.unattributed_us", "us"),
    ("serve.response_cache.hit_ratio", "ratio"), ("serve.response_cache.evictions", "count"),
    ("serve.fit_cache.hit_ratio", "ratio"), ("serve.fit_cache.evictions", "count"),
    ("serve.fits_computed", "count"), ("serve.server.rejected_share", "ratio"),
    ("serve.server.queue_depth_max", "count"), ("serve.server.writev_coalesce_ratio", "ratio"),
    ("serve.server.buffer_pool_miss_ratio", "ratio"),
    ("core.fit_us", "us"), ("optimize.starts_per_fit", "count"),
    ("optimize.iterations_per_fit", "count"), ("optimize.evals_per_fit", "count"),
    ("par.fit_speedup", "ratio"),
    ("live.refits_executed", "count"), ("live.refits_coalesced", "count"),
    ("live.refits_failed", "count"), ("live.refit_useful_ratio", "ratio"),
    ("wal.fsyncs_per_s", "1/s"), ("wal.bytes_per_sample", "bytes"),
    ("wal.records_per_op", "ratio"), ("wal.rotations", "count"), ("wal.compactions", "count"),
    ("cluster.ring.owner_ns", "ns"), ("cluster.upstream.pipelined_ratio", "ratio"),
    ("cluster.upstream.connects", "count"), ("cluster.proxy_errors", "count"),
    ("bench.generator_late_p99_ms", "ms"), ("bench.tracing_overhead_share", "ratio"),
]

ALLOWED_CPUS = sorted(os.sched_getaffinity(0))

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# ---------------------------------------------------------------- helpers --

def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def percentile(sorted_values, q):
    """Nearest-rank q-th percentile (0 < q <= 100) of an ascending list."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


PERCENTILE_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def reportable_percentile(count):
    """Highest ladder percentile with at least ten samples beyond it."""
    for q in PERCENTILE_LADDER:
        if count * (100.0 - q) / 100.0 >= 10.0 - 1e-9:
            return q
    return None


def valid_name(name):
    return bool(NAME_RE.fullmatch(name))


def schema_errors(result, expected):
    """Problems with a final result object; `expected` lists metric names."""
    errors = []
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return ["result must have exactly correct, attempted, failed, metrics"]
    if not isinstance(result["correct"], bool):
        errors.append("correct must be a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool) or result[key] < 0:
            errors.append(key + " must be a non-negative integer")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        errors.append("attempted must be at least 1")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return errors + ["metrics must be an object"]
    if sorted(metrics) != sorted(expected):
        errors.append("metric names differ from the expected set")
    for name, entry in metrics.items():
        if not valid_name(name):
            errors.append("bad metric name " + repr(name))
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            errors.append(name + ": needs exactly value and unit")
            continue
        value = entry["value"]
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
            errors.append(name + ": value must be a finite number")
        if not isinstance(entry["unit"], str) or not UNIT_RE.fullmatch(entry["unit"]):
            errors.append(name + ": bad unit")
    return errors


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def cpu_sets():
    """Disjoint cores: the generator on the last allowed core, the server
    process(es) on the ones between. The first core is left to this script,
    the builds and the host's interrupt load: on the 4-core reference host a
    busy first core stalls for up to ~90 ms at a time while the other three
    stall under 10 ms, which swamped every tail figure."""
    cpus = ALLOWED_CPUS
    if len(cpus) >= 3:
        return {cpus[-1]}, set(cpus[1:-1])
    if len(cpus) == 2:
        return {cpus[-1]}, {cpus[0]}
    return set(cpus), set(cpus)


def process_cpu_ns(pid):
    """On-CPU time of every thread of `pid`, in ns (schedstat, else stat)."""
    total = 0
    task_dir = "/proc/%d/task" % pid
    try:
        for tid in os.listdir(task_dir):
            with open(os.path.join(task_dir, tid, "schedstat")) as f:
                total += int(f.read().split()[0])
        return total
    except (OSError, ValueError, IndexError):
        with open("/proc/%d/stat" % pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) * 1e9 / os.sysconf("SC_CLK_TCK")


def process_rss_peak_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def http_get_json(port, path, timeout=5.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        body = resp.read()
        return resp.status, (json.loads(body) if body else None)
    finally:
        conn.close()


# ------------------------------------------------------------------ build --

def require_sources():
    missing = [p for p in ("src/CMakeLists.txt", "examples/prm_cli.cpp", "CMakeLists.txt")
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        log("run.py: not a prm checkout (missing %s); run from the repository root"
            % ", ".join(missing))
        sys.exit(2)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", "prm_cli", "prm_bench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def host_stamp(gen_cpus, server_cpus):
    stamp = {"nproc": os.cpu_count(), "generator_cpus": sorted(gen_cpus),
             "server_cpus": sorted(server_cpus)}
    try:
        with open(os.path.join(BUILD, "build_stamp.txt")) as f:
            for line in f:
                key, _, value = line.strip().partition("=")
                stamp[key] = value
    except OSError:
        pass
    try:
        stamp["gcc"] = subprocess.run(["gcc", "--version"], capture_output=True, text=True,
                                      check=False).stdout.splitlines()[0]
    except (OSError, IndexError):
        stamp["gcc"] = "unknown"
    describe = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
    stamp["git_describe"] = describe.stdout.strip() if describe.returncode == 0 else "unknown"
    return stamp


# --------------------------------------------------------------- processes --

class Server:
    """One `prm_cli serve` child, pinned to the server cores. Its output is
    read line by line until it announces its port, then copied to a log."""

    def __init__(self, args, cpus, log_path):
        self.log_path = log_path
        env = dict(os.environ, PRM_THREADS=str(len(cpus)))
        # The child inherits this process's affinity. Setting it here rather
        # than in a preexec_fn lets Popen use vfork, which keeps 3-4 ms of
        # forking this interpreter out of the timed set-up.
        own = os.sched_getaffinity(0)
        os.sched_setaffinity(0, cpus)
        try:
            self.proc = subprocess.Popen(
                [PRM_CLI, "serve"] + args, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                bufsize=0,  # unbuffered: select() below must see every byte not yet read
                env=env)
        finally:
            os.sched_setaffinity(0, own)
        self.port = None
        self.copier = None

    def wait_listening(self, timeout=60.0):
        deadline = time.monotonic() + timeout
        pattern = re.compile(rb"listening on [0-9.]+:(\d+)")
        seen = []
        fd = self.proc.stdout.fileno()
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))
            if not ready:
                break
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("server exited early: " + b"".join(seen).decode(errors="replace"))
            seen.append(line)
            match = pattern.search(line)
            if match:
                self.port = int(match.group(1))
                self.copier = threading.Thread(target=self.copy_log, args=(seen,), daemon=True)
                self.copier.start()
                return
        raise RuntimeError("server did not start listening")

    def copy_log(self, head):
        with open(self.log_path, "wb") as log_file:
            log_file.writelines(head)
            for line in self.proc.stdout:
                log_file.write(line)

    def stop(self, timeout=30.0):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.copier:
            self.copier.join(5)
        self.proc.stdout.close()
        return self.proc.returncode


class Generator:
    """The `prm_bench load` child: one command per line, one JSON reply. It
    builds its workload at start, before any server exists, and connects on
    `connect`, so neither is part of the server's set-up time."""

    def __init__(self, workload, seed, cpus):
        self.proc = subprocess.Popen(
            [PRM_BENCH, "load", "--workload", workload, "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            preexec_fn=lambda: os.sched_setaffinity(0, cpus))
        ready = self.proc.stdout.readline()
        if not ready.startswith('{"ready"'):
            raise RuntimeError("generator failed to start: " + ready)

    def connect(self, port, direct=None):
        self.cmd("connect 127.0.0.1:%d %s" % (port, ",".join(direct or [])))

    def cmd(self, line):
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        if "error" in reply:
            raise RuntimeError("generator: " + reply["error"])
        return reply

    def close(self):
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class Deployment:
    """The server process(es) of one workload."""

    def __init__(self, workload, server_cpus, run_dir):
        self.workload = workload
        self.server_cpus = server_cpus
        self.run_dir = run_dir
        self.servers = []
        self.wal_dir = os.path.join(run_dir, "wal")

    def start(self, prehistory_dir):
        """Spawn, wait until every server announces it is listening and
        answers GET /healthz. Returns the seconds this took (the set-up
        time): process start, WAL recovery where there is a pre-history,
        and the first answered request."""
        if prehistory_dir:  # a fresh copy of the recorded pre-history (untimed)
            shutil.rmtree(self.wal_dir, ignore_errors=True)
            shutil.copytree(prehistory_dir, self.wal_dir)
        t0 = time.monotonic()
        logs = os.path.join(self.run_dir, "server")
        self.peers = None
        if self.workload == "routed_ingest":
            # The router gets a core of its own and the nodes share the rest,
            # so proxying and refits do not migrate across each other's cores.
            cpus = sorted(self.server_cpus)
            router_cpus = {cpus[-1]}
            node_cpus = set(cpus[:-1]) or router_cpus
            self.peers = ["127.0.0.1:%d" % free_port() for _ in range(3)]
            for i, peer in enumerate(self.peers):
                self.servers.append(Server(["--cluster", peer, "--peers", ",".join(self.peers)],
                                           node_cpus, "%s-node%d.log" % (logs, i)))
            self.servers.append(Server(["--router", "on", "--peers", ",".join(self.peers),
                                        "--port", "0"], router_cpus, logs + "-router.log"))
        else:
            args = ["--port", "0"]
            if self.workload == "live_ingest":
                args += ["--wal-dir", self.wal_dir, "--fsync", "interval"]
            self.servers.append(Server(args, self.server_cpus, logs + ".log"))
        for server in self.servers:
            server.wait_listening()
        for server in self.servers:
            status, _ = http_get_json(server.port, "/healthz")
            if status != 200:
                raise RuntimeError("/healthz answered %d" % status)
        self.front = self.servers[-1]  # the router, or the only server
        return time.monotonic() - t0

    def pids(self):
        return [s.proc.pid for s in self.servers]

    def cpu_ns(self):
        return sum(process_cpu_ns(pid) for pid in self.pids())

    def rss_peak_mb(self):
        return sum(process_rss_peak_mb(pid) for pid in self.pids())

    def scrape(self):
        """Summed /metrics counters over every server process."""
        total = {}

        def add(key, value):
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                total[key] = total.get(key, 0) + value

        for s in self.servers:
            status, doc = http_get_json(s.port, "/metrics")
            if status != 200:
                raise RuntimeError("/metrics answered %d" % status)
            for section in ("fit_cache", "response_cache", "monitor", "wal"):
                for key, value in (doc.get(section) or {}).items():
                    add(section + "." + key, value)
            add("fits_computed", doc.get("fits_computed"))
            server = doc.get("server") or {}
            for key in ("requests_total", "connections_rejected", "responses_5xx",
                        "writev_calls", "writev_batches", "queue_depth"):
                add("server." + key, server.get(key))
            for key, value in (server.get("buffer_pool") or {}).items():
                add("server.buffer_pool." + key, value)
            cluster = doc.get("cluster") or {}
            add("cluster.proxy_errors", cluster.get("proxy_errors"))
            for key, value in (cluster.get("upstreams") or {}).items():
                add("cluster.upstreams." + key, value)
        return total

    def stop(self):
        codes = [s.stop() for s in self.servers]
        self.servers = []
        return codes


# ------------------------------------------------------------------ phases --

def phase_stats(reply):
    lat = sorted(x / 1e3 for x in reply["latency_us"] if x is not None)
    late = sorted(x / 1e3 for x in reply["late_us"] if x is not None)
    stats = {"samples": len(lat)}
    if lat:
        stats.update(p50_ms=percentile(lat, 50), p99_ms=percentile(lat, 99))
    if late:
        stats.update(late_p50_ms=percentile(late, 50), late_p99_ms=percentile(late, 99))
    return stats


def class_p50_ms(reply):
    """Client p50 per route class (route digit -> ms)."""
    by_route = {}
    for route, lat in zip(reply["routes"], reply["latency_us"]):
        if lat is not None:
            by_route.setdefault(route, []).append(lat / 1e3)
    return {route: percentile(sorted(v), 50) for route, v in by_route.items()}


class Run:
    def __init__(self, args):
        self.args = args
        self.cfg = WORKLOADS[args.workload]
        self.seconds = float(args.seconds)
        self.attempted = 0
        self.failed = 0
        self.problems = []   # output-check failures: the run is not correct
        self.invalid = []    # the generator could not keep its schedule
        self.extra = {}      # workload-specific figures, printed but not gated
        self.gen_cpus, self.server_cpus = cpu_sets()
        self.own_cpus = set(ALLOWED_CPUS[:1])
        os.sched_setaffinity(0, self.own_cpus)
        self.run_dir = os.path.join(WORK, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
        shutil.rmtree(self.run_dir, ignore_errors=True)
        os.makedirs(self.run_dir)
        self.prehistory = None
        if args.workload == "live_ingest":
            self.prehistory = os.path.join(self.run_dir, "prehistory")
            subprocess.run([PRM_BENCH, "prehistory", "--workload", args.workload,
                            "--seed", str(args.seed), "--dir", self.prehistory], check=True)

    def count(self, reply, what):
        self.attempted += reply.get("attempted", 0)
        self.failed += reply.get("failed", 0)
        if reply.get("failed"):
            self.problems.append("%s: %d of %d failed %s" % (
                what, reply["failed"], reply["attempted"], reply.get("first_mismatch", "")))
        return reply

    def timed_phase(self, name, rate, seconds, direct=False):
        """One open-loop phase. A phase during which the generator itself fell
        behind its schedule (a host stall on its core) measured the host, not
        the server: it is run once more, and the run is marked invalid if the
        second attempt falls behind too."""
        for attempt in (1, 2):
            reply = self.generator.cmd("run %s %s %s %s%s" % (
                name, rate, seconds - WARMUP_S, WARMUP_S, " direct" if direct else ""))
            self.count(reply, name)
            stats = phase_stats(reply)
            late50, late99 = stats.get("late_p50_ms", 0.0), stats.get("late_p99_ms", 0.0)
            if late50 <= LATE_P50_LIMIT_MS and late99 <= LATE_P99_LIMIT_MS:
                break
            note = "generator fell behind its schedule in %s (late p50 %.3f ms, p99 %.3f ms)" % (
                name, late50, late99)
            log(note + ("; running the phase again" if attempt == 1 else ""))
            if attempt == 2:
                self.invalid.append(note)
        return reply, stats

    def checks(self):
        """Output checks: sampled fits bit for bit; streams against a
        reference monitor; WAL recovery against the server's own state."""
        if self.args.workload == "fit_cold":
            reply = self.count(self.generator.cmd("check_fits"), "fit check")
            self.extra["fits_rejected"] = (reply["rejected"], "count")
            if reply["attempted"] == 0:
                self.problems.append("no /v1/fit response was sampled for the fit check")
        else:
            self.count(self.generator.cmd("settle"), "settle")
            reply = self.count(self.generator.cmd("verify"), "stream check")
            self.extra["streams_phase_gated"] = (reply["phase_gated"], "count")
            self.extra["streams_phase_diverged"] = (reply["phase_diverged"], "count")

    def wal_check(self):
        reply = json.loads(subprocess.run(
            [PRM_BENCH, "recover-check", "--dir", os.path.join(self.run_dir, "wal")],
            capture_output=True, text=True, check=True).stdout)
        self.count(reply, "WAL recovery check")

    def execute(self):
        try:
            return self.measure()
        finally:
            shutil.rmtree(self.run_dir, ignore_errors=True)

    def measure(self):
        args, cfg, S = self.args, self.cfg, self.seconds
        nominal_s, peak_s, saturate_s = (S * f for f in SPLIT)
        peak_rps = cfg["peak_rps"]
        metrics, extra = {}, self.extra
        setups = []
        repeats = 1 if args.trace else SETUP_REPEATS
        dep = None
        self.generator = Generator(args.workload, args.seed, self.gen_cpus)
        try:
            # Set-up is timed from this script, so it runs on the generator's
            # core, idle until it connects, rather than on the busy first core.
            os.sched_setaffinity(0, self.gen_cpus)
            for i in range(repeats):
                dep = Deployment(args.workload, self.server_cpus, self.run_dir)
                setups.append(dep.start(self.prehistory))
                if i + 1 < repeats:
                    dep.stop()
            os.sched_setaffinity(0, self.own_cpus)
            self.generator.connect(dep.front.port, dep.peers)
            self.stamp = host_stamp(self.gen_cpus, self.server_cpus)
            before = dep.scrape() if args.trace else None
            cpu0 = dep.cpu_ns()
            nominal, nstats = self.timed_phase("nominal", cfg["nominal_rps"], nominal_s)
            cpu_ns = dep.cpu_ns() - cpu0
            after_nominal = dep.scrape() if args.trace else None
            qmax = QueueSampler(dep) if args.trace else None
            cpu1 = dep.cpu_ns()
            peak, pstats = self.timed_phase("peak", peak_rps, peak_s)
            peak_cpu_ns = dep.cpu_ns() - cpu1
            # Gated before saturation: in many live_ingest runs the
            # saturation phase alone raised the peak by ~7 MiB (README.md).
            rss = dep.rss_peak_mb()
            if qmax:
                qmax.stop()
            after_peak = dep.scrape() if args.trace else None
            if pstats["p99_ms"] > cfg["p99_limit_ms"]:
                # Past the knee: the peak figures measured a growing backlog.
                self.invalid.append("peak p99 %.3f ms is over the workload's %.0f ms limit at "
                                    "%d req/s" % (pstats["p99_ms"], cfg["p99_limit_ms"], peak_rps))

            if args.workload.endswith("_ingest"):
                probe = self.count(self.generator.cmd("probe %s" % min(1.0, 0.06 * S)), "probe")
                lags = sorted(x / 1e3 for x in probe["lag_us"] if x is not None)
                gaps = sorted(x / 1e3 for x in probe["poll_gap_us"] if x is not None)
                if lags:
                    q = reportable_percentile(len(lags)) or 50.0
                    extra["forecast_lag_p50_ms"] = (percentile(lags, 50), "ms")
                    extra["forecast_lag_p%g_ms" % q] = (percentile(lags, q), "ms")
                    extra["forecast_lag_samples"] = (len(lags), "count")
                    gap = percentile(gaps, 50) if gaps else 0.0
                    extra["forecast_lag_poll_gap_ms"] = (gap, "ms")
                    if gap > 0.1 * percentile(lags, 50):
                        extra["forecast_lag_resolved"] = (0.0, "bool")
                        log("forecast lag unresolved: the probe polls every %.3f ms, more "
                            "than a tenth of the %.3f ms lag median" % (gap, percentile(lags, 50)))

            if args.trace:
                direct = None
                if args.workload == "routed_ingest":
                    direct, _ = self.timed_phase("direct", cfg["nominal_rps"],
                                                 nominal_s * 0.5, direct=True)
                self.checks()
                codes = dep.stop()
                self.layer_metrics(metrics, before, after_nominal, after_peak, qmax,
                                   nominal, nstats, direct, nominal_s)
            else:
                # A fixed amount of work: the same requests on every run of a
                # seed, about saturate_s seconds' worth on the reference host.
                sat = self.count(self.generator.cmd("saturate %d %d %d" % (
                    round(cfg["reference_rps"] * (saturate_s - WARMUP_S)),
                    round(cfg["reference_rps"] * WARMUP_S), SATURATE_DEPTH)), "saturate")
                extra["rss_peak_saturated_mb"] = (dep.rss_peak_mb(), "MiB")
                self.checks()
                codes = dep.stop()
                setups.sort()
                metrics["setup_s"] = (setups[len(setups) // 2], "s")
                # CPU over the whole phase (warm-up and drain included) per
                # request the phase completed.
                completed = nominal["attempted"] - nominal["failed"]
                metrics["cpu_us_per_op"] = (cpu_ns / 1e3 / max(1, completed), "us")
                metrics["rss_peak_mb"] = (rss, "MiB")
                extra["p50_ms"] = (nstats["p50_ms"], "ms")
                if nstats["samples"] >= 1000:
                    extra["p99_ms"] = (nstats["p99_ms"], "ms")
                extra["peak_p50_ms"] = (pstats["p50_ms"], "ms")
                if pstats["samples"] >= 1000:
                    extra["peak_p99_ms"] = (pstats["p99_ms"], "ms")
                extra["capacity_rps"] = (sat["completed"] / sat["seconds"], "req/s")
                extra["bench.generator_busy_share_saturated"] = (sat["generator_busy"], "ratio")
                extra["peak_cpu_us_per_op"] = (
                    peak_cpu_ns / 1e3 / max(1, peak["attempted"] - peak["failed"]), "us")
                extra["nominal_samples"] = (nstats["samples"], "count")
                extra["peak_samples"] = (pstats["samples"], "count")
            if any(code not in (0, None) for code in codes):
                self.problems.append("a server exited with %s" % codes)
            if args.workload == "live_ingest":
                self.wal_check()
            if not args.trace:
                extra["bench.generator_late_p99_ms"] = (nstats.get("late_p99_ms", 0.0), "ms")
            extra["bench.generator_late_peak_p99_ms"] = (pstats.get("late_p99_ms", 0.0), "ms")
        finally:
            self.generator.close()
            if dep:
                dep.stop()
        extra["error_share"] = (self.failed / max(1, self.attempted), "ratio")
        return metrics

    def layer_metrics(self, metrics, before, after_nominal, after_peak, qmax, nominal,
                      nstats, direct, nominal_s):
        args = self.args

        def delta(key, a=before, b=after_peak):
            return b.get(key, 0) - a.get(key, 0)

        def ratio(num, den):
            return num / den if den else 0.0

        fit_threads = len(self.server_cpus)
        spans = os.path.join(OUT, "%s-%d-spans.tsv" % (args.workload, args.seed))
        os.makedirs(OUT, exist_ok=True)
        trace = json.loads(subprocess.run(
            [PRM_BENCH, "trace", "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(0.3 * self.seconds), "--work", os.path.join(self.run_dir, "trace"),
             "--spans", spans, "--fit-threads", str(fit_threads)],
            capture_output=True, text=True, check=True,
            preexec_fn=lambda: os.sched_setaffinity(0, self.server_cpus)).stdout)
        if trace["handler_errors"]:
            self.problems.append("traced replay: %d handler errors" % trace["handler_errors"])
        self_ns = trace["self_ns"]

        def med_us(name):
            return self_ns.get(name, {}).get("median", 0.0) / 1e3

        handle_us = med_us("serve.app.handle")
        m = metrics
        m["serve.http.parse_us"] = (med_us("serve.http.parse"), "us")
        m["serve.json.parse_us"] = (med_us("serve.json.parse"), "us")
        m["serve.app.handle_us"] = (handle_us, "us")
        m["serve.unattributed_us"] = (nstats["p50_ms"] * 1e3 - handle_us, "us")
        hits, misses = delta("response_cache.hits"), delta("response_cache.misses")
        m["serve.response_cache.hit_ratio"] = (ratio(hits, hits + misses), "ratio")
        m["serve.response_cache.evictions"] = (delta("response_cache.evictions"), "count")
        hits, misses = delta("fit_cache.hits"), delta("fit_cache.misses")
        m["serve.fit_cache.hit_ratio"] = (ratio(hits, hits + misses), "ratio")
        m["serve.fit_cache.evictions"] = (delta("fit_cache.evictions"), "count")
        m["serve.fits_computed"] = (delta("fits_computed"), "count")
        peak_requests = delta("server.requests_total", after_nominal, after_peak)
        m["serve.server.rejected_share"] = (ratio(
            delta("server.connections_rejected", after_nominal, after_peak), peak_requests),
            "ratio")
        m["serve.server.queue_depth_max"] = (qmax.max_depth, "count")
        m["serve.server.writev_coalesce_ratio"] = (ratio(
            delta("server.writev_batches"), delta("server.writev_calls")), "ratio")
        m["serve.server.buffer_pool_miss_ratio"] = (ratio(
            delta("server.buffer_pool.misses"), delta("server.buffer_pool.acquired")), "ratio")
        m["core.fit_us"] = (med_us("core.fit"), "us")
        m["optimize.starts_per_fit"] = (trace["starts_per_fit"], "count")
        m["optimize.iterations_per_fit"] = (trace["iterations_per_fit"], "count")
        m["optimize.evals_per_fit"] = (trace["evals_per_fit"], "count")
        m["par.fit_speedup"] = (trace["fit_speedup"], "ratio")
        executed, coalesced = delta("monitor.refits_executed"), delta("monitor.refits_coalesced")
        m["live.refits_executed"] = (executed, "count")
        m["live.refits_coalesced"] = (coalesced, "count")
        m["live.refits_failed"] = (delta("monitor.refits_failed"), "count")
        m["live.refit_useful_ratio"] = (ratio(executed, executed + coalesced), "ratio")
        ops = delta("server.requests_total", before, after_nominal)
        m["wal.fsyncs_per_s"] = (ratio(delta("wal.fsyncs", before, after_nominal), nominal_s),
                                 "1/s")
        m["wal.bytes_per_sample"] = (ratio(delta("wal.bytes", before, after_nominal),
                                           nominal["acked_samples"]), "bytes")
        m["wal.records_per_op"] = (ratio(delta("wal.records", before, after_nominal), ops),
                                   "ratio")
        m["wal.rotations"] = (delta("wal.rotations"), "count")
        m["wal.compactions"] = (delta("wal.compactions"), "count")
        m["cluster.ring.owner_ns"] = (self_ns.get("cluster.ring.owner", {}).get("median", 0.0),
                                      "ns")
        forwarded = delta("cluster.upstreams.forwarded")
        m["cluster.upstream.pipelined_ratio"] = (ratio(delta("cluster.upstreams.pipelined"),
                                                       forwarded), "ratio")
        m["cluster.upstream.connects"] = (delta("cluster.upstreams.connects"), "count")
        m["cluster.proxy_errors"] = (delta("cluster.proxy_errors"), "count")
        m["bench.generator_late_p99_ms"] = (nstats.get("late_p99_ms", 0.0), "ms")
        m["bench.tracing_overhead_share"] = (
            ratio(trace["traced_p50_ns"] - trace["plain_p50_ns"], trace["plain_p50_ns"]), "ratio")

        # Workload-specific figures (printed, not gated: absent elsewhere).
        extra = self.extra
        route_names = ["fit", "forecast", "metrics", "ingest", "ingest_batch", "stream_get"]
        for route in route_names:
            name = "serve.app.handle." + route
            if name in self_ns:
                extra["serve.app.handle_us." + route] = (med_us(name), "us")
        for span, metric in (("serve.response_cache.lookup", "serve.response_cache.lookup_us"),
                             ("serve.fit_cache.lookup", "serve.fit_cache.lookup_us"),
                             ("core.fit.bathtub", "core.fit_us.bathtub"),
                             ("core.fit.mixture", "core.fit_us.mixture"),
                             ("core.forecast", "core.forecast_us"),
                             ("core.metrics", "core.metrics_us"),
                             ("live.ingest", "live.ingest_us"),
                             ("live.ingest_batch", "live.ingest_batch_us"),
                             ("live.snapshot", "live.snapshot_us"),
                             ("live.refit", "live.refit_us"),
                             ("wal.append", "wal.append_us"),
                             ("wal.sync", "wal.sync_us")):
            if span in self_ns:
                extra[metric] = (med_us(span), "us")
        if args.workload.endswith("_ingest"):
            extra["live.drain_ms"] = (med_us("live.drain") / 1e3, "ms")
            extra["live.refits_due_replay"] = (trace["refits_due"], "count")
        if args.workload == "live_ingest":
            extra["wal.recover_s"] = (trace["recover_s"], "s")
        if direct is not None:
            routed = class_p50_ms(nominal)
            owner = class_p50_ms(direct)
            hops = [(routed[r] - owner[r]) * 1e3 for r in routed if r in owner]
            if hops:
                hops.sort()
                extra["cluster.router_hop_us"] = (hops[len(hops) // 2], "us")
        extra["trace.requests"] = (trace["requests"], "count")
        extra["trace.spans"] = (trace["spans"], "count")


class QueueSampler:
    """Samples the server queue depth from /metrics every 50 ms."""

    def __init__(self, dep):
        self.ports = [s.port for s in dep.servers]
        self.max_depth = 0
        self.stopping = threading.Event()
        self.thread = threading.Thread(target=self.loop, daemon=True)
        self.thread.start()

    def loop(self):
        while not self.stopping.wait(0.05):
            for port in self.ports:
                try:
                    status, doc = http_get_json(port, "/metrics", timeout=2.0)
                except OSError:
                    continue
                if status == 200 and doc.get("server"):
                    self.max_depth = max(self.max_depth, doc["server"].get("queue_depth", 0))

    def stop(self):
        self.stopping.set()
        self.thread.join()


# ------------------------------------------------------------------- main --

def request_stream_deterministic(workload, seed):
    def digest(s):
        return subprocess.run([PRM_BENCH, "digest", "--workload", workload, "--seed", str(s),
                               "--count", "400"], capture_output=True, text=True,
                              check=True).stdout.strip()
    first, again, other = digest(seed), digest(seed), digest(seed + 1)
    return first == again and first != other


def run_one(args):
    names = [n for n, _ in (PER_LAYER if args.trace else END_TO_END)]
    for name in names:
        assert valid_name(name), name
    if not request_stream_deterministic(args.workload, args.seed):
        log("run.py: the request stream is not a pure function of the seed")
        return None
    run = Run(args)
    metrics = run.execute()
    correct = not run.problems
    for problem in run.problems:
        print("CHECK FAILED: " + problem)
    for note in run.invalid:
        print("RUN INVALID: " + note)
    print("workload %s seed %d trace %d: %s" % (args.workload, args.seed, args.trace,
                                                 WORKLOADS[args.workload]["why"]))
    print("host: " + json.dumps(run.stamp, sort_keys=True))
    for name, (value, unit) in list(metrics.items()) + sorted(run.extra.items()):
        print("%-40s %16.6f %s" % (name, value, unit))
    result = {
        "correct": correct,
        "attempted": int(run.attempted),
        "failed": int(run.failed),
        "metrics": {name: {"value": float(metrics[name][0]), "unit": metrics[name][1]}
                    for name in names},
    }
    errors = schema_errors(result, names)
    if errors:
        log("run.py: result fails its own schema: " + "; ".join(errors))
        return None
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "%s-%d-trace%d.json" % (args.workload, args.seed, args.trace)),
              "w") as f:
        json.dump({"stamp": run.stamp, "result": result, "invalid": run.invalid,
                   "extra": {k: v[0] for k, v in run.extra.items()}}, f, indent=1, sort_keys=True)
    return result


STAMP_KEYS_MUST_MATCH = ("nproc", "generator_cpus", "server_cpus", "build_type", "cxx_flags",
                         "prm_enable_native", "compiler", "gcc")


def compare(path_a, path_b):
    """Print per-metric ratios of two saved results; refuse unlike stamps."""
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    differ = [k for k in STAMP_KEYS_MUST_MATCH if a["stamp"].get(k) != b["stamp"].get(k)]
    if differ:
        print("REFUSED: the results come from different hosts or builds: " + ", ".join(
            "%s %r vs %r" % (k, a["stamp"].get(k), b["stamp"].get(k)) for k in differ))
        return 3
    if a["stamp"].get("git_describe") == b["stamp"].get("git_describe"):
        print("note: both results carry the same git describe (%s)" % a["stamp"].get(
            "git_describe"))
    for name in sorted(set(a["result"]["metrics"]) & set(b["result"]["metrics"])):
        va = a["result"]["metrics"][name]["value"]
        vb = b["result"]["metrics"][name]["value"]
        print("%-40s %14.6f %14.6f  x%.4f" % (name, va, vb, vb / va if va else float("nan")))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()

    if args.compare:
        return compare(*args.compare)
    require_sources()
    build()
    sys.path.insert(0, HERE)
    import test_bench  # the benchmark's own tests
    if test_bench.run(slow=args.self_test) != 0:
        log("run.py: the benchmark's self-tests failed")
        return 1
    if subprocess.run([PRM_BENCH, "selftest"], stdout=sys.stderr).returncode != 0:
        return 1
    if args.self_test:
        return 0
    workloads = sorted(WORKLOADS) if args.all else [args.workload]
    if workloads == [None]:
        parser.error("--workload or --all is required")
    result = None
    for workload in workloads:
        args.workload = workload
        result = run_one(args)
        if result is None:
            return 1
        print(json.dumps(result), flush=True)
        if not result["correct"]:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
