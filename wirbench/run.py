#!/usr/bin/env python3
"""Repository benchmark: simulator throughput, modelled reuse and
energy, and wirsimd latency. See wirbench/README.md.

    python3 wirbench/run.py --workload grid-fixed --seed 1 --seconds 45 --trace 0

Builds the simulator and the cell driver from source into .bench_build/
on first use, runs one workload with inputs drawn from the seed,
checks every output, and prints one JSON result as the last line of
stdout. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones. Exits 0 when every output was correct, 1 otherwise."""

import argparse
import itertools
import json
import os
import platform
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

import benchlib as B

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "wirbench"
RUNS = ROOT / ".bench_run"
GOLDEN = HERE / "golden.json"
# Never used while tuning a change; a claimed gain must also hold on it.
HELD_OUT_SEED = 9001
# Set-up probes run in groups of this many, between the timed parts of
# a run, so their median does not hang on one moment of a shared host.
SETUP_GROUP = 8
DAEMON_IDS = itertools.count()
# Passes run this many at once, one per core, leaving one of the four
# for the rest. On the 4-core host this was sized on, each CPU was in a
# 1.5-1.8x slower state for a share of the time that drifted over
# minutes; a cell's fastest sample needs many samples to find the fast
# state in a slow stretch. Two or three concurrent passes did not slow
# each other: the fastest 10 ms cell read 8.7-9.4 ms alone and together.
PASS_WIDTH = 3
# serve-mixed's rounds of timed in-process passes, half before the load
# session and half after it.
SERVE_ROUNDS = 4
DRIVER_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def log(msg):
    print(f"wirbench: {msg}", file=sys.stderr, flush=True)


# ----------------------------------------------------------------- build

def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no simulator sources under {ROOT / 'src'}: "
                         "run from a repository checkout")
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD), *gen,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True, timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=840)
    return BUILD / "wirbench", BUILD / "tools" / "wirsimd"


def host_identity():
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = {}
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if "=" in line and ":" in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    try:
        compiler = subprocess.run(
            [compiler, "--version"], capture_output=True, text=True,
            timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "os": platform.platform(),
        "compiler": compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "commit": commit or "unknown (not a git checkout)",
        "loadavg_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------- cell driver

def start_driver(exe, mode, backend, cells, *extra):
    cmd = [str(exe), mode, "--backend", backend, "--cells",
           ",".join(cells), *map(str, extra)]
    return subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def finish_driver(proc, cells, pass_=0, first_id=0):
    """Samples of one driver process, tagged with `pass_` and numbered
    from `first_id`, and the process's peak RSS in KiB."""
    try:
        out, err = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode not in (0, 1):
        raise BenchError(f"driver exited {proc.returncode}: "
                         f"{err.strip()[-500:]}")
    rows = [json.loads(line) for line in out.splitlines() if line]
    samples = [r for r in rows if "cell" in r]
    missing = set(cells) - {s["cell"] for s in samples}
    if missing:
        raise BenchError(f"driver returned no sample for {sorted(missing)}")
    for s in samples:
        s["pass"] = pass_
        if "id" in s:
            s["id"] += first_id
    rss = next((r["peak_rss_kb"] for r in rows if "peak_rss_kb" in r), 0)
    return samples, rss


def driver(exe, mode, backend, cells, *extra, pass_=0, first_id=0):
    return finish_driver(start_driver(exe, mode, backend, cells, *extra),
                         cells, pass_, first_id)


class Passes:
    """Timed passes over a list of cells, each pass one driver process
    running its cells one at a time on one thread. A round runs
    PASS_WIDTH passes at once, each in its own order. Collects every
    pass's samples, the largest peak RSS and the span files of traced
    passes."""

    def __init__(self, exe, rundir, seed, cells, repeats):
        self.exe, self.rundir, self.seed = exe, rundir, seed
        self.cells, self.repeats = cells, repeats
        self.samples, self.rss_kb, self.spans = [], 0, []
        self.count = 0

    def round(self, traced=False):
        started = []
        try:
            for _ in range(PASS_WIDTH):
                pass_ = self.count
                self.count += 1
                order = B.pass_order(self.cells, self.seed, pass_,
                                     self.repeats)
                path = self.rundir / f"pass{pass_}.spans"
                extra = ["--trace", "--spans", path] if traced else []
                started.append((pass_, order, path, start_driver(
                    self.exe, "cells", "fixed", order, *extra)))
            for pass_, order, path, proc in started:
                got, rss = finish_driver(proc, order, pass_,
                                         len(self.samples))
                self.samples += got
                self.rss_kb = max(self.rss_kb, rss)
                if traced:
                    self.spans += read_spans(path, f"pass{pass_}")
        finally:
            for *_, proc in started:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()


def setup_probe(exe, cells):
    """Driver process start until it reports it can run the first
    cell."""
    cmd = [str(exe), "cells", "--backend", "fixed", "--cells",
           ",".join(cells), "--setup-only"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.stdout.close()
    proc.wait(timeout=30)
    if "ready" not in line:
        raise BenchError("setup probe did not report ready")
    return elapsed


def read_spans(path, tag):
    spans = []
    if path.is_file():
        for line in path.read_text().splitlines():
            span = json.loads(line)
            span["id"] = f"{tag}:{span['id']}"
            spans.append(span)
    return spans


# --------------------------------------------------------------- daemon

class Daemon:
    """One wirsimd with its own cache dir and journal under `home`,
    on a short relative socket path."""

    def __init__(self, exe, home):
        home.mkdir(parents=True)
        self.sock = os.path.relpath(home / "s")
        self.log = open(home / "daemon.log", "w")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [str(exe), "--socket", "s", "--jobs", str(B.SERVE_JOBS),
             "--cache-dir", "cache", "--journal", "journal"],
            cwd=home, stdout=self.log, stderr=self.log)
        deadline = start + 30
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"wirsimd exited {self.proc.returncode}"
                                 f" at start (log: {home}/daemon.log)")
            try:
                if self.request({"op": "healthz", "id": "h"})["status"] \
                        == "ok":
                    break
            except OSError:
                # Start-up takes ~3 ms: a 1 ms poll rounded it up to the
                # next millisecond, a 30% step.
                time.sleep(0.0001)
        else:
            self.kill()
            raise BenchError("wirsimd did not answer /healthz in 30 s")
        self.setup_s = time.perf_counter() - start

    def connect(self):
        conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        conn.connect(self.sock)
        return conn

    def request(self, obj, conn=None):
        own = conn is None
        conn = conn or self.connect()
        try:
            conn.sendall((json.dumps(obj) + "\n").encode())
            data = b""
            while not data.endswith(b"\n"):
                chunk = conn.recv(1 << 16)
                if not chunk:
                    raise OSError("wirsimd closed the connection")
                data += chunk
            return json.loads(data)
        finally:
            if own:
                conn.close()

    def healthz_rtt_ms(self, count=200):
        conn = self.connect()
        try:
            rtts = []
            for i in range(count):
                start = time.perf_counter()
                self.request({"op": "healthz", "id": str(i)}, conn)
                rtts.append(time.perf_counter() - start)
        finally:
            conn.close()
        return 1e3 * statistics.median(rtts)

    def stats(self):
        return self.request({"op": "stats", "id": "s"})["stats"]["metrics"]

    def peak_rss_kb(self):
        for line in Path(f"/proc/{self.proc.pid}/status").read_text() \
                .splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
        return 0

    def stop(self):
        """SIGTERM, then wait for the drain to finish."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            return -1
        finally:
            self.log.close()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.log.close()


def loadgen(daemon, schedule, connections=B.SERVE_CONNECTIONS,
            grace_s=60):
    """Open loop: send each request at its scheduled time, round-robin
    over `connections`, whatever is still outstanding. Returns one
    record per request with its due, sent and received times."""
    conns = [daemon.connect() for _ in range(connections)]
    sel = selectors.DefaultSelector()
    for conn in conns:
        sel.register(conn, selectors.EVENT_READ)
    bufs = {conn: b"" for conn in conns}
    records, pending = [], {}
    t0 = time.perf_counter() + 0.05
    end = t0 + (schedule[-1][0] if schedule else 0) + grace_s
    i = 0
    try:
        while i < len(schedule) or pending:
            now = time.perf_counter()
            while i < len(schedule) and t0 + schedule[i][0] <= now:
                due, cell, first = schedule[i]
                kernel, design = cell.split("/")
                rec = {"id": str(i), "cell": cell, "first": first,
                       "due": t0 + due, "sent": time.perf_counter(),
                       "recv": None, "resp": None}
                line = json.dumps({"op": "submit", "id": rec["id"],
                                   "client": "wirbench",
                                   "workload": kernel, "design": design})
                conns[i % connections].sendall((line + "\n").encode())
                records.append(rec)
                pending[rec["id"]] = rec
                i += 1
                now = time.perf_counter()
            if now > end:
                break
            wait = (t0 + schedule[i][0] - now) if i < len(schedule) \
                else end - now
            for key, _ in sel.select(max(0.0, wait)):
                chunk = key.fileobj.recv(1 << 16)
                if not chunk:
                    raise BenchError("wirsimd closed a connection")
                bufs[key.fileobj] += chunk
                *lines, bufs[key.fileobj] = bufs[key.fileobj].split(b"\n")
                stamp = time.perf_counter()
                for line in lines:
                    resp = json.loads(line)
                    rec = pending.pop(resp.get("id"), None)
                    if rec is not None:
                        rec["recv"], rec["resp"] = stamp, resp
    finally:
        sel.close()
        for conn in conns:
            conn.close()
    return records


def classify(records):
    """Label each request miss (first of its cell), hit (a repeat sent
    after the cell's first response arrived) or overlap (a repeat sent
    while the first was still in flight), and time it from when it was
    due (open loop)."""
    first_recv = {r["cell"]: r["recv"] for r in records
                  if r["first"] and r["recv"] is not None}
    for r in records:
        done = first_recv.get(r["cell"])
        r["kind"] = "miss" if r["first"] else (
            "hit" if done is not None and done <= r["due"] else "overlap")
        r["latency_ms"] = (1e3 * (r["recv"] - r["due"])
                           if r["recv"] is not None else None)


def serve_layers(records, stats, inproc_ms, healthz_ms):
    """The serve, sweep and load-generator per-layer numbers of one
    session: daemon counters from /stats, miss latency beyond the
    in-process simulation time of the same cell, generator lag."""
    warm, simulated = stats["serve.warm_hits"], stats["serve.simulated"]
    overheads = [r["latency_ms"] - inproc_ms[r["cell"]] for r in records
                 if r["kind"] == "miss" and r["latency_ms"] is not None
                 and r["cell"] in inproc_ms]
    return {
        "sweep.warm_hit_ratio": B.ratio(warm, warm + simulated),
        "sweep.simulated": simulated,
        "serve.healthz_rtt_ms": healthz_ms,
        "serve.miss_overhead_ms": statistics.median(overheads)
        if overheads else 0.0,
        "serve.shed": stats["serve.shed.queue_full"] +
        stats["serve.shed.quota"] + stats["serve.shed.draining"],
        "serve.failed": stats["serve.failed"],
        "loadgen.lag_p99_ms": lag_p99_ms(records),
    }


def lag_p99_ms(records):
    return B.tail_percentile([1e3 * (r["sent"] - r["due"])
                              for r in records])[0]


def check_responses(records, firsts):
    """An ok response must carry the cycles and committed count of the
    same cell run in-process. Returns ids of bad requests and
    problems."""
    bad, problems = set(), []
    for r in records:
        resp = r["resp"]
        if resp is None or resp.get("status") != "ok":
            bad.add(r["id"])
            problems.append(f"request {r['id']} {r['cell']}: "
                            f"{resp and resp.get('status')} "
                            f"{resp and resp.get('reason', '')}")
            continue
        want = firsts.get(r["cell"])
        if want is None or [resp["cycles"], resp["committed"]] != [
                want["stats"]["cycles"],
                want["stats"]["warp_insts_committed"]]:
            bad.add(r["id"])
            problems.append(f"request {r['id']} {r['cell']}: "
                            f"cycles/committed {resp['cycles']}/"
                            f"{resp['committed']} differ in-process")
    return bad, problems


def request_spans(records, tag):
    """Each answered request as a `request` span over two children:
    `loadgen.lag` (due until sent) and `serve.roundtrip` (sent until
    answered)."""
    spans = []
    for r in records:
        if r["recv"] is None:
            continue
        due, sent, recv = (int(r[k] * 1e9) for k in ("due", "sent", "recv"))
        for name, parent, start, end in (
                ("request", "", due, recv),
                ("loadgen.lag", "request", due, sent),
                ("serve.roundtrip", "request", sent, recv)):
            spans.append({"id": f"{tag}:{r['id']}", "cell": r["cell"],
                          "name": name, "parent": parent,
                          "start_ns": start, "end_ns": end})
    return spans


# ------------------------------------------------------------- metrics

def metric(value, unit):
    return {"value": value, "unit": unit}


def throughput(samples):
    """Work-weighted simulated work per host CPU second over a
    workload's cells, each cell's time its fastest sample."""
    secs = {c: ns / 1e9 for c, ns in B.best_times(samples).items()}
    firsts = B.first_stats(samples)
    winst = B.work_weighted([(firsts[c]["stats"]["warp_insts_committed"],
                              s) for c, s in secs.items()])
    kcyc = B.work_weighted([(firsts[c]["stats"]["cycles"] / 1e3, s)
                            for c, s in secs.items()])
    return winst, kcyc


def end_to_end(setups, rss_kb, samples, kernels, latency, attempted,
               failed, tail_windows=1):
    """The end-to-end metrics every workload reports. `samples` are the
    in-process cell samples; `latency` holds the workload's request
    latencies: all (in send order), hit and miss."""
    winst, kcyc = throughput(samples)
    model = B.modelled(B.first_stats(samples), kernels)
    tail, pct, n = B.windowed_tail(latency["all"], tail_windows)
    details = {"latency_tail_percentile": pct,
               "latency_tail_windows": tail_windows, "latency_samples": n,
               "hit_samples": len(latency["hit"]),
               "miss_samples": len(latency["miss"]),
               "paper": B.PAPER}
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "sim_winsts_per_s": metric(winst, "winst/s"),
        "sim_kcycles_per_s": metric(kcyc, "Kcycles/s"),
        "peak_rss_mb": metric(rss_kb / 1024, "MB"),
        "reuse_pct": metric(model["reuse_pct"], "%"),
        "gpu_energy_saving_pct": metric(model["gpu_energy_saving_pct"],
                                        "%"),
        "rlpv_speedup": metric(model["rlpv_speedup"], "x"),
        "latency_p50_ms": metric(B.percentile(latency["all"], 50), "ms"),
        "latency_p99_ms": metric(tail, "ms"),
        "hit_latency_p50_ms": metric(B.percentile(latency["hit"], 50),
                                     "ms"),
        "miss_latency_p50_ms": metric(B.percentile(latency["miss"], 50),
                                      "ms"),
        "ok_pct": metric(100.0 * (attempted - failed) / attempted, "%"),
    }
    return metrics, details


def layer_metrics(main, twins, sandbox, serve, overhead_pct):
    """Per-layer metrics from traced cell samples (`main`), the
    backend-twin probe, the sandbox probe and a serve session."""
    base = [s for s in main if s["cell"].endswith("/Base")]
    rlpv = [s for s in main if s["cell"].endswith("/RLPV")]
    out = {
        "workloads.make_ms": statistics.median(
            s["make_ns"] for s in main) / 1e6,
        "sim.host_ns_per_winst": B.host_ns_per(main, "warp_insts_committed"),
        "sim.host_ns_per_cycle": B.host_ns_per(main, "cycles"),
        "timing.base_host_ns_per_winst": B.host_ns_per(
            base, "warp_insts_committed"),
        "reuse.host_cost_ratio": B.host_ns_per(
            rlpv, "warp_insts_committed") / B.host_ns_per(
            base, "warp_insts_committed"),
        "mem.detailed_cost_ratio": B.host_ns_per(
            twins["detailed"], "cycles") / B.host_ns_per(
            twins["fixed"], "cycles"),
        "energy.compute_us": statistics.median(
            s["energy_ns"] for s in main) / 1e3,
        "sweep.sandbox_overhead_ms": statistics.median(
            (r["isolate_ns"] - r["inproc_ns"]) / 1e6 for r in sandbox),
        "trace.overhead_pct": overhead_pct,
    }
    out.update(B.counter_metrics(B.first_stats(main)))
    out.update(serve)
    return {name: metric(out[name], LAYER_UNITS[name])
            for name in LAYER_UNITS}


LAYER_UNITS = {
    "workloads.make_ms": "ms", "sim.host_ns_per_winst": "ns",
    "sim.host_ns_per_cycle": "ns", "timing.base_host_ns_per_winst": "ns",
    "timing.rf_retries_per_kwinst": "count", "timing.divergent_pct": "%",
    "timing.executed_pct": "%", "reuse.host_cost_ratio": "ratio",
    "reuse.buffer_hit_ratio": "ratio", "reuse.vsb_share_ratio": "ratio",
    "reuse.verify_cache_hit_ratio": "ratio",
    "reuse.load_hit_ratio": "ratio", "reuse.lookups_per_winst": "ratio",
    "mem.detailed_cost_ratio": "ratio", "mem.l1_miss_ratio": "ratio",
    "mem.l2_miss_ratio": "ratio", "mem.dram_row_hit_ratio": "ratio",
    "mem.dram_per_kwinst": "count", "mem.noc_flits_per_kwinst": "count",
    "energy.compute_us": "us", "sweep.warm_hit_ratio": "ratio",
    "sweep.simulated": "count", "sweep.sandbox_overhead_ms": "ms",
    "serve.healthz_rtt_ms": "ms", "serve.miss_overhead_ms": "ms",
    "serve.shed": "count", "serve.failed": "count",
    "loadgen.lag_p99_ms": "ms", "trace.overhead_pct": "%",
}


def overhead_pct(traced, untraced):
    """Traced over untraced host time, each cell's fastest sample."""
    def total(samples):
        return sum(B.best_times(samples).values())
    return 100.0 * (total(traced) / total(untraced) - 1)


def traced_probes(exe, serve_exe, rundir, cells):
    """What every traced run adds to its workload: the membound kernels
    on both memory backends, the forked sandbox against in-process
    runs, and a small serve session over a sample of the workload's
    own cells (each once, then again after every first response is
    back). Returns twins, sandbox rows, serve layers, spans and
    problems."""
    golden = json.loads(GOLDEN.read_text())
    twins, spans, problems = {}, [], []
    for twin in ("fixed", "detailed"):
        path = rundir / f"twin-{twin}.spans"
        twins[twin], _ = driver(exe, "cells", twin,
                                B.grid_cells(B.MEMBOUND), "--jobs",
                                B.SERVE_JOBS, "--trace", "--spans", path)
        spans += read_spans(path, f"twin-{twin}")
        problems += B.check_samples(twins[twin], golden[twin])[1]
    sample = B.probe_cells(cells)
    sandbox, _ = driver(exe, "sandbox", "fixed", sample, "--dir",
                        rundir / "sandbox")
    problems += [f"{r['cell']}: sandboxed result differs from in-process"
                 for r in sandbox if not r["same"]]

    schedule = [(0.15 * i, c, True) for i, c in enumerate(sample)]
    schedule += [(3.0 + 0.05 * i, c, False) for i, c in enumerate(sample)]
    daemon = Daemon(serve_exe, rundir / "probe-daemon")
    try:
        records = loadgen(daemon, schedule)
        classify(records)
        stats = daemon.stats()
        healthz = daemon.healthz_rtt_ms()
    finally:
        rc = daemon.stop()
    if rc != 0:
        problems.append(f"probe wirsimd drain exited {rc}")
    problems += [f"probe request {r['cell']}: {r['resp']}" for r in records
                 if r["resp"] is None or r["resp"].get("status") != "ok"]
    inproc = {r["cell"]: r["inproc_ns"] / 1e6 for r in sandbox}
    serve = serve_layers(records, stats, inproc, healthz)
    return (twins, sandbox, serve, spans + request_spans(records, "probe"),
            problems)


# ----------------------------------------------------------- workloads

def run_grid(seed, seconds, trace, exe, serve_exe, rundir):
    """Rounds of whole passes over the grid until `seconds` have passed
    (at least two rounds). A traced run alternates untraced and traced
    rounds and ends on a traced one. A group of set-up probes runs
    before every round and after the last."""
    kernels = B.WORKLOADS["grid-fixed"]
    cells = B.grid_cells(kernels)
    golden = json.loads(GOLDEN.read_text())["fixed"]
    passes = Passes(exe, rundir, seed, cells, repeats=True)
    setups = []
    start = time.perf_counter()
    for rounds in itertools.count(1):
        setups += [setup_probe(exe, cells) for _ in range(SETUP_GROUP)]
        traced = bool(trace) and rounds % 2 == 0
        passes.round(traced)
        if rounds >= 2 and (traced or not trace) and \
                time.perf_counter() - start >= seconds:
            break
    setups += [setup_probe(exe, cells) for _ in range(SETUP_GROUP)]

    samples = passes.samples
    bad, problems = B.check_samples(samples, golden)
    good = [s for s in samples if s["id"] not in bad]
    run = {"attempted": len(samples), "failed": len(bad),
           "problems": problems,
           "details": {"cells": len(cells), "samples": len(samples),
                       "passes": passes.count}}
    if bad:
        return run, {}, []

    if not trace:
        # A cell run is a request here: makeWorkload plus runWorkload.
        # The first run of a cell in a pass is the miss, its repeat
        # straight after it the hit; each cell's latency is its fastest
        # over the passes.
        seen = set()
        for s in good:
            s["repeat"] = (s["pass"], s["cell"]) in seen
            seen.add((s["pass"], s["cell"]))

        def cell_ms(subset):
            return [ns / 1e6 for ns in B.best_times(subset).values()]
        latency = {"all": cell_ms(good),
                   "miss": cell_ms([s for s in good if not s["repeat"]]),
                   "hit": cell_ms([s for s in good if s["repeat"]])}
        metrics, details = end_to_end(setups, passes.rss_kb, good, kernels,
                                      latency, run["attempted"],
                                      run["failed"])
        run["details"].update(details)
        return run, metrics, []

    traced = [s for s in good if s["traced"]]
    overhead = overhead_pct(traced, [s for s in good if not s["traced"]])
    twins, sandbox, serve, spans, more = traced_probes(
        exe, serve_exe, rundir, cells)
    run["problems"] += more
    layers = layer_metrics(traced, twins, sandbox, serve, overhead)
    return run, layers, passes.spans + spans


def daemon_setups(serve_exe, rundir, count):
    """Set-up times of `count` daemons, each started and drained."""
    times = []
    for _ in range(count):
        daemon = Daemon(serve_exe, rundir / f"daemon{next(DAEMON_IDS)}")
        times.append(daemon.setup_s)
        daemon.stop()
    return times


def run_serve(seed, seconds, trace, exe, serve_exe, rundir):
    """The load session between rounds of timed in-process passes over
    the workload's Base and RLPV cells (two before it, two after): they
    give the simulator throughput and modelled metrics, spread over the
    whole run. Then the output check: every other distinct cell
    in-process, untimed."""
    kernels = B.WORKLOADS["serve-mixed"]
    schedule = B.make_schedule(seed, seconds, B.serve_cells())
    distinct = sorted({c for _, c, _ in schedule})
    golden = json.loads(GOLDEN.read_text())["fixed"]
    passes = Passes(exe, rundir, seed, B.grid_cells(kernels),
                    repeats=False)

    setups = []
    for _ in range(SERVE_ROUNDS // 2):
        setups += daemon_setups(serve_exe, rundir, SETUP_GROUP)
        passes.round()
    setups += daemon_setups(serve_exe, rundir, SETUP_GROUP - 1)
    daemon = Daemon(serve_exe, rundir / "daemon-load")
    setups.append(daemon.setup_s)
    problems = []
    try:
        records = loadgen(daemon, schedule)
        classify(records)
        stats = daemon.stats()
        rss = daemon.peak_rss_kb()
        healthz = daemon.healthz_rtt_ms() if trace else 0.0
    finally:
        rc = daemon.stop()
    if rc != 0:
        problems.append(f"wirsimd drain exited {rc}")
    for _ in range(SERVE_ROUNDS - SERVE_ROUNDS // 2):
        setups += daemon_setups(serve_exe, rundir, SETUP_GROUP)
        passes.round()

    rest = [c for c in distinct if c not in set(passes.cells)]
    checked, _ = driver(exe, "cells", "fixed", rest, "--jobs",
                        B.SERVE_JOBS, pass_=passes.count,
                        first_id=len(passes.samples)) if rest else ([], 0)
    verify = passes.samples + checked
    vbad, vproblems = B.check_samples(verify, golden)
    firsts = B.first_stats([s for s in verify if s["id"] not in vbad])
    bad, rproblems = check_responses(records, firsts)
    problems += vproblems + rproblems
    ok = [r for r in records if r["id"] not in bad]
    run = {"attempted": len(records), "failed": len(bad),
           "problems": problems,
           "details": {"requests": len(records),
                       "distinct_cells": len(distinct),
                       "passes": passes.count,
                       **{k: sum(r["kind"] == k for r in records)
                          for k in ("miss", "hit", "overlap")},
                       "lag_p99_ms": lag_p99_ms(records)}}
    if vbad or not ok:
        return run, {}, []

    if not trace:
        latency = {"all": [r["latency_ms"] for r in ok]}
        for kind in ("hit", "miss"):
            latency[kind] = [r["latency_ms"] for r in ok
                             if r["kind"] == kind]
        metrics, details = end_to_end(setups, rss, passes.samples, kernels,
                                      latency, run["attempted"],
                                      run["failed"], B.SERVE_TAIL_WINDOWS)
        run["details"].update(details)
        return run, metrics, []

    untraced = list(passes.samples)
    passes.round(traced=True)
    traced = passes.samples[len(untraced):]
    run["problems"] += B.check_samples(traced, golden)[1]
    overhead = overhead_pct(traced, untraced)
    twins, sandbox, _, spans, more = traced_probes(
        exe, serve_exe, rundir, distinct)
    run["problems"] += more
    inproc = {c: ns / 1e6 for c, ns in B.best_times(verify).items()}
    serve = serve_layers(records, stats, inproc, healthz)
    layers = layer_metrics(traced, twins, sandbox, serve, overhead)
    spans = passes.spans + request_spans(records, "req") + spans
    return run, layers, spans


# ---------------------------------------------------------------- main

def write_golden(exe):
    """Regenerate golden.json: every cell the workloads check, run
    in-process once. Only for a deliberate change of what the simulator
    computes."""
    golden = {}
    for backend, cells in (("fixed", B.grid_cells(B.KERNELS, B.DESIGNS)),
                           ("detailed", B.grid_cells(B.MEMBOUND))):
        samples, _ = driver(exe, "cells", backend, cells, "--jobs", 4)
        if any(s.get("failed") for s in samples):
            raise BenchError("a cell failed while writing the golden file")
        golden[backend] = {
            s["cell"]: B.fingerprint(s) for s in samples}
    GOLDEN.write_text("{\n" + ",\n".join(
        f' "{backend}": {{\n' + ",\n".join(
            f'  "{cell}": {json.dumps(row)}'
            for cell, row in sorted(rows.items())) + "\n }"
        for backend, rows in sorted(golden.items())) + "\n}\n")
    log(f"wrote {GOLDEN}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(B.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="regenerate golden.json and exit")
    args = parser.parse_args(argv)
    if not args.workload and not args.write_golden:
        parser.error("--workload is required")
    return args


def main(argv):
    args = parse_args(argv)
    try:
        exe, serve_exe = build()
    except (BenchError, subprocess.SubprocessError, OSError) as err:
        log(f"build failed: {err}")
        return 1
    if args.write_golden:
        write_golden(exe)
        return 0

    identity = host_identity()
    rundir = RUNS / f"run-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    try:
        if args.workload == "serve-mixed":
            run, metrics, spans = run_serve(args.seed, args.seconds,
                                            args.trace, exe, serve_exe,
                                            rundir)
        else:
            run, metrics, spans = run_grid(args.seed, args.seconds,
                                           args.trace, exe, serve_exe,
                                           rundir)
    except (BenchError, subprocess.SubprocessError, OSError, KeyError,
            ValueError) as err:
        log(f"{args.workload} failed: {err!r}")
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    span_file = None
    if spans:
        span_dir = RUNS / "spans"
        span_dir.mkdir(parents=True, exist_ok=True)
        span_file = span_dir / f"{args.workload}-seed{args.seed}.jsonl"
        span_file.write_text("".join(json.dumps(s) + "\n" for s in spans))
        self_ms = {k: v / 1e6 for k, v in B.self_times(spans).items()}
        run["details"]["self_ms"] = self_ms

    correct = run["failed"] == 0 and not run["problems"] and bool(metrics)
    for problem in run["problems"][:20]:
        log(problem)
    report = {"workload": args.workload, "seed": args.seed,
              "held_out_seed": HELD_OUT_SEED, "seconds": args.seconds,
              "trace": args.trace, "host": identity,
              "spans": str(span_file.relative_to(ROOT)) if span_file
              else None, **run["details"]}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
