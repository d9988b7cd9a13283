#!/usr/bin/env python3
"""End-to-end benchmark of migc: sim_grid, serve_mixed and fleet_sweep.

    python3 perfbench/run.py --workload sim_grid --seed 1 --seconds 30 --trace 0

Run from the repository root. The first run builds the repository's
migc_serve and migc_sweep, the in-process harness and a small launcher
(perfbench/harness/) into .bench_build/.
Each run measures one workload (--workload all: each in turn) for
--seconds, checks every output the workload produces, prints a metric
table (name, value, unit, sample count) and, as the last line of
stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones, a per-layer self-time table, trace.overhead, and
writes the run's spans to .bench_build/trace/. The exit status is 0
only when every output check passed. See perfbench/README.md.
"""

import argparse
import ctypes
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "perfbench")
RUNS = os.path.join(WORK, "runs")
TRACE_DIR = os.path.join(WORK, "trace")
HARNESS = os.path.join(BUILD, "perfbench_harness")
SPAWN = os.path.join(BUILD, "perfbench_spawn")
# The root project's own targets, built in its subdirectory.
MIGC_SERVE = os.path.join(BUILD, "migc", "migc_serve")
MIGC_SWEEP = os.path.join(BUILD, "migc", "migc_sweep")

# Pinned outputs: the eight sim_grid rows at the default seed, and the
# fleet's merged 162-row test-preset dynamic grid (seed-invariant;
# serve_mixed's cold points are checked against it too).
SIM_GRID_ROWS = os.path.join(HERE, "reference", "sim_grid_seed1.csv")
FLEET_ROWS = os.path.join(HERE, "reference", "fleet_dynamic_test.csv")

# The dynamic grid (18 workloads x 9 policies); the seed permutes the
# order these are passed to migc_sweep in.
FLEET_WORKLOADS = [
    "DGEMM", "SGEMM", "CM", "FwBN", "FwPool", "FwSoft", "BwSoft", "BwPool",
    "FwGRU", "FwLSTM", "FwBwGRU", "FwBwLSTM", "BwBN", "FwFc", "FwAct",
    "FwLRN", "BwAct", "Attn",
]
FLEET_POLICIES = [
    "Uncached", "CacheR", "CacheRW", "CacheRW-AB", "CacheRW-CR",
    "CacheRW-PCby", "CacheRW-DynAB", "CacheRW-Duel", "CacheRW-DynCR",
]
FLEET_WORKERS = 3

# Set-up repetitions per run; setup_s is their median.
SERVE_SETUPS = 7

# migc_serve and its load generator share this many CPUs. The two
# closed-loop connections then keep them busy, so a round trip does not
# wait for an idle virtual CPU to be woken, which on a shared VM costs
# from microseconds to milliseconds depending on the neighbours.
SERVE_CPUS = 2

# Programs a run starts; a live one left over from another run is a
# noisy neighbour, so none may be running when a run begins. /proc
# comm names are cut at 15 characters.
OWN_PROGRAMS = ("migc_serve", "migc_sweep", "perfbench_harne",
                "perfbench_spawn")

# Every layer the traced runs attribute self time to.
LAYERS = ["harness", "workloads", "core.system", "core.runner",
          "core.sweep_engine", "serve", "core.cache_snapshot",
          "core.cache_v4", "core.fleet"]

# Beyond --seconds, a workload gets this long for set-up, checks and
# teardown before the watchdog stops the run, whatever hangs.
RUN_SLACK_S = 140


class BenchError(Exception):
    """A run that could not produce a result."""


class Children:
    """Every process a run starts: each in its own process group, so a
    kill reaches the fleet's forked workers too. This process is made a
    child subreaper, so orphaned workers are reparented here and can be
    reaped before exit."""

    def __init__(self):
        self.live = {}
        try:
            libc = ctypes.CDLL(None, use_errno=True)
            libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
        except (OSError, AttributeError):
            pass

    def spawn(self, argv, cwd, **kw):
        proc = subprocess.Popen(argv, cwd=cwd, start_new_session=True, **kw)
        self.live[proc.pid] = proc
        return proc

    def wait(self, proc):
        """Reap @proc; returns its exit code (or -signal)."""
        _, status = os.waitpid(proc.pid, 0)
        self.live.pop(proc.pid, None)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode

    def died(self, proc):
        """True (and reaped) when @proc has exited."""
        pid, status = os.waitpid(proc.pid, os.WNOHANG)
        if pid == 0:
            return False
        self.live.pop(proc.pid, None)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return True

    def kill(self, proc):
        """SIGKILL @proc's group and reap @proc."""
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        return self.wait(proc)

    def stop_all(self):
        for proc in list(self.live.values()):
            try:
                self.kill(proc)
            except ChildProcessError:
                self.live.pop(proc.pid, None)
        # Reap reparented grandchildren; a killed group dies quickly.
        give_up = time.monotonic() + 10
        while time.monotonic() < give_up:
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return
            if pid == 0:
                time.sleep(0.01)


CHILDREN = Children()


def stray_programs():
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/comm") as f:
                comm = f.read().strip()
        except OSError:
            continue
        if comm in OWN_PROGRAMS:
            found.append(f"{comm} (pid {entry})")
    return found


def build():
    """Configure once, then bring the three binaries up to date."""
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(WORK, "build.log")
    with open(build_log, "w") as out:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", BUILD, *gen,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                      "migc_serve", "migc_sweep", "perfbench_harness",
                      "perfbench_spawn"])
        for argv in steps:
            proc = CHILDREN.spawn(argv, cwd=ROOT, stdout=out,
                                  stderr=subprocess.STDOUT)
            code = CHILDREN.wait(proc)
            if code != 0:
                with open(build_log) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError(f"build step failed: {' '.join(argv)}")


def run_harness(args, cwd):
    """Run the harness to completion; returns its result object."""
    out = os.path.join(cwd, f"result-{args[0]}.json")
    proc = CHILDREN.spawn([HARNESS, *args, "--out", out], cwd=cwd)
    code = CHILDREN.wait(proc)
    if code != 0:
        raise BenchError(f"harness {args[0]} exited with {code}")
    with open(out) as f:
        return json.load(f)


class Report:
    """Metrics (value, unit, samples), attempts and failed checks."""

    def __init__(self):
        self.metrics = {}
        self.attempted = 0
        self.failures = []
        self.failed = 0
        self.spans = []  # (name, start_ns, end_ns, parent, request)

    def set(self, name, value, unit, samples):
        self.metrics[name] = {"value": value, "unit": unit,
                              "samples": samples}

    def fail(self, why):
        self.failed += 1
        self.failures.append(why)

    def absorb(self, result):
        """Fold a harness result file in."""
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.failures += result["failures"]
        self.metrics.update(result["metrics"])

    def add_span_file(self, path):
        base = len(self.spans)
        with open(path) as f:
            next(f)
            for line in f:
                _, parent, request, name, start, end = line.split(",")
                parent = int(parent)
                self.spans.append((name, int(start), int(end),
                                   parent + base if parent >= 0 else -1,
                                   int(request)))


# ----------------------------------------------------------------------
# sim_grid
# ----------------------------------------------------------------------

def sim_grid(seed, seconds, trace, tmp, report):
    args = ["sim_grid", "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0", "--workdir", tmp,
            "--reference", SIM_GRID_ROWS]
    spans = os.path.join(tmp, "spans.csv")
    if trace:
        args += ["--spans", spans]
    result = run_harness(args, tmp)
    report.absorb(result)
    if trace:
        report.add_span_file(spans)


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------

def first_reply(proc, sock_name, spawned):
    """Seconds from spawn to the first reply, and that `stats` reply."""
    give_up = spawned + 30
    while True:
        if CHILDREN.died(proc):
            raise BenchError(f"migc_serve exited with {proc.returncode}")
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            s.connect(sock_name)
            s.sendall(b"stats\n")
            reply = b""
            while not reply.endswith(b"\n"):
                chunk = s.recv(4096)
                if not chunk:
                    break
                reply += chunk
            if reply.endswith(b"\n"):
                return time.monotonic() - spawned, reply.decode()
        except (FileNotFoundError, ConnectionRefusedError):
            pass
        finally:
            s.close()
        if time.monotonic() > give_up:
            raise BenchError("migc_serve did not answer within 30 s")
        time.sleep(0.0005)


def peak_rss_mib(pid):
    """Peak resident set (VmHWM) of live process @pid's own address
    space. Not the rusage of its wait: a child's ru_maxrss keeps, across
    exec, the peak of the process it was forked from, this runner."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM in /proc/{pid}/status")


def stats_field(reply, key):
    for token in reply.split():
        if token.startswith(key + "="):
            return float(token.split("=", 1)[1])
    raise BenchError(f"no {key} in stats reply: {reply!r}")


def serve_mixed(seed, seconds, trace, tmp, report):
    # Every process this workload starts inherits the runner's affinity.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[:SERVE_CPUS])
    try:
        serve_pinned(seed, seconds, trace, tmp, report)
    finally:
        os.sched_setaffinity(0, cpus)


def serve_pinned(seed, seconds, trace, tmp, report):
    cache = "serve.v4"
    run_harness(["serve_gen", "--seed", str(seed), "--cache", cache], tmp)
    if trace:
        spans = os.path.join(tmp, "inproc-spans.csv")
        report.absorb(run_harness(
            ["serve_inproc", "--seed", str(seed), "--cache", cache,
             "--spans", spans], tmp))
        report.add_span_file(spans)

    # spawn -> first reply, several times. The last server stays up
    # and takes the load; the others only ever answered `stats`, so
    # none of them wrote to the cache.
    setup_s, load_ms = [], []
    server_log = open(os.path.join(tmp, "serve.err"), "w")
    for i in range(SERVE_SETUPS):
        sock = f"srv{i}.sock"
        spawned = time.monotonic()
        server = CHILDREN.spawn(
            [MIGC_SERVE, "--cache", cache, "--socket", "unix:" + sock],
            cwd=tmp, stdout=subprocess.DEVNULL, stderr=server_log)
        # Relative, because AF_UNIX paths are limited to 107 bytes.
        secs, stats = first_reply(server,
                                  os.path.relpath(os.path.join(tmp, sock)),
                                  spawned)
        setup_s.append(secs)
        load_ms.append(stats_field(stats, "load_ms"))
        if i + 1 < SERVE_SETUPS:
            CHILDREN.kill(server)

    args = ["serve_load", "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0", "--socket", sock,
            "--cold-rows", FLEET_ROWS]
    spans = os.path.join(tmp, "load-spans.csv")
    if trace:
        args += ["--spans", spans]
    report.absorb(run_harness(args, tmp))
    if trace:
        report.add_span_file(spans)
    if CHILDREN.died(server):
        report.fail(f"migc_serve exited with {server.returncode} under load")
        peak_rss = None
    else:
        peak_rss = peak_rss_mib(server.pid)
        CHILDREN.kill(server)
    server_log.close()

    report.set("setup_s", statistics.median(setup_s), "s", len(setup_s))
    report.set("serve.load_ms", statistics.median(load_ms), "ms",
               len(load_ms))
    if peak_rss is not None:
        report.set("peak_rss_mb", peak_rss, "MiB", 1)
    m = report.metrics
    if "serve.handle_us.get.p50" in m and "serve.rtt_us.get.p50" in m:
        report.set("serve.transport_us",
                   m["serve.rtt_us.get.p50"]["value"] -
                   m["serve.handle_us.get.p50"]["value"], "us",
                   m["serve.rtt_us.get.p50"]["samples"])


# ----------------------------------------------------------------------
# fleet_sweep
# ----------------------------------------------------------------------

def parse_worker_line(line):
    """'fleet worker 0: 57 runs, 30 leases (2 stolen, 0 expired,
    0 stale), 6.1s wall' -> dict."""
    words = line.replace("(", " ").replace(")", " ").replace(",", " ").split()
    return {"leases": int(words[5]), "steals": int(words[7]),
            "expired": int(words[9]), "stale": int(words[11]),
            "wall_s": float(words[13].rstrip("s"))}


def fleet_once(workloads, policies, sweep_dir, traced, report):
    """One cold fleet sweep; returns its measurements."""
    os.makedirs(sweep_dir)
    argv = [MIGC_SWEEP, "--config", "test", "--grid", "dynamic",
            "--shards", str(FLEET_WORKERS), "--jobs", "1", "--push",
            "--workloads", ",".join(workloads),
            "--policies", ",".join(policies), "--cache", "c.v4"]
    # Line-buffered stdout, so each summary line is timestamped when
    # the coordinator prints it rather than when it exits.
    if shutil.which("stdbuf"):
        argv = ["stdbuf", "-oL", *argv]
    # The launcher reports the peak RSS and CPU time of the coordinator
    # and the workers it reaps (see perfbench/harness/spawn.cc).
    usage_file = os.path.join(sweep_dir, "rusage")
    argv = [SPAWN, usage_file, *argv]
    err = open(os.path.join(sweep_dir, "fleet.err"), "w")
    spawned = time.monotonic_ns()
    proc = CHILDREN.spawn(argv, cwd=sweep_dir, stdout=subprocess.PIPE,
                          stderr=err)
    plan_ns = summary_ns = merged_ns = None
    workers = []
    for raw in proc.stdout:
        now = time.monotonic_ns()
        line = raw.decode(errors="replace")
        if "fleet plan:" in line and plan_ns is None:
            plan_ns = now
        elif line.startswith("fleet worker "):
            summary_ns = summary_ns or now
            workers.append(parse_worker_line(line))
        elif line.startswith("merged "):
            merged_ns = now
    code = CHILDREN.wait(proc)
    exited = time.monotonic_ns()
    proc.stdout.close()
    err.close()
    if code != 0 or plan_ns is None or merged_ns is None:
        raise BenchError(f"fleet sweep exited with {code} "
                         f"(see {sweep_dir}/fleet.err)")
    with open(usage_file) as f:
        maxrss_kib, utime, stime = f.read().split()
    if len(workers) != FLEET_WORKERS:
        report.fail(f"fleet summary lists {len(workers)} workers")

    # Output check: the merged cache, exported as v3 CSV, must be the
    # pinned 162 rows, and no shard file may survive the merge.
    export = CHILDREN.spawn(
        [MIGC_SWEEP, "--config", "test", "--cache", "c.v4", "--export",
         "merged.csv", "--cache-format", "csv"],
        cwd=sweep_dir, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    if CHILDREN.wait(export) != 0:
        report.fail("fleet export failed")
    report.attempted += len(workloads) * len(policies)
    with open(FLEET_ROWS, "rb") as f:
        want = f.read()
    got = b""
    if os.path.exists(os.path.join(sweep_dir, "merged.csv")):
        with open(os.path.join(sweep_dir, "merged.csv"), "rb") as f:
            got = f.read()
    if got != want:
        report.fail("fleet merged rows differ from the pinned reference")
    leftovers = [n for n in os.listdir(sweep_dir) if ".shard" in n]
    if leftovers:
        report.fail(f"fleet left shard files behind: {leftovers}")

    wall = (exited - spawned) * 1e-9
    if traced:
        # The sweep's spans share its root's index as request id.
        root = len(report.spans)
        lease_end = summary_ns or merged_ns
        report.spans += [
            ("harness.sweep", spawned, exited, -1, root),
            ("core.fleet.plan", spawned, plan_ns, root, root),
            ("core.fleet.lease", plan_ns, lease_end, root, root),
            ("core.fleet.merge", lease_end, merged_ns, root, root),
        ]
    cpu = float(utime) + float(stime)
    walls = [w["wall_s"] for w in workers] or [0.0]
    return {
        "wall": wall,
        "setup": (plan_ns - spawned) * 1e-9,
        "rss": int(maxrss_kib) / 1024.0,
        "cpu": cpu,
        "busy": cpu / (FLEET_WORKERS * wall),
        "leases": sum(w["leases"] for w in workers),
        "steals": sum(w["steals"] for w in workers),
        "expired": sum(w["expired"] for w in workers),
        "stale": sum(w["stale"] for w in workers),
        "worker_max": max(walls),
        "worker_min": min(walls),
        "tail": wall - max(walls),
        "traced": traced,
    }


def fleet_sweep(seed, seconds, trace, tmp, report):
    rng = random.Random(seed)
    workloads = FLEET_WORKLOADS[:]
    policies = FLEET_POLICIES[:]
    rng.shuffle(workloads)
    rng.shuffle(policies)
    sweeps = []
    deadline = time.monotonic() + seconds
    # A sweep that starts before the deadline completes; at least three
    # are measured however long a sweep takes.
    while len(sweeps) < 3 or time.monotonic() < deadline:
        traced = trace and len(sweeps) % 2 == 0
        sweeps.append(fleet_once(workloads, policies,
                                 os.path.join(tmp, f"sweep{len(sweeps)}"),
                                 traced, report))

    def med(key, subset=sweeps):
        return statistics.median(s[key] for s in subset)

    n = len(sweeps)
    # A fleet_sweep request is a whole sweep, so p50_ms is wall_s in ms.
    report.set("wall_s", med("wall"), "s", n)
    report.set("p50_ms", med("wall") * 1e3, "ms", n)
    # ...and its replies are the sweep's keys.
    report.set("qps", len(workloads) * len(policies) / med("wall"), "1/s", n)
    report.set("setup_s", med("setup"), "s", n)
    report.set("peak_rss_mb", med("rss"), "MiB", n)
    for key in ("leases", "steals", "expired", "stale"):
        report.set(f"core.fleet.{key}", med(key), "count", n)
    report.set("core.fleet.worker_wall_s.max", med("worker_max"), "s", n)
    report.set("core.fleet.worker_wall_s.min", med("worker_min"), "s", n)
    report.set("core.fleet.tail_s", med("tail"), "s", n)
    report.set("core.fleet.cpu_s", med("cpu"), "s", n)
    report.set("core.fleet.busy_share", med("busy"), "share", n)
    if trace:
        traced = [s for s in sweeps if s["traced"]]
        untraced = [s for s in sweeps if not s["traced"]]
        report.set("trace.overhead",
                   (med("wall", traced) - med("wall", untraced)) * 1e3,
                   "ms", n)


WORKLOADS = {
    "sim_grid": sim_grid,
    "serve_mixed": serve_mixed,
    "fleet_sweep": fleet_sweep,
}


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------

def self_time_table(report):
    """Self time per layer: each span's duration minus what its
    children cover, summed by layer (the span name up to its last
    dot). Shares are of the total root-span time."""
    covered = [0] * len(report.spans)
    for name, start, end, parent, _ in report.spans:
        if parent >= 0:
            covered[parent] += end - start
    self_ns = {layer: 0 for layer in LAYERS}
    root_ns = 0
    for i, (name, start, end, parent, _) in enumerate(report.spans):
        if parent < 0:
            root_ns += end - start
        layer = name.rsplit(".", 1)[0]
        self_ns[layer] = self_ns.get(layer, 0) + (end - start - covered[i])
    return self_ns, root_ns


def write_trace(report, workload):
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"{workload}.spans.csv")
    with open(path, "w") as f:
        f.write("id,parent,request,name,start_ns,end_ns\n")
        for i, (name, start, end, parent, req) in enumerate(report.spans):
            f.write(f"{i},{parent},{req},{name},{start},{end}\n")
    return path


def emit(report, workload, seed, trace, spec):
    declared = spec["per_layer" if trace else "end_to_end"]
    if trace:
        self_ns, root_ns = self_time_table(report)
        print(f"per-layer self time ({len(report.spans)} spans, "
              f"{root_ns * 1e-9:.3f} s traced):")
        for layer in LAYERS:
            share = self_ns[layer] / root_ns if root_ns else 0.0
            report.set(f"trace.self_share.{layer}", share, "share",
                       len(report.spans))
            print(f"  {layer:<22} {self_ns[layer] * 1e-6:12.3f} ms "
                  f"{share * 100:7.2f} %")
        print(f"spans written to {write_trace(report, workload)}")

    print(f"{workload} seed={seed} trace={int(trace)}:")
    metrics = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        got = report.metrics.get(name)
        # A layer this workload never calls reports 0 with 0 samples.
        value = got["value"] if got else 0.0
        samples = got["samples"] if got else 0
        if got and got["unit"] != unit:
            raise BenchError(f"{name}: unit {got['unit']} != {unit}")
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<46} {value:16.6f} {unit:<6} n={samples}")
    # What the run measured beyond this mode's list (in an untraced
    # serve_mixed run: the unbounded serve.rtt_us.p99 among others).
    for name, got in sorted(report.metrics.items()):
        if name not in metrics:
            print(f"  ({name:<44} {got['value']:16.6f} {got['unit']:<6} "
                  f"n={got['samples']})")
    attempted = max(report.attempted, 1)
    print(f"  {'fail_ratio':<46} {report.failed / attempted:16.6f} "
          f"{'':<6} ({report.failed} of {attempted} operations)")
    for why in report.failures[:20]:
        print(f"  FAILED: {why}")
    correct = report.failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": report.failed, "metrics": metrics}))
    return correct


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    def on_signal(signum, _frame):
        raise BenchError(f"stopped by signal {signum}")

    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP,
                signal.SIGALRM):
        signal.signal(sig, on_signal)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    tmp = None
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        strays = stray_programs()
        if strays:
            raise BenchError("refusing to start while these run: " +
                             ", ".join(strays))
        build()
        signal.alarm((args.seconds + RUN_SLACK_S) * len(names))
        correct = True
        for name in names:
            # Fresh inputs in a private directory every run: serve's
            # misses append to its cache, and a reused cache would turn
            # later runs warm.
            tmp = os.path.join(RUNS, f"{name}-{os.getpid()}")
            shutil.rmtree(tmp, ignore_errors=True)
            os.makedirs(tmp)
            report = Report()
            WORKLOADS[name](args.seed, args.seconds, bool(args.trace), tmp,
                            report)
            correct &= emit(report, name, args.seed, bool(args.trace), spec)
            shutil.rmtree(tmp, ignore_errors=True)
        return 0 if correct else 1
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        CHILDREN.stop_all()
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
