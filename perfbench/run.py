#!/usr/bin/env python3
"""parcl benchmark: end-to-end CLI workloads and a traced per-layer replay.

Run from the repository root:

    python3 perfbench/run.py --workload launch_storm --seed 1 --seconds 10 --trace 0

--trace 0 drives the real `parcl` binary and prints the end-to-end metrics;
--trace 1 replays the same workload in process through the tracing
decorators (perfbench/tool) and prints the per-layer metrics. Every input
is generated from --seed; parcl sees only the generated files and streams.
The last stdout line is one JSON object: correct, attempted, failed,
metrics. Any output mismatch makes the command exit 1. See
perfbench/README.md for what each workload and metric is for.
"""

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
NPROC = len(os.sched_getaffinity(0))

WORKLOADS = ("launch_storm", "pipe_stream", "service_mix", "pilot_fanout")

END_TO_END = {
    "jobs_per_s": "jobs/s",
    "mb_per_s": "MB/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "cpu_ms_per_job": "ms",
    "peak_rss_kb": "KiB",
    "setup_s": "s",
}

PER_LAYER = {
    "core.source.pull_us_per_job": "us",
    "core.source.pulls": "count",
    "core.engine.self_us_per_job": "us",
    "core.engine.inflight_mean": "jobs",
    "core.engine.joblog_bytes_per_job": "bytes",
    "core.output.bytes": "bytes",
    "core.output.write_calls": "count",
    "exec.local.spawn_us_p50": "us",
    "exec.local.spawn_us_p99": "us",
    "exec.local.spawn_failed": "count",
    "exec.local.wait_us_per_job": "us",
    "exec.local.empty_waits_frac": "ratio",
    "exec.local.child_us_p50": "us",
    "exec.local.child_us_p99": "us",
    "exec.local.notify_us_p50": "us",
    "exec.local.notify_us_p99": "us",
    "exec.local.out_bytes_per_job": "bytes",
    "exec.local.child_cpu_ms_per_job": "ms",
    "exec.local.dispatcher_threads": "count",
    "exec.pilot.start_us_per_job": "us",
    "exec.pilot.wait_us_per_job": "us",
    "exec.pilot.roundtrip_us_p50": "us",
    "exec.pilot.roundtrip_us_p99": "us",
    "exec.transport.encode_ns_per_frame": "ns",
    "exec.transport.decode_ns_per_frame": "ns",
    "exec.transport.wire_bytes_per_job": "bytes",
    "core.server.submit_us_p50": "us",
    "core.server.submit_us_p99": "us",
    "core.server.step_self_us_per_job": "us",
    "core.server.queue_wait_ms_p50": "ms",
    "core.server.queue_wait_ms_p99": "ms",
    "core.server.replay_s": "s",
    "core.server.journal_bytes_per_job": "bytes",
    "core.server.ledger_bytes_per_job": "bytes",
    "core.server.rejects_frac": "ratio",
    "loadgen.lag_p99_ms": "ms",
    "trace.overhead_frac": "ratio",
}

# Workload sizes. Slots are a multiple of nproc so the default
# --dispatchers auto mode shards launch_storm (it engages at -j >= 32).
SLOTS = 8 * NPROC
PILOT_SLOTS_PER_AGENT = 2 * NPROC
BATCH_JOBS = 3000            # launch_storm / pilot_fanout jobs per parcl run
PIPE_BYTES = 32 << 20        # pipe_stream stdin per parcl run
PIPE_BLOCK = "128k"          # -> about 256 blocks per run
MIN_BATCHES = 3
QUIET_WAIT_S = 5             # longest wait for a quiet host before measuring
QUIET_STEAL = 0.02           # steal share of a second that counts as quiet
RUN_TIMEOUT = 60             # seconds before a hung parcl or tool run is killed
SETUP_REPEATS = 2            # one-job runs per batch, timed for setup_s


class GateFailure(Exception):
    """An output did not match what the seeded inputs require."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Build and provenance
# --------------------------------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: parcl sources (src/) not found next to perfbench/")
        sys.exit(2)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as out:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "parcl", "perfbench",
                      "-j", str(NPROC)])
        for step in steps:
            if subprocess.call(step, stdout=out, stderr=subprocess.STDOUT) != 0:
                log(open(log_path).read()[-4000:])
                log("perfbench: build failed")
                sys.exit(2)
    return os.path.join(BUILD, "parcl", "core", "parcl"), os.path.join(BUILD, "perfbench")


def provenance():
    def cache(key):
        try:
            for line in open(os.path.join(BUILD, "CMakeCache.txt")):
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
        except OSError:
            pass
        return ""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    # A checkout without .git still gets a content identity.
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    compiler = cache("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                                 timeout=10).stdout.splitlines()[0]
    except (OSError, subprocess.SubprocessError, IndexError):
        version = compiler
    return {"git_sha": sha or "none", "source_sha1": digest.hexdigest(), "nproc": NPROC,
            "kernel": platform.release(), "compiler": version,
            "build_type": cache("CMAKE_BUILD_TYPE")}


# --------------------------------------------------------------------------
# Seeded inputs
# --------------------------------------------------------------------------

ALNUM = b"abcdefghijklmnopqrstuvwxyz0123456789"


def gen_values(rng, count):
    """Job values for /bin/echo: a letter, then 0-23 letters/digits."""
    values = []
    for _ in range(count):
        n = rng.randint(0, 23)
        values.append(rng.choice("abcdefghijklmnopqrstuvwxyz") +
                      "".join(rng.choices("abcdefghijklmnopqrstuvwxyz0123456789", k=n)))
    return values


def gen_pipe_input(rng, total):
    """Record-aligned lines of 1..400 bytes (newline included), `total` bytes."""
    table = bytes(ALNUM[b % len(ALNUM)] for b in range(256))
    pool = rng.randbytes(total).translate(table)
    out = bytearray()
    pos = 0
    while pos < total:
        n = min(rng.randint(1, 400), total - pos)
        out += pool[pos:pos + n - 1]
        out += b"\n"
        pos += n
    return bytes(out)


# --------------------------------------------------------------------------
# Untraced CLI runs
# --------------------------------------------------------------------------

def proc_cpu(pid):
    """(own utime+stime, children's cutime+cstime) of a live or zombie pid, s."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    tick = os.sysconf("SC_CLK_TCK")
    return ((int(fields[11]) + int(fields[12])) / tick,
            (int(fields[13]) + int(fields[14])) / tick)


def cpu_times():
    """The machine's CPU tick counters from /proc/stat (index 7 is steal)."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:9]]


def steal_share(before, after):
    """Share of the machine's CPU time between two cpu_times() samples that
    the hypervisor gave to other guests."""
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total else 0.0


def wait_for_quiet():
    """On a shared host, steal comes in phases that slow every timing by up
    to a third. Waits (at most QUIET_WAIT_S) for a second with steal below
    QUIET_STEAL before measuring; returns the seconds waited. Steal only
    shows while the machine wants CPU (an idle probe reads 0 in any phase),
    so every CPU spins in a child process while the probe runs."""
    start = time.perf_counter()
    spinners = []
    try:
        for _ in range(NPROC):
            pid = os.fork()
            if pid == 0:
                deadline = time.perf_counter() + QUIET_WAIT_S + 1.0
                while time.perf_counter() < deadline:
                    pass
                os._exit(0)
            spinners.append(pid)
        while time.perf_counter() - start < QUIET_WAIT_S:
            before = cpu_times()
            time.sleep(1.0)
            if steal_share(before, cpu_times()) < QUIET_STEAL:
                break
    finally:
        for pid in spinners:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return time.perf_counter() - start


def run_cli(argv, stdin_path, work, ends=()):
    """One parcl run: spawn -> exit. Returns timings, output digest, the
    process's own CPU read from its zombie before it is reaped, and each
    job's completion time: when stdout reached the job's output end offset
    (`ends`, ascending; -k emits in seq order)."""
    stdin = open(stdin_path, "rb") if stdin_path else subprocess.DEVNULL
    errors = open(os.path.join(work, "parcl.stderr"), "ab")
    t0 = time.perf_counter()
    # Its own process group, so a hung run is stopped with everything it
    # started (pilot agents, jobs); the watchdog turns a hang into a failure.
    proc = subprocess.Popen(argv, stdin=stdin, stdout=subprocess.PIPE, stderr=errors,
                            start_new_session=True)
    watchdog = threading.Timer(RUN_TIMEOUT, kill_group, (proc.pid,))
    watchdog.start()
    try:
        return collect(proc, t0, ends)
    finally:
        watchdog.cancel()
        if proc.returncode is None:
            kill_group(proc.pid)
            proc.wait()
        proc.stdout.close()
        errors.close()
        if stdin is not subprocess.DEVNULL:
            stdin.close()


def kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def collect(proc, t0, ends):
    first = None
    digest = hashlib.sha1()
    nbytes = 0
    done = []
    fd = proc.stdout.fileno()
    while True:
        chunk = os.read(fd, 1 << 20)
        if not chunk:
            break
        arrived = time.perf_counter() - t0
        if first is None:
            first = arrived
        digest.update(chunk)
        nbytes += len(chunk)
        while len(done) < len(ends) and ends[len(done)] <= nbytes:
            done.append(arrived)
    # WNOWAIT leaves the zombie in place, so /proc still has its own CPU;
    # wait4's rusage would fold in the children's.
    os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
    wall = time.perf_counter() - t0
    own_cpu, child_cpu = proc_cpu(proc.pid)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "first": first if first is not None else wall, "digest": digest.hexdigest(),
            "bytes": nbytes, "done": done, "cpu": own_cpu, "child_cpu": child_cpu,
            "maxrss_kb": usage.ru_maxrss, "code": proc.returncode}


def check_joblog(path, jobs):
    """Exactly one exit-0 row per seq 1..jobs. Returns the failed count."""
    seen = {}
    with open(path) as f:
        next(f, None)
        for line in f:
            fields = line.rstrip("\n").split("\t")
            if len(fields) < 8:
                continue
            seen.setdefault(fields[0], []).append((fields[6], fields[7]))
    bad = 0
    for seq in range(1, jobs + 1):
        rows = seen.pop(str(seq), [])
        if rows != [("0", "0")]:
            bad += 1
    return bad + len(seen)


class Case:
    """One local workload: its parcl command line and output gates."""

    def __init__(self, name, parcl, work, rng):
        self.name = name
        self.work = work
        self.joblog = os.path.join(work, "run.joblog")
        if name == "pipe_stream":
            data = gen_pipe_input(rng, PIPE_BYTES)
            self.stdin = os.path.join(work, "pipe.in")
            write_input(self.stdin, data)
            self.expect = hashlib.sha1(data).hexdigest()
            self.args = [f"-j{NPROC}", "--pipe", "-k", "--block", PIPE_BLOCK, "cat"]
            self.ends = block_ends(data, parse_size(PIPE_BLOCK))
            self.jobs = len(self.ends)
            self.in_bytes = len(data)
            first = data[:data.index(b"\n") + 1]
            self.one_stdin = os.path.join(work, "pipe1.in")
            write_input(self.one_stdin, first)
            self.one_args = self.args
        else:
            values = gen_values(rng, BATCH_JOBS)
            self.stdin = None
            path = os.path.join(work, "values")
            text = "".join(v + "\n" for v in values).encode()
            write_input(path, text)
            self.expect = hashlib.sha1(text).hexdigest()
            hosts = ([] if name == "launch_storm" else
                     ["--pilot", "-S", f"{PILOT_SLOTS_PER_AGENT}/:,{PILOT_SLOTS_PER_AGENT}/:"])
            slots = [f"-j{SLOTS}"] if name == "launch_storm" else []
            self.args = slots + hosts + ["-k", "--joblog", self.joblog, "/bin/echo {}",
                                         "::::", path]
            self.jobs = BATCH_JOBS
            self.in_bytes = 0
            self.ends = list(itertools.accumulate(len(v) + 1 for v in values))
            first = (values[0] + "\n").encode()
            self.one_stdin = None
            write_input(path + "1", first)
            self.one_args = self.args[:-1] + [path + "1"]
        self.one_expect = hashlib.sha1(first).hexdigest()
        self.parcl = parcl

    def gate(self, digest, joblog_failures, code):
        """Failed jobs in one run (all of them when the output is wrong)."""
        if code != 0 or digest != self.expect:
            return self.jobs
        return min(self.jobs, joblog_failures)


def block_ends(data, block):
    """End offsets of the blocks parcl --pipe cuts `data` into: at the last
    newline within each `block` bytes (core/pipe.cpp), the tail last."""
    ends = []
    pos = 0
    while len(data) - pos >= block:
        cut = data.rfind(b"\n", pos, pos + block)
        if cut < 0:
            cut = data.find(b"\n", pos + block)
        pos = cut + 1
        ends.append(pos)
    if pos < len(data):
        ends.append(len(data))
    return ends


def parse_size(text):
    scale = {"k": 1 << 10, "m": 1 << 20}.get(text[-1].lower(), 1)
    return int(text[:-1] if scale > 1 else text) * scale


def write_input(path, data):
    """Writes an input file and flushes it to disk, so its writeback does not
    compete with the timed runs."""
    with open(path, "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())


def batch(case):
    if os.path.exists(case.joblog):
        os.unlink(case.joblog)
    before = cpu_times()
    r = run_cli([case.parcl] + case.args, case.stdin, case.work, case.ends)
    r["steal"] = steal_share(before, cpu_times())
    r["jobs"] = case.jobs
    if case.name == "pipe_stream":
        r["failed"] = case.gate(r["digest"], 0, r["code"])
    else:
        r["failed"] = case.gate(r["digest"], check_joblog(case.joblog, case.jobs), r["code"])
    return r


def setup_run(case):
    """The workload's command line on one job: spawn -> its output."""
    r = run_cli([case.parcl] + case.one_args, case.one_stdin, case.work)
    r["failed"] = 0 if r["code"] == 0 and r["digest"] == case.one_expect else 1
    return r


def percentile(ascending, q):
    return ascending[min(len(ascending) - 1, int(q * len(ascending)))]


def local_e2e(case, seconds):
    """Repeats the batch (and one-job set-up runs) until `seconds` pass.
    Each metric is the median over the half of the batches that lost the
    least CPU to the hypervisor (steal), so a burst of host contention
    does not set the run's figure."""
    warmup = batch(case)  # fills the page cache and the binary's lazy set-up
    start = time.perf_counter()
    runs, setups = [], []
    while len(runs) < MIN_BATCHES or time.perf_counter() - start < seconds:
        runs.append(batch(case))
        setups += [setup_run(case) for _ in range(SETUP_REPEATS)]
    timed = sorted(runs, key=lambda r: r["steal"])[:max(MIN_BATCHES, (len(runs) + 1) // 2)]
    runs.append(warmup)  # counted for correctness, not timed
    attempted = sum(r["jobs"] for r in runs) + len(setups)
    failed = sum(r["failed"] for r in runs) + sum(r["failed"] for r in setups)
    moved = (lambda r: case.in_bytes) if case.name == "pipe_stream" else (lambda r: r["bytes"])
    med = statistics.median
    metrics = {
        "jobs_per_s": med(r["jobs"] / r["wall"] for r in timed),
        "mb_per_s": med(moved(r) / 1e6 / r["wall"] for r in timed),
        "latency_p50_ms": med(percentile(r["done"], 0.50) * 1e3 for r in timed),
        "latency_p99_ms": med(percentile(r["done"], 0.99) * 1e3 for r in timed),
        # Summed: one batch's CPU is only 5-100 clock ticks.
        "cpu_ms_per_job": sum(r["cpu"] for r in timed) * 1e3 / sum(r["jobs"] for r in timed),
        "peak_rss_kb": med(r["maxrss_kb"] for r in timed),
        "setup_s": med(r["first"] for r in setups),
    }
    extra = {"runs": len(runs) - 1, "runs_timed": len(timed),
             "timed_steal_max": max(r["steal"] for r in timed),
             "latency_samples_per_run": case.jobs,
             "child_cpu_ms_per_job": med(r["child_cpu"] * 1e3 / r["jobs"] for r in timed)}
    return metrics, attempted, failed, extra


def local_traced(case, tool, seconds):
    """Alternates untraced CLI runs with traced in-process replays; per-layer
    metrics are medians over the traced replays."""
    start = time.perf_counter()
    traced, plain = [], []
    attempted = failed = 0
    out_path = os.path.join(case.work, "traced.out")
    while len(traced) < MIN_BATCHES or time.perf_counter() - start < seconds:
        r = batch(case)
        plain.append(r)
        attempted += r["jobs"]
        failed += r["failed"]
        if os.path.exists(case.joblog):
            os.unlink(case.joblog)
        cmd = [tool, "trace", "--parcl", case.parcl, "--out", out_path]
        if case.stdin:
            cmd += ["--stdin", case.stdin]
        m = run_tool(cmd + ["--"] + case.args)
        with open(out_path, "rb") as f:
            digest = hashlib.sha1(f.read()).hexdigest()
        jobs = int(m["jobs"])
        attempted += case.jobs
        code = int(m["failed"]) + abs(jobs - case.jobs)
        if case.name == "pipe_stream":
            failed += case.gate(digest, 0, code)
        else:
            failed += case.gate(digest, check_joblog(case.joblog, case.jobs), code)
        m["rate"] = (case.in_bytes if case.name == "pipe_stream" else jobs) / m["wall_s"]
        traced.append(m)
    plain_rate = statistics.median(
        (case.in_bytes if case.name == "pipe_stream" else r["jobs"]) / r["wall"] for r in plain)
    metrics = {name: statistics.median(m[name] for m in traced) for name in PER_LAYER}
    metrics["trace.overhead_frac"] = 1.0 - statistics.median(m["rate"] for m in traced) / plain_rate
    return metrics, attempted, failed


# --------------------------------------------------------------------------
# service_mix
# --------------------------------------------------------------------------

def service_args(tool, parcl, work, seed, seconds, traced):
    """The service_mix tool's command line. The workload's shape is fixed in
    tool/service.cpp; only the seed and the run length vary."""
    history = os.path.join(work, "history")
    if not os.path.isdir(history):
        run_tool([tool, "history", "--dir", history, "--seed", str(seed)])
    cmd = [tool, "service", "--parcl", parcl, "--history", history, "--work", work,
           "--seed", str(seed), "--seconds", f"{seconds:.3f}"]
    return cmd + (["--traced"] if traced else [])


def run_tool(cmd):
    """Runs one of the native tools in its own process group and returns its
    JSON line. On a timeout the whole group goes, parcl servers included."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        proc.communicate()
        raise GateFailure(f"perfbench {cmd[1]} timed out")
    if proc.returncode != 0:
        raise GateFailure(f"perfbench {cmd[1]} failed: {err.strip()}")
    return json.loads(out.strip().splitlines()[-1])


def service_e2e(tool, parcl, work, seed, seconds):
    m = run_tool(service_args(tool, parcl, work, seed, seconds, False))
    metrics = {name: m[name] for name in END_TO_END}
    extra = {"latency_samples": m["latency_samples"], "loadgen.lag_p99_ms": m["lag_p99_ms"],
             "failed_frac": m["failed_frac"]}
    return metrics, int(m["attempted"]), int(m["failed"]), extra


def service_traced(tool, parcl, work, seed, seconds):
    half = max(2.0, seconds / 2)
    plain = run_tool(service_args(tool, parcl, work, seed, half, False))
    traced = run_tool(service_args(tool, parcl, work, seed, half, True))
    metrics = {name: traced[name] for name in PER_LAYER}
    metrics["loadgen.lag_p99_ms"] = plain["lag_p99_ms"]
    metrics["trace.overhead_frac"] = 1.0 - traced["jobs_per_s"] / plain["jobs_per_s"]
    attempted = int(plain["attempted"]) + int(traced["attempted"])
    failed = int(plain["failed"]) + int(traced["failed"])
    return metrics, attempted, failed


# --------------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    parcl, tool = build()
    parcl = os.path.abspath(parcl)
    tool = os.path.abspath(tool)
    # Relative: the server's unix socket path must stay short.
    work = os.path.join(BUILD, "w", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    units = PER_LAYER if args.trace else END_TO_END
    try:
        # Inputs first: their writeback settles while we wait for a quiet host.
        case = (None if args.workload == "service_mix" else
                Case(args.workload, parcl, work, random.Random(args.seed)))
        extra = {"quiet_wait_s": wait_for_quiet()}
        cpu_before = cpu_times()
        if case is None and args.trace:
            metrics, attempted, failed = service_traced(tool, parcl, work, args.seed,
                                                        args.seconds)
        elif case is None:
            metrics, attempted, failed, more = service_e2e(tool, parcl, work, args.seed,
                                                           args.seconds)
            extra.update(more)
        elif args.trace:
            metrics, attempted, failed = local_traced(case, tool, args.seconds)
        else:
            metrics, attempted, failed, more = local_e2e(case, args.seconds)
            extra.update(more)
    except (GateFailure, subprocess.SubprocessError, OSError, ValueError, KeyError) as error:
        log(f"perfbench: {args.workload}: {error}")
        return 1

    extra.setdefault("failed_frac", failed / attempted if attempted else 1.0)
    # Share of CPU time the hypervisor gave to others: context for a noisy run.
    extra["host_steal_frac"] = steal_share(cpu_before, cpu_times())
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "provenance": provenance(), "context": extra}))
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6g} {units[name]}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    shutil.rmtree(work, ignore_errors=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
