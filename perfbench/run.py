"""zetacomb benchmark: one closed-loop client, one request at a time.

    python3 perfbench/run.py --workload {build,check,session} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout: the program under test is that
checkout's own src/, put on PYTHONPATH (zetacomb need not be installed).

  build    cold `python -m zetacomb coeffs --m M --format F` requests.
  check    cold `verify`, `eta`, `conjecture` and `coeffs --check-all-routes`.
  session  warm library calls in one long-lived process per session.

A run measures a fixed number of whole rounds, as many as usually fit in
--seconds (ROUND_S).

Every output is checked against reference.json; a nonzero exit or wrong
content counts as a failed request. With --trace 0 the run reports the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics: each request then runs once plain and once with spans, the two
outputs must be byte-identical, and the difference of their medians is the
tracing overhead. End-to-end timings are scaled to a reference host speed
by a calibration timed next to them (calibrate.py); the raw figures are
printed too. The last stdout line is the JSON result; lines before it
name every metric with its unit. Each run also appends a record to
.perfbench_out/results.jsonl and, when traced, writes its spans there.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import checks
import tracing
import workloads

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
PYTHON = sys.executable
SETUP_EVERY = 4  # cold workloads: one set-up sample before every 4th request
SESSION_SETUP_SAMPLES = 3  # extra worker start-ups before each session
# usual length of one round (a pair of sessions for `session`) on a shared 2-vCPU Xeon
ROUND_S = {"build": 9.0, "check": 36.0, "session": 20.0}
CHILD_LIMIT_S = 150  # no child outlives this many seconds after the run starts
CALIBRATION_WINDOW = 2  # a timing is scaled by the median of the 2k+1 calibrations nearest it
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


@dataclass
class Exit:
    seconds: float
    stdout: bytes
    code: int
    rss_mb: float


@dataclass
class Tally:
    """What the requests of one run measured."""

    latencies: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)  # latencies at reference speed
    failed: int = 0
    rss_mb: list[float] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    setup_scaled: list[float] = field(default_factory=list)
    reuse: list[float] = field(default_factory=list)
    bits_total: list[int] = field(default_factory=list)
    bits_max: int = 0
    stdout_bytes: list[int] = field(default_factory=list)
    traced: list[float] = field(default_factory=list)
    spans: list = field(default_factory=list)
    cache_hits: int = 0

    def count(self, request: workloads.Request, seconds: float, ok: bool) -> None:
        self.latencies.append(seconds)
        self.failed += not ok
        total, largest = checks.result_bits(request.command, request.n)
        self.bits_total.append(total)
        self.bits_max = max(self.bits_max, largest)

    def add_spans(self, spans: list, first_request: int) -> None:
        """Append one process's spans, renumbering parents and request ids."""
        offset = len(self.spans)
        for name, start, end, parent, request in spans:
            parent = parent + offset if parent >= 0 else -1
            self.spans.append((name, start, end, parent, first_request + request))


class Speed:
    """Calibration times in the order taken; timings are scaled by those nearest them."""

    def __init__(self, ref: float, samples: list[float] | None = None) -> None:
        self.ref = ref
        self.samples = samples if samples is not None else []

    def scale(self, seconds: float, at: int) -> float:
        """`seconds` at reference speed, for a timing taken next to sample `at`."""
        window = self.samples[max(at - CALIBRATION_WINDOW, 0) : at + CALIBRATION_WINDOW + 1]
        return seconds * self.ref / statistics.median(window)


class Clock:
    """The run's time budget and the hard limit for children."""

    def __init__(self) -> None:
        self.kill_at = time.monotonic() + CHILD_LIMIT_S

    def child_timer(self, proc: subprocess.Popen) -> threading.Timer:
        timer = threading.Timer(max(self.kill_at - time.monotonic(), 0.0), proc.kill)
        timer.start()
        return timer


def _reap(proc: subprocess.Popen, timer: threading.Timer) -> tuple[int, float]:
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024


def spawn(clock: Clock, argv: list[str]) -> Exit:
    """Run a child to completion; peak RSS is this child's own (os.wait4)."""
    with open(OUT / "child.stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=ENV, cwd=ROOT)
        timer = clock.child_timer(proc)
        with proc.stdout:
            out = proc.stdout.read()
        code, rss = _reap(proc, timer)
        elapsed = time.perf_counter() - start
    if code != 0:
        sys.stderr.write(f"{' '.join(argv[1:])}: exit {code}\n")
        sys.stderr.write((OUT / "child.stderr").read_text(errors="replace")[-2000:])
    return Exit(elapsed, out, code, rss)


def cli_ok(request: workloads.Request, run: Exit) -> bool:
    if run.code != 0:
        return False
    try:
        content = checks.cli_content(request.command, request.fmt, run.stdout.decode())
    except (ValueError, KeyError, TypeError, IndexError):
        return False
    return checks.matches(request.command, request.n, content)


def rounds(workload: str, seconds: float) -> int:
    """Whole rounds (session pairs) in a run: as many as usually fit in `seconds`, at least one.

    The count is fixed, not the time: on a host that speeds up and slows
    down, a time budget would fit more requests into some runs than others,
    and the tail percentile, which follows the request count, would move.
    """
    return max(1, int(seconds // ROUND_S[workload]))


def setup_sample(clock: Clock) -> float:
    """Fresh interpreter plus `import zetacomb`."""
    run = spawn(clock, [PYTHON, "-c", "import zetacomb"])
    if run.code != 0:
        raise SystemExit("cannot import zetacomb from src/")
    return run.seconds


def calibrate_sample(clock: Clock, speed: Speed) -> int:
    """Time the spawned calibration; return its index in `speed`."""
    run = spawn(clock, [PYTHON, str(HERE / "calibrate.py")])
    if run.code != 0:
        raise SystemExit("calibration failed")
    speed.samples.append(run.seconds)
    return len(speed.samples) - 1


def run_cold(workload: str, rng: random.Random, seconds: float, trace: bool) -> Tally:
    clock, tally, speed = Clock(), Tally(), Speed(calibrate.SPAWN_REF_S)
    spans_file = OUT / "child.spans.json"
    end = time.perf_counter() + seconds
    index = 0
    pinned: list[int] = []  # the calibration next to each request
    setups: list[tuple[float, int]] = []
    for _ in range(rounds(workload, seconds)):
        for request in workloads.cold_round(workload, rng):
            if trace and time.perf_counter() >= end:
                break  # a traced round runs everything twice; per-layer metrics need no whole rounds
            plain_argv = [PYTHON, "-m", "zetacomb", *request.argv()]
            if not trace:
                at = calibrate_sample(clock, speed)
                # set-up samples spread over the run see the same machine as the requests
                if index % SETUP_EVERY == 0:
                    setups.append((setup_sample(clock), at))
                run = spawn(clock, plain_argv)
                tally.count(request, run.seconds, cli_ok(request, run))
                pinned.append(at)
                tally.rss_mb.append(run.rss_mb)
                tally.stdout_bytes.append(len(run.stdout))
            else:
                traced_argv = [PYTHON, str(HERE / "trace_cli.py"), str(spans_file), *request.argv()]
                # alternate which side runs first, so neither always finds warmer caches
                if index % 2 == 0:
                    plain, traced = spawn(clock, plain_argv), spawn(clock, traced_argv)
                else:
                    traced, plain = spawn(clock, traced_argv), spawn(clock, plain_argv)
                same = (plain.stdout, plain.code) == (traced.stdout, traced.code)
                if not same:
                    sys.stderr.write(f"{' '.join(request.argv())}: traced output differs\n")
                tally.count(request, plain.seconds, cli_ok(request, plain) and same)
                tally.traced.append(traced.seconds)
                tally.stdout_bytes.append(len(plain.stdout))
                if spans_file.exists():
                    dumped = json.loads(spans_file.read_text())
                    spans_file.unlink()
                    tally.add_spans(dumped["spans"], index)
                    tally.cache_hits += dumped["cache_hits"]
            tally.reuse.append(0.0)  # every cold request is a fresh process
            index += 1
    tally.scaled = [speed.scale(s, at) for s, at in zip(tally.latencies, pinned)]
    tally.setup_s = [s for s, _ in setups]
    tally.setup_scaled = [speed.scale(s, at) for s, at in setups]
    return tally


@dataclass
class Session:
    setup_s: float
    seconds: list[float]
    scaled: list[float]
    ok: list[bool]
    digests: list[str]
    spans: list
    cache_hits: int
    rss_mb: float


def run_session_process(
    clock: Clock, requests: list[workloads.Request], trace: bool, digests: bool
) -> Session:
    """One worker process: set-up until "ready", then the requests in order.

    With `digests` the worker returns a hash of each result's content, so a
    traced and a plain session can be compared.
    """
    job = {"requests": [[r.command, r.n] for r in requests], "digests": digests}
    argv = [PYTHON, str(HERE / "session_worker.py"), "1" if trace else "0"]
    with open(OUT / "child.stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, env=ENV, cwd=ROOT
        )
        timer = clock.child_timer(proc)
        with proc.stdin, proc.stdout:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            try:
                proc.stdin.write(json.dumps(job).encode() + b"\n")
                proc.stdin.flush()
            except BrokenPipeError:
                pass
            out = proc.stdout.read()
        code, rss = _reap(proc, timer)
    try:
        result = json.loads(out) if ready == b"ready\n" and code == 0 else None
    except ValueError:
        result = None
    if result is None:
        sys.stderr.write(f"session worker failed: exit {code}\n")
        sys.stderr.write((OUT / "child.stderr").read_text(errors="replace")[-2000:])
        n = len(requests)
        return Session(setup, [0.0] * n, [0.0] * n, [False] * n, [""] * n, [], 0, rss)
    speed = Speed(calibrate.CALL_REF_S, result["calibration"])
    every = result["calibrate_every"]
    return Session(
        setup,
        result["seconds"],
        [speed.scale(s, i // every) for i, s in enumerate(result["seconds"])],
        result["ok"],
        result["digests"],
        result.get("spans", []),
        result.get("cache_hits", 0),
        rss,
    )


def run_session(rng: random.Random, seconds: float, trace: bool) -> Tally:
    clock, tally, speed = Clock(), Tally(), Speed(calibrate.SPAWN_REF_S)
    index = 0
    setups: list[tuple[float, int]] = []
    end = time.perf_counter() + seconds
    pairs = (workloads.session_pair(rng) for _ in range(rounds("session", seconds)))
    for requests in (session for pair in pairs for session in pair):
        if trace and time.perf_counter() >= end:
            break  # a traced session runs twice; per-layer metrics need no fixed count
        for _ in range(SESSION_SETUP_SAMPLES):
            setup = run_session_process(clock, [], False, False).setup_s
            setups.append((setup, calibrate_sample(clock, speed)))
        plain = run_session_process(clock, requests, False, trace)
        setups.append((plain.setup_s, calibrate_sample(clock, speed)))
        tally.rss_mb.append(plain.rss_mb)
        tally.reuse.extend([workloads.reuse_share(requests)] * len(requests))
        same = True
        if trace:
            traced = run_session_process(clock, requests, True, True)
            same = plain.digests == traced.digests
            if not same:
                sys.stderr.write("traced session output differs\n")
            tally.add_spans(traced.spans, index)
            tally.cache_hits += traced.cache_hits
            tally.traced.extend(traced.seconds)
        for request, secs, ok in zip(requests, plain.seconds, plain.ok):
            tally.count(request, secs, ok and same)
        tally.scaled.extend(plain.scaled)
        tally.stdout_bytes.extend([0] * len(requests))
        index += len(requests)
    tally.setup_s = [s for s, _ in setups]
    tally.setup_scaled = [speed.scale(s, at) for s, at in setups]
    return tally


def quantile(values: list[float], p: float) -> float:
    """The Harrell-Davis estimate of the p-quantile.

    It is a mean of all order statistics, weighted by the Beta(p(n+1),
    (1-p)(n+1)) mass over each one's slice of [0, 1] (integrated by the
    midpoint rule). Where samples are sparse, as around the median of a mix
    of cheap and costly requests, it moves far less from run to run than
    the one order statistic it estimates.
    """
    ordered = sorted(values)
    if p >= 1.0:  # the tail of one or two samples is their maximum
        return ordered[-1]
    n, steps = len(ordered), 32
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    total = weighted = 0.0
    for i, value in enumerate(ordered):
        xs = ((i * steps + j + 0.5) / (n * steps) for j in range(steps))
        mass = sum(math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta) for x in xs)
        total += mass
        weighted += mass * value
    return weighted / total


def tail(latencies: list[float]) -> tuple[float, int]:
    """Highest percentile with at least ten samples beyond it: (pct, beyond).

    With fewer than 21 samples that would fall below the median; the median
    is taken then, and `beyond` says how thin the tail is.
    """
    n = len(latencies)
    index = max(n - 11, n // 2)
    return 100.0 * (index + 1) / n, n - index - 1


def timings(latencies: list[float], setup_s: list[float]) -> dict[str, float]:
    return {
        "latency_p50_ms": quantile(latencies, 0.5) * 1e3,
        "latency_tail_ms": quantile(latencies, tail(latencies)[0] / 100) * 1e3,
        "requests_per_s": len(latencies) / sum(latencies),
        "setup_s": quantile(setup_s, 0.5),
    }


def end_to_end(tally: Tally) -> dict[str, float]:
    """Timings at reference speed (see calibrate.py); memory as measured."""
    return {**timings(tally.scaled, tally.setup_scaled), "peak_rss_mb": max(tally.rss_mb)}


def properties(tally: Tally) -> dict[str, float]:
    """What a cache or bit-size claim needs to know about the inputs and results."""
    return {
        "input.reuse_share": statistics.fmean(tally.reuse),
        "result.entry_bits_max": tally.bits_max,
        "result.entry_bits_total": statistics.fmean(tally.bits_total),
    }


def per_layer(tally: Tally) -> dict[str, float]:
    out = tracing.summarize(tally.spans, len(tally.latencies))
    calls = out.get(f"{tracing.CACHED}.calls", 0.0) * len(tally.latencies)
    out[f"{tracing.CACHED}.hit_ratio"] = tally.cache_hits / calls if calls else 0.0
    out["cli.stdout_bytes"] = statistics.fmean(tally.stdout_bytes)
    out["trace.overhead_ms"] = (
        statistics.median(tally.traced) - statistics.median(tally.latencies)
    ) * 1e3
    out.update(properties(tally))
    return out


def summary(tally: Tally) -> dict[str, float]:
    """Figures printed with every run besides the metrics of BENCHMARK.json."""
    pct, beyond = tail(tally.latencies)
    raw = {}
    if tally.scaled:  # the end-to-end timings before scaling
        raw = {f"raw.{k}": v for k, v in timings(tally.latencies, tally.setup_s).items()}
    return {
        "failed_ratio": tally.failed / len(tally.latencies),
        "latency_tail_percentile": pct,
        "latency_tail_beyond": beyond,
        "latency_samples": len(tally.latencies),
        "setup_samples": len(tally.setup_s),
        **raw,
        **properties(tally),
    }


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("build", "check", "session"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "zetacomb" / "__init__.py").is_file():
        print("run from the root of a zetacomb checkout (no src/zetacomb here)", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)

    rng = random.Random(f"{args.workload}:{args.seed}")
    if args.workload == "session":
        tally = run_session(rng, args.seconds, bool(args.trace))
    else:
        tally = run_cold(args.workload, rng, args.seconds, bool(args.trace))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = per_layer(tally) if args.trace else end_to_end(tally)
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    extra = {k: v for k, v in summary(tally).items() if k not in metrics}
    env = environment()
    for name, metric in metrics.items():
        print(f"{args.workload:8s} {name:42s} {metric['value']:14.6g} {metric['unit']}")
    for name, value in extra.items():
        print(f"{args.workload:8s} {name:42s} {value:14.6g}")
    print("environment " + json.dumps(env))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "metrics": metrics,
        "details": extra,
    }
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    if args.trace:
        (OUT / f"{args.workload}.spans.json").write_text(json.dumps(tally.spans))
    attempted = len(tally.latencies)
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
