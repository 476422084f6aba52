"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload devissage_ext --seed 1 --seconds 45 --trace 0

Run from anywhere inside a checkout of the repository; the library is
imported from its `src/` directory.  With `--trace 0` the run measures for
`--seconds` seconds and prints the end-to-end metrics; with `--trace 1` it
runs a fixed number of rounds untraced and then traced and prints the
per-layer metrics.  Either way every output is checked after the timed part,
and the last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

A run record with the same numbers plus the Python version, `nproc`, the
git commit, the seed and the run length goes to `bench/results/`.
"""
from time import perf_counter

PROCESS_START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

CLI_START_EVERY_S = 3.0  # seconds between fresh CLI processes timed during a run
CLI_START_MIN = 5  # fewest fresh CLI processes timed per run
SETUP_REPEATS = 5  # whole set-ups timed per run, this process's and the rest fresh; setup_s is their median
TAIL_PERCENTILE = 94  # op_tail_ms: the highest whole percentile with ten pool inputs beyond it on every workload


@dataclass(frozen=True)
class Raised:
    """Stands in for the output of an op that raised."""

    error: str


class Loop:
    """Closed loop over a pool of inputs with one client.

    The first output for each pool entry is kept for the checks; a later op
    on the same entry must return an equal output.
    """

    def __init__(self, workload, rounds: List[list]):
        self.workload = workload
        self.pool = [item for r in rounds for item in r]
        self.round_size = len(rounds[0])
        self.first: Dict[int, object] = {}
        self.differs: List[int] = []  # op numbers whose output changed on a repeat
        self.latencies: List[float] = []

    def run(self, seconds: Optional[float] = None, rounds: Optional[int] = None, tracer=None, between=None) -> float:
        """Attempt whole rounds until ops took `seconds` or `rounds` are done.

        Returns the timed part: the summed latency of the ops run.  `between`
        is called after every round, outside the timed part.
        """
        op = self.workload.op
        timed = 0.0
        done = 0
        while True:
            for _ in range(self.round_size):
                i = len(self.latencies)
                k = i % len(self.pool)
                if tracer is not None:
                    tracer.op = i
                t0 = perf_counter()
                try:
                    out = op(self.pool[k])
                except Exception as exc:  # an op that raises counts as failed, the run goes on
                    out = Raised(f"{type(exc).__name__}: {exc}")
                latency = perf_counter() - t0
                self.latencies.append(latency)
                timed += latency
                if k not in self.first:
                    self.first[k] = out
                elif out != self.first[k]:
                    self.differs.append(i)
            done += 1
            settle()
            if between is not None:
                between()
            if rounds is not None and done >= rounds:
                break
            if seconds is not None and timed >= seconds:
                break
        return timed

    def slowest(self) -> List[float]:
        """Each pool input's slowest latency in the run, for the inputs reached.

        On a shared host the processor switches, every second or so, between
        a base speed and one up to about 1.6x faster, and the share of a run
        spent at the faster one drifts from minute to minute.  An input's
        slowest repeat is almost always at the base speed, so metrics made
        from these times follow the code more than the drift.  Counting each
        input once also keeps a cache that only helps on exact repeats of a
        whole op from raising them.
        """
        worst = [0.0] * min(len(self.pool), len(self.latencies))
        for i, latency in enumerate(self.latencies):
            k = i % len(self.pool)
            worst[k] = max(worst[k], latency)
        return worst

    def check(self) -> List[str]:
        """Check every distinct output; returns one line per failed op."""
        bad: Dict[int, List[str]] = {}
        for k, out in self.first.items():
            if isinstance(out, Raised):
                bad[k] = [f"raised {out.error}"]
                continue
            try:
                problems = self.workload.check(self.pool[k], out)
            except Exception as exc:  # a malformed output can break a checker
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                bad[k] = problems
        lines = []
        differs = set(self.differs)
        for i in range(len(self.latencies)):
            k = i % len(self.pool)
            if k in bad:
                lines.append(f"op {i} (input {k}): {'; '.join(bad[k])}")
            elif i in differs:
                lines.append(f"op {i} (input {k}): output differs from the first run of the same input")
        return lines


class CliStart:
    """Wall times of fresh `python -m sl2rat.cli --version` processes.

    Samples are taken between rounds, one every CLI_START_EVERY_S seconds,
    so they span the run instead of one moment of it.  Their upper quartile
    is reported: most starts run at the base speed (see `Loop.slowest`),
    and one start slowed by something else on the machine does not move it.
    """

    def __init__(self):
        self.times: List[float] = []
        self.last = perf_counter()

    def sample(self) -> None:
        env = dict(os.environ, PYTHONPATH=SRC)
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "sl2rat.cli", "--version"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
        )
        self.times.append(perf_counter() - t0)
        self.last = perf_counter()
        if proc.returncode != 0 or not proc.stdout.startswith("sl2rat "):
            raise RuntimeError(f"`sl2rat.cli --version` failed: {proc.stderr.strip()[:200]}")

    def between_rounds(self) -> None:
        if perf_counter() - self.last >= CLI_START_EVERY_S:
            self.sample()

    def upper_quartile_ms(self) -> float:
        while len(self.times) < CLI_START_MIN:
            self.sample()
        return statistics.quantiles(self.times, n=4)[2] * 1e3


def git_commit() -> Optional[str]:
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def load_library():
    """Import the workloads against this checkout's `src/`; exit 2 when it is missing."""
    if not os.path.isfile(os.path.join(SRC, "sl2rat", "__init__.py")):
        print(f"bench: no library sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [SRC, HERE]
    import sl2rat
    import workloads

    if not os.path.abspath(sl2rat.__file__).startswith(SRC + os.sep):
        print(f"bench: imported sl2rat from {sl2rat.__file__}, not from {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return workloads


def settle() -> None:
    """Move everything set-up built out of the collector's way before timing.

    Without this the first pass over the pool pays for promoting the pool's
    objects through the collector's generations, and later passes do not.
    """
    gc.collect()
    gc.freeze()


def metric(value, unit: str) -> Dict:
    return {"value": value, "unit": unit}


def setup_in_fresh_process(wl, seed: int) -> float:
    """One whole set-up in a new process: start of `run.py` to its input pool built.

    The library import happens once per process, so timing set-up again
    means starting again.
    """
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", wl.name, "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh process failed: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def measure(wl, seed: int, seconds: float):
    rounds = wl.setup(seed, ROOT, wl.pool_rounds)
    setups = [perf_counter() - PROCESS_START]
    setups += [setup_in_fresh_process(wl, seed) for _ in range(SETUP_REPEATS - 1)]
    settle()
    loop = Loop(wl, rounds)
    cli_start = CliStart()
    loop.run(seconds=seconds, between=cli_start.between_rounds)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    worst = sorted(loop.slowest())
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "ops_per_s": metric(len(worst) / sum(worst), "ops/s"),
        "op_p50_ms": metric(statistics.median(worst) * 1e3, "ms"),
        "op_tail_ms": metric(worst[math.ceil(TAIL_PERCENTILE / 100 * len(worst)) - 1] * 1e3, "ms"),
        "peak_rss_mib": metric(peak_rss_mib, "MiB"),
        "cli_start_ms": metric(cli_start.upper_quartile_ms(), "ms"),
    }
    extra = {
        "setups_s": setups,
        "pool": len(loop.pool),
        "rounds": len(loop.latencies) // loop.round_size,
        "passes": len(loop.latencies) / len(loop.pool),
        "all_ops_per_s": len(loop.latencies) / sum(loop.latencies),
        "cli_start_s": cli_start.times,
    }
    return loop, metrics, extra


def measure_traced(wl, seed: int):
    import tracing

    rounds = wl.setup(seed, ROOT, wl.trace_rounds)
    settle()
    loop = Loop(wl, rounds)
    loop.run(rounds=wl.trace_rounds)  # keeps the first outputs, so both timed passes only compare
    untraced_s = loop.run(rounds=wl.trace_rounds)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced_s = loop.run(rounds=wl.trace_rounds, tracer=tracer)
    ops = wl.trace_rounds * loop.round_size
    metrics = {name: metric(value, unit) for name, (value, unit) in tracer.metrics().items()}
    metrics["trace.untraced_ops_per_s"] = metric(ops / untraced_s, "ops/s")
    metrics["trace.traced_ops_per_s"] = metric(ops / traced_s, "ops/s")
    metrics["trace.overhead_x"] = metric(traced_s / untraced_s, "x")
    os.makedirs(RESULTS, exist_ok=True)
    spans = os.path.join(RESULTS, f"spans-{wl.name}-seed{seed}")
    tracer.write(spans)
    stats = tracer.per_name()
    inclusive = tracer.inclusive()
    layers = {name: {"calls": c, "self_s": s, "inclusive_s": inclusive[name]} for name, (c, s) in stats.items()}
    extra = {
        "pool": len(loop.pool),
        "rounds": 3 * wl.trace_rounds,
        "traced_op_s": traced_s,
        "layers": layers,
        "spans": tracer.span_count(),
        "span_files": os.path.relpath(spans, ROOT),
    }
    return loop, metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("devissage_ext", "casimir_corpus", "rank1_cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="time one set-up, print its seconds and stop")
    args = parser.parse_args(argv)

    workloads = load_library()
    wl = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        wl.setup(args.seed, ROOT, wl.pool_rounds)
        print(perf_counter() - PROCESS_START)
        return 0
    if args.trace:
        loop, metrics, extra = measure_traced(wl, args.seed)
    else:
        loop, metrics, extra = measure(wl, args.seed, args.seconds)
    failures = loop.check()
    attempted = len(loop.latencies)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}

    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        **extra,
        **result,
        "failures": failures[:20],
    }
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{wl.name}-seed{args.seed}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
