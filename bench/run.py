"""The phl benchmark.

    python3 bench/run.py --workload {scan,cli_cold} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout: the benchmark imports phl from
./src and exits 2 when it is missing.  Each workload is a closed loop
with one caller and no threads; cli_cold runs one child process at a
time.  Inputs come from the benchmark's own seeded generator (gen.py).

--trace 0 sets up, then makes round(S / pass_seconds) passes (at least
one) over the workload's fixed list of at least 100 distinct ops, each
pass in a new seeded order.  An op's latency is its best time over the
passes: the machine is a shared host whose speed changes from second
to second, and the best of tries spread over the run is what the op
costs when the host leaves it alone.  The quantiles are taken over the
ops' latencies and the throughput is the number of ops over their sum.
Every output of every try is checked against its reference.  Set-up
is repeated in fresh processes and setup_s is the median.

--trace 1 runs a fixed op list three times, each in a fresh process:
once untraced, then twice under the tracer (tracing.py).  It prints the
per-layer metrics of the traced runs, the tracing overhead, and fails
when the two traced runs disagree on any work count.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 1 when any op
failed its check, 0 otherwise.  bench/collect.py runs every workload
over several seeds and summarises the spread of each metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(SRC))

MIN_OPS = 100  # so that at least ten ops lie beyond the 90th percentile
MAX_SECONDS = 100  # make no further pass after this, so that a run ends within three minutes
CHILD_TIMEOUT = 170
MACHINE_LIMITS = (
    "no CPU pinning, no frequency control, no cache dropping; "
    "the machine is shared, so its speed drifts from run to run"
)
UNITS = {
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "throughput_ops_s": "ops/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "machine_limits": MACHINE_LIMITS,
    }


def make_workload(name: str, seed: int, tag: str, traced_cli: bool = False):
    import workloads

    workdir = WORK / f"{name}-{seed}-{tag}-{os.getpid()}"
    if name == "cli_cold":
        launcher = BENCH_DIR / "launcher.py" if traced_cli else None
        return workloads.CliCold(seed, workdir, launcher)
    return workloads.WORKLOADS[name](seed, workdir)


def cleanup(wl) -> None:
    shutil.rmtree(wl.workdir, ignore_errors=True)
    try:
        WORK.rmdir()  # only when no other run is using it
    except OSError:
        pass


def run_op(op) -> tuple[float, object, str | None]:
    """Run one op; return its time, its output and the error it raised."""
    t0 = perf_counter()
    try:
        out, err = op.run(), None
    except Exception as exc:  # a failing op is counted, the loop goes on
        out, err = None, f"{type(exc).__name__}: {exc}"
    return perf_counter() - t0, out, err


def run_passes(ops, passes: int, seed: int) -> tuple[list[list[float]], list]:
    """Run every op once per pass, in a closed loop, each pass in a new
    seeded order; return each op's times and every (op, output, error)."""
    order = random.Random(seed)
    times: list[list[float]] = [[] for _ in ops]
    results = []
    start = perf_counter()
    for _ in range(passes):
        idx = list(range(len(ops)))
        order.shuffle(idx)
        for i in idx:
            t, out, err = run_op(ops[i])
            times[i].append(t)
            results.append((ops[i], out, err))
        if perf_counter() - start >= MAX_SECONDS:
            break
    return times, results


def check(results) -> list[str]:
    """Reasons of the ops whose output disagrees with the reference."""
    failures = []
    for op, out, err in results:
        if err is None:
            try:
                err = op.check(out)
            except Exception as exc:  # a malformed output is a wrong output
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            failures.append(f"{op.kind}: {err}")
    return failures


def child(args, phase: str, timeout: float) -> dict:
    """Run this script in a fresh process for one phase; return its JSON."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--phase", phase,
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"{phase} phase exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> int:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


# -- phases run in child processes -----------------------------------------

def phase_setup(args) -> int:
    t0 = perf_counter()
    wl = make_workload(args.workload, args.seed, "setup")
    wl.setup()
    setup_s = perf_counter() - t0
    cleanup(wl)
    print(json.dumps({"setup_s": setup_s}))
    return 0


def phase_fixed(args, traced: bool) -> int:
    """Run the workload's fixed op list, traced or not, and report it."""
    t0 = perf_counter()
    import phl  # noqa: F401

    import_s = perf_counter() - t0
    tracer = None
    cli = args.workload == "cli_cold"
    if traced and not cli:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    wl = make_workload(args.workload, args.seed, args.phase, traced_cli=traced and cli)
    wl.setup()
    results, latencies = [], []
    for i, op in enumerate(wl.fixed_ops()):
        if tracer is not None:
            tracer.op = i
        t, res, err = run_op(op)
        latencies.append(t)
        results.append((op, res, err))
    out = {"latencies": latencies, "import_s": [import_s]}
    if tracer is not None:
        out["stats"] = tracer.layer_stats()
    elif traced:
        from tracing import merge

        docs = [json.loads(p.read_text()) for p in wl.trace_files if p.exists()]
        out["stats"] = merge([d["stats"] for d in docs])
        out["import_s"] = [d["import_s"] for d in docs]
    out["failures"] = check(results)
    out["attempted"] = len(results)
    cleanup(wl)
    print(json.dumps(out))
    return 0


# -- the two top-level modes -------------------------------------------------

def measure(args) -> int:
    """--trace 0: the end-to-end metrics of one timed run."""
    t0 = perf_counter()
    wl = make_workload(args.workload, args.seed, "main")
    wl.setup()
    setups = [perf_counter() - t0]
    ops = wl.op_list
    assert len(ops) >= MIN_OPS, f"{args.workload} has only {len(ops)} ops"
    times, results = run_passes(ops, wl.passes(args.seconds), args.seed)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_cold" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB
    for _ in range(wl.setup_samples - 1):
        setups.append(child(args, "setup", CHILD_TIMEOUT / 4)["setup_s"])
    failures = check(results)
    cleanup(wl)

    best = [min(ts) for ts in times]
    metrics = {
        "latency_p50_s": statistics.median(best),
        "latency_p90_s": statistics.quantiles(best, n=10)[8],
        "throughput_ops_s": len(best) / sum(best),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    by_kind: dict[str, list[float]] = {}
    for op, t in zip(ops, best):
        by_kind.setdefault(op.kind, []).append(t)
    for kind, ts in sorted(by_kind.items(), key=lambda kv: statistics.median(kv[1])):
        print(f"# op {kind:<14} n={len(ts):<4} best: median={statistics.median(ts):.4f} s "
              f"min={min(ts):.4f} s max={max(ts):.4f} s")
    for reason in failures[:20]:
        print(f"# FAILED {reason}")
    tries = [len(ts) for ts in times]
    print(f"# {len(ops)} ops, {min(tries)}-{max(tries)} tries each, {len(results)} tries in "
          f"{sum(map(sum, times)):.2f} s; setup samples {[round(s, 4) for s in setups]}")
    for name, value in metrics.items():
        print(f"{name:<18} {value:.6g} {UNITS[name]}")
    print(f"{'error_rate':<18} {len(failures) / len(results):.6g} ratio")
    return emit(not failures, len(results), len(failures), metrics, UNITS)


def trace(args) -> int:
    """--trace 1: per-layer metrics of the fixed op list, and the overhead."""
    from tracing import COUNTERS, LAYERS

    start = perf_counter()

    def remaining() -> float:
        return max(1.0, CHILD_TIMEOUT - (perf_counter() - start))

    plain = child(args, "untraced", remaining())
    runs = [child(args, "traced", remaining()) for _ in range(2)]
    a, b = (r["stats"] for r in runs)
    exact = [f"{layer}.calls" for layer in LAYERS] + list(COUNTERS)
    mismatched = [k for k in exact if a[k] != b[k]]
    failures = plain["failures"] + runs[0]["failures"] + runs[1]["failures"]
    failures += [f"traced runs disagree on {k}: {a[k]} != {b[k]}" for k in mismatched]
    attempted = plain["attempted"] + runs[0]["attempted"] + runs[1]["attempted"]

    metrics, units = {}, {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"], units[f"{layer}.calls"] = a[f"{layer}.calls"], "count"
        metrics[f"{layer}.self_s"] = (a[f"{layer}.self_s"] + b[f"{layer}.self_s"]) / 2
        units[f"{layer}.self_s"] = "s"
    for key in COUNTERS:
        metrics[key], units[key] = a[key], "count"
    forms = a["canonical.canonical_form.calls"]
    metrics["canonical.kept_ratio"] = a["canonical.classes_yielded"] / forms if forms else 0.0
    units["canonical.kept_ratio"] = "ratio"
    imports = plain["import_s"] + runs[0]["import_s"] + runs[1]["import_s"]
    metrics["cli.import_s"], units["cli.import_s"] = statistics.median(imports), "s"
    untraced_s = sum(plain["latencies"])
    traced_s = sum(runs[0]["latencies"] + runs[1]["latencies"]) / 2
    metrics["trace.overhead_s"], units["trace.overhead_s"] = traced_s - untraced_s, "s"
    metrics["trace.overhead_ratio"] = (traced_s - untraced_s) / untraced_s
    units["trace.overhead_ratio"] = "ratio"

    for reason in failures[:20]:
        print(f"# FAILED {reason}")
    print(f"# {len(plain['latencies'])} ops: untraced {untraced_s:.3f} s, traced {traced_s:.3f} s, "
          f"{a['spans']} spans; work counts {'identical' if not mismatched else 'DIFFER'} in both traced runs")
    for name, value in metrics.items():
        print(f"{name:<34} {value:.6g} {units[name]}")
    return emit(not failures, attempted, len(failures), metrics, units)


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("setup", "untraced", "traced"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "phl" / "__init__.py").is_file():
        print(f"error: no phl sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.phase == "setup":
        return phase_setup(args)
    if args.phase is not None:
        return phase_fixed(args, traced=args.phase != "untraced")
    print(f"# phl benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# env {json.dumps(environment())}")
    return trace(args) if args.trace else measure(args)


if __name__ == "__main__":
    sys.exit(main())
