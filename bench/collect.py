"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/collect.py [--workloads scan cli_cold] \
        [--seeds 1 10] [--seconds 50] [--trace 1] [--out FILE]

Without options it runs each workload once, with seed 1.  It runs
bench/run.py once per workload and seed, one run at a time, and
prints for each metric the median, the quartiles and the spread (the
interquartile range as a share of the median).  --out also writes every
run's values and the summary as JSON, for recording a baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=["scan", "cli_cold"])
    parser.add_argument("--seeds", nargs=2, type=int, default=[1, 1], metavar=("FIRST", "LAST"))
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    report: dict = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    failed = False
    for workload in args.workloads:
        runs = []
        for seed in range(args.seeds[0], args.seeds[1] + 1):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            env = next((json.loads(line[len("# env "):]) for line in lines if line.startswith("# env ")), None)
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if proc.returncode != 0 or result is None or not result["correct"]:
                failed = True
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                continue
            report["environment"] = env
            runs.append({"seed": seed, **{k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g} {v['unit']}" for k, v in result["metrics"].items()), flush=True)
        summary = {}
        if len(runs) >= 2:
            for key in runs[0]:
                if key != "seed":
                    summary[key] = summarise([r[key] for r in runs])
        report["workloads"][workload] = {"runs": runs, "summary": summary}
        for key, s in summary.items():
            print(f"  {workload:<9} {key:<34} median {s['median']:.5g}  "
                  f"q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  spread {s['spread']:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
