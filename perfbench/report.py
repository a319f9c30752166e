"""Run the benchmark over several seeds and summarise every end-to-end metric.

    python3 perfbench/report.py [--workloads a,b] [--seeds 1,2,3] [--seconds S]

For each workload, runs ``perfbench/run.py`` once per seed (untraced) and
prints, per end-to-end metric, the median over runs, the quartiles, and
the spread (third minus first quartile, as a share of the median) next to
the bound BENCHMARK.json gives the metric.  A spread above a third of its
bound is marked, since two such sets of runs may then disagree by more than
the bound.  Exits 1 when any run failed or printed no result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        failed = attempted = 0
        for seed in seeds:
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            failed += result["failed"]
            attempted += result["attempted"]
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={metric['value']:.5g}" for name, metric in result["metrics"].items()
            ), flush=True)
        ok = ok and failed == 0
        print(f"\n{workload}: {len(seeds)} runs of {args.seconds:g} s, "
              f"fail_ratio {failed}/{attempted}")
        print(f"  {'metric':14s} {'unit':5s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for metric in spec["end_to_end"]:
            vals = values[metric["name"]]
            if len(vals) < 2:
                continue
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            mark = "  > bound/3" if spread > metric["bound"] / 3 else ""
            print(f"  {metric['name']:14s} {metric['unit']:5s} {median:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:8.4f} {metric['bound']:6.3f}{mark}")
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
