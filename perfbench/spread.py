"""Run-to-run spread of the end-to-end metrics, as the acceptance check takes it.

Usage, from the repository root:

    python3 perfbench/spread.py --runs 10 [--workloads paper_small]

Runs perfbench/run.py once per seed (seeds 1..runs) for each workload, one
run at a time, and prints for every end-to-end metric the median and the
interquartile range as a share of the median (statistics.quantiles, n=4),
next to a third of the metric's bound from BENCHMARK.json, and the same
spread of the raw timings before the host-speed correction (hostspeed.py).
Exits 1 if a run fails or a spread other than setup_s reaches a third of its
bound.
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
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    def spread(vs: list[float]) -> tuple[float, float]:
        q1, med, q3 = statistics.quantiles(vs, n=4)
        return med, (q3 - q1) / med

    ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        raw: dict[str, list[float]] = {}
        for seed in range(1, args.runs + 1):
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if out.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed} failed (exit {out.returncode}):\n{out.stderr}", file=sys.stderr)
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            detail = json.loads(lines[-2].removeprefix("detail: "))
            for name, v in detail["raw"].items():
                raw.setdefault(name, []).append(v)
            print(f"{workload} seed {seed}: " + " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
        for name, vs in values.items():
            med, s = spread(vs)
            flag = "" if name == "setup_s" or s < bounds[name] / 3 else "  <-- above bound/3"
            ok &= not flag
            raw_s = f"  raw spread {spread(raw[name])[1]:.4f}" if name in raw else ""
            print(f"{workload:14s} {name:12s} median {med:.6g}  spread {s:.4f}  bound/3 {bounds[name] / 3:.4f}{raw_s}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
