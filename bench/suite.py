"""Run the benchmark over several seeds, workloads interleaved, and judge
its steadiness against the bounds in BENCHMARK.json.

Usage, from the repository root:

    python3 bench/suite.py --seeds 1-10

Each run is a fresh ``bench/run.py`` process. Runs go seed by seed, and
within a seed through every workload, so drift in the machine's speed
lands on all workloads alike. For each end-to-end metric the spread is
the distance between the first and third quartile of its per-run values,
as a share of their median; it is printed beside the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    values = {w: {} for w in names}
    ok = True
    for seed in args.seeds:
        for w in names:
            result = run_once(spec, w, seed)
            ok &= result["correct"] and result["failed"] == 0
            for k, m in result["metrics"].items():
                values[w].setdefault(k, []).append(m["value"])
            print(f"seed {seed} {w}: " + " ".join(
                f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
                flush=True)
    for w in names:
        print(f"{w} ({len(args.seeds)} runs)")
        for metric in spec["end_to_end"]:
            vals = values[w][metric["name"]]
            s = spread(vals) if len(vals) > 1 else 0.0
            flag = "" if s < metric["bound"] / 3 else \
                "  <- above a third of the bound"
            print(f"  {metric['name']:<14} median "
                  f"{statistics.median(vals):.6g} spread {s:.3f} "
                  f"bound {metric['bound']}{flag}")
    print("outputs correct on every run" if ok else "SOME RUNS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
