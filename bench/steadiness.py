"""Steadiness self-check: run the benchmark over several seeds per workload
and compare each end-to-end metric's spread with its bound.

    python3 bench/steadiness.py [--compare OLD.json]

Each workload of BENCHMARK.json runs RUNS times for ``run_seconds``, with
seeds SEED0, SEED0 + 1, ...  For each workload and metric it prints
the median, the quartiles from ``statistics.quantiles(values, n=4)`` and
the spread (q3 - q1) / median.  Every spread, ``setup_s``'s too, must stay
within the metric's bound in BENCHMARK.json and should stay under a third
of it.  With ``--compare``, an earlier report of this script, each median
must also be no worse than the earlier one by more than the bound.  The
report is written under ``bench/.work/`` and the exit code is 1 if any
test fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED0 = 1000
RUNS = 10


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def judge(report: dict, bounds: dict, previous: dict | None) -> list[str]:
    """Failed tests of a report {workload: {metric: [values]}}."""
    failures = []
    for workload, metrics in report.items():
        for name, values in metrics.items():
            bound = bounds[name]
            med, _, _, sp = spread(values)
            if sp > bound:
                failures.append(f"{workload} {name}: spread {sp:.3f} > bound {bound}")
            old = (previous or {}).get(workload, {}).get(name)
            if old and med > statistics.median(old) * (1 + bound):
                failures.append(f"{workload} {name}: median {med:.4g} worse than "
                                f"{statistics.median(old):.4g} by more than {bound}")
    return failures


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed verification\n{out}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--compare", type=Path, default=None, help="an earlier report")
    args = p.parse_args(argv)

    report: dict[str, dict[str, list[float]]] = {}
    for workload in (w["name"] for w in bench["workloads"]):
        for i in range(RUNS):
            for name, value in run_once(workload, SEED0 + i, bench["run_seconds"]).items():
                report.setdefault(workload, {}).setdefault(name, []).append(value)
        for name, values in report[workload].items():
            med, q1, q3, sp = spread(values)
            target = "" if sp < bounds[name] / 3 else "  (above bound/3)"
            print(f"{workload:12s} {name:12s} median={med:.4f} q1={q1:.4f} q3={q3:.4f} "
                  f"spread={sp:.3f} bound={bounds[name]}{target}", flush=True)

    previous = json.loads(args.compare.read_text()) if args.compare else None
    failures = judge(report, bounds, previous)
    out = BENCH / ".work" / f"steadiness-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"report: {out}")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
