"""Seeded input generator for the benchmark.

    python3 bench/inputs.py --seed 42 --out DIR

writes, as a pure function of the seed:

* ``paper.json``: the paper study config (K=200, 100 false nulls, 10,000
  steps, tracked rows 98-101, one u1 matrix at step 10,000) at the seed;
* ``sweep.json``: the same design with tracked row 100 only, 1,000 steps and
  no checkpoints, for the seed sweep;
* ``seeds.json``: the 20 sweep seeds, drawn from the seed;
* ``values_k200.csv``: final martingale values of the untracked paper study
  at the seed;
* ``values_k500.csv``: the same design scaled to K=500, 250 false nulls and
  25,000 steps.

The library is imported by the caller (``run.py`` puts the checkout's
``src`` first on ``sys.path``); this module only uses its public calls.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

SWEEP_SEEDS = 20
PAPER_ROWS = (98, 99, 100, 101)
SWEEP_ROWS = (100,)
SWEEP_STEPS = 1_000


def sweep_seeds(seed: int) -> list[int]:
    """The 20 sweep seeds: 64-bit words from a SeedSequence on the seed."""
    words = np.random.SeedSequence(seed).generate_state(SWEEP_SEEDS, dtype=np.uint64)
    return [int(w) for w in words]


def generate(seed: int, out: Path) -> dict[str, Path]:
    """Write every input for ``seed`` into ``out``; returns name -> path."""
    from evalanche import formats, simulate

    out.mkdir(parents=True, exist_ok=True)
    paper = simulate.paper_experiment_config(seed=seed, tracked_rows=PAPER_ROWS)
    sweep = simulate.paper_experiment_config(
        seed=seed, steps=SWEEP_STEPS, tracked_rows=SWEEP_ROWS, checkpoints=()
    )
    untracked = replace(paper, tracked_rows=(), checkpoints=())
    scaled = replace(untracked, k=500, n_false=250, steps=25_000)

    paths = {
        "paper": out / "paper.json",
        "sweep": out / "sweep.json",
        "seeds": out / "seeds.json",
        "values_k200": out / "values_k200.csv",
        "values_k500": out / "values_k500.csv",
    }
    paths["paper"].write_text(formats.config_to_json(paper))
    paths["sweep"].write_text(formats.config_to_json(sweep))
    paths["seeds"].write_text(json.dumps(sweep_seeds(seed)) + "\n")
    for name, cfg in (("values_k200", untracked), ("values_k500", scaled)):
        run = simulate.run_experiment(cfg)
        paths[name].write_text(formats.values_csv(run.final_table.current))
    return paths


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        p.error("--seed must be an unsigned 64-bit integer")
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    for name, path in generate(args.seed, Path(args.out)).items():
        print(f"{name}: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
