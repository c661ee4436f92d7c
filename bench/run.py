"""The evalanche benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: it imports the library from ``src/``.
Each workload runs in its own process as a closed loop with one client and
no extra threads.  Workloads:

* ``paper_study``: ``evalanche simulate`` on the paper config (K=200, four
  tracked rows, one u1 matrix), writing the full bundle;
* ``seed_sweep``: ``simulate.replicate`` over 20 seeds, one tracked row,
  1,000 steps, no matrix and no files;
* ``matrix_scan``: the desk CLI (``matrix``, ``diagonal``, ``subdiag``,
  ``region``) over K=200 and K=500 values CSVs.

Inputs come from ``inputs.py`` as a pure function of ``--seed``.  Passes
repeat until ``--seconds`` of timed passes have run (at least two).  Every
output is checked after timing ends; a call that exits non-zero, raises or
writes a wrong output counts as failed.

With ``--trace 0`` the last line reports the end-to-end metrics: the median
pass time at nominal machine speed (``norm_wall_s``, see ``speed.py``; the
raw ``wall_s`` is printed beside it), the median set-up time, also at
nominal speed (``setup_s``; the raw times are printed), and the peak
resident memory.  With ``--trace 1`` untraced and traced passes alternate
and it reports the per-layer metrics.  The metric names and units, and the
default of ``--seconds``, come from ``BENCHMARK.json``; ``metrics.json``
says what each metric measures and what it should move.  Both write a
result JSON (and, traced, the span JSONL) under ``bench/.work/results``.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
DIGESTS = BENCH / "digests.json"
WORKLOAD_NAMES = tuple(w["name"] for w in BENCHMARK["workloads"])
DEFAULT_SEED = 42
SETUP_REPS = 11
MIN_PASSES = 2
IMPORT_CHECK = f"import sys; sys.path.insert(0, {str(SRC)!r}); import evalanche.cli"


def parse_args(argv: list[str] | None):
    p = argparse.ArgumentParser(description="evalanche benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", action="store_true",
                   help=f"store this run's output digests (seed {DEFAULT_SEED} only)")
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        p.error("--seed must be an unsigned 64-bit integer")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.record_digests and args.seed != DEFAULT_SEED:
        p.error(f"--record-digests needs --seed {DEFAULT_SEED}")
    return args


def import_library():
    """Import evalanche from this checkout's src/, never from elsewhere."""
    if not (SRC / "evalanche" / "__init__.py").is_file():
        raise SystemExit(f"error: no evalanche sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import evalanche
    import numpy

    if Path(evalanche.__file__).resolve().parent != SRC / "evalanche":
        raise SystemExit(f"error: evalanche was imported from {evalanche.__file__}, not {SRC}")
    return numpy


def machine(numpy) -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "EVALANCHE_THREADS": os.environ.get("EVALANCHE_THREADS"),
    }


def platform_key(numpy) -> str:
    """What output bytes depend on: interpreter, numpy and its SIMD targets."""
    features = getattr(numpy._core._multiarray_umath, "__cpu_features__", {})
    enabled = ",".join(sorted(k for k, v in features.items() if v))
    return (f"python {platform.python_version()} numpy {numpy.__version__} "
            f"{platform.machine()} [{enabled}]")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def setup(seed: int, run_dir: Path) -> tuple[list[float], list[float], list[dict], bool]:
    """Set up SETUP_REPS times; returns the raw times, the times at nominal
    machine speed (see ``speed.py``), each rep's input paths and whether
    every rep wrote byte-identical inputs."""
    from inputs import generate
    from speed import NOMINAL_IMPORT_S, REFERENCE_IMPORT, interpreter_s

    times, nominal, reps = [], [], []
    before = interpreter_s(REFERENCE_IMPORT)
    for i in range(SETUP_REPS):
        times.append(interpreter_s(IMPORT_CHECK))
        t0 = time.perf_counter()
        reps.append(generate(seed, run_dir / f"inputs-{i}"))
        times[-1] += time.perf_counter() - t0
        after = interpreter_s(REFERENCE_IMPORT)
        nominal.append(times[-1] * NOMINAL_IMPORT_S / ((before + after) / 2))
        before = after
    same = all(
        all(rep[k].read_bytes() == reps[0][k].read_bytes() for k in reps[0]) for rep in reps
    )
    return times, nominal, reps, same


@dataclass
class Pass:
    no: int
    traced: bool
    ops: list
    counters: dict
    wall: float  # speed-probe samples excluded
    elapsed: float  # speed-probe samples included, as in the spans
    cpu: float
    log_comb_calls: int
    norm: float  # wall at nominal machine speed (speed.SpeedProbe.nominal_s)
    slice_s: float  # median speed-probe slice time during the pass
    problems: dict = field(default_factory=dict)


def run_pass(wl, no: int, run_dir: Path, tracer, merging, numpy) -> Pass:
    from speed import SpeedProbe

    if tracer is not None:
        tracer.pass_no = no
    before = merging.log_comb.cache_info()
    c0 = time.process_time()
    with SpeedProbe(numpy) as probe:
        ops, counters = wl.run(run_dir / f"pass-{no}", tracer)
    cpu = time.process_time() - c0 - probe.probe_s
    after = merging.log_comb.cache_info()
    calls = (after.hits + after.misses) - (before.hits + before.misses)
    return Pass(no, tracer is not None, ops, counters, probe.wall_s, probe.end - probe.start,
                cpu, calls, probe.nominal_s, probe.slice_s)


def verify(wl, passes: list[Pass], seed: int, numpy, record: bool) -> list[str]:
    """Fill each pass's problems; returns run-level notes."""
    notes = []
    reference: dict[str, str] = {}
    for p in passes:
        try:
            p.problems = wl.verify(p.ops)
        except Exception as exc:  # a crash in a check fails every call of the pass
            p.problems = {op.label: [f"verification raised {exc!r}"] for op in p.ops}
        for op in p.ops:
            for key, digest in op.digests().items():
                if reference.setdefault(key, digest) != digest:
                    p.problems[op.label].append(f"{key} differs from pass {passes[0].no}")

    first = passes[0]
    if hasattr(wl, "check_first_seed"):
        first.problems[first.ops[0].label] += wl.check_first_seed(first.ops[0])

    if seed != DEFAULT_SEED:
        return notes
    stored = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    key = platform_key(numpy)
    if record:
        if stored.get("platform") != key:
            stored = {"platform": key, "workloads": {}}
        stored["workloads"][wl.name] = reference
        DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
        notes.append(f"digests: recorded {len(reference)} for {wl.name}")
    elif stored.get("platform") != key or wl.name not in stored.get("workloads", {}):
        notes.append("digests: not compared, none recorded for this platform and workload")
    else:
        want = stored["workloads"][wl.name]
        if set(want) != set(reference):
            first.problems[first.ops[0].label].append(
                f"output set {sorted(reference)} != recorded {sorted(want)}")
        for op in first.ops:
            for k, digest in op.digests().items():
                if want.get(k) != digest:
                    first.problems[op.label].append(f"{k} digest differs from the recorded one")
        notes.append(f"digests: compared {len(want)} with the recorded set")
    return notes


def layer_metrics(tracer, p: Pass, wl) -> dict[str, float]:
    """Per-layer values of one traced pass from its spans and counters."""
    from spans import durations, replay_time, self_times, total

    spans = tracer.of_pass(p.no)
    st = self_times(spans)
    m: dict[str, float] = dict(p.counters)
    m.update(wl.counters(p.ops))
    m["cli.simulate_s"] = total(spans, "cli.simulate")
    m["cli.matrix_s"] = total(spans, "cli.matrix")
    m["cli.diagonal_s"] = total(spans, "cli.diagonal") + total(spans, "cli.subdiag")
    m["cli.region_s"] = total(spans, "cli.region")
    m["cli.calls"] = sum(1 for s in spans if s.layer == "cli")
    m["cli.nonzero_exits"] = sum(1 for op in p.ops if op.code != 0) if m["cli.calls"] else 0
    for layer in ("cli", "simulate", "discovery", "formats"):
        m[f"{layer}.self_s"] = sum(st[s.id] for s in spans if s.layer == layer)

    runs = [s for s in spans if s.name == "simulate.run_experiment"]
    m["simulate.draw_streams_s"] = total(spans, "simulate.draw_streams")
    m["simulate.run_experiment_s"] = total(spans, "simulate.run_experiment")
    m["simulate.replicate_s"] = total(spans, "simulate.replicate")
    if runs:
        steps = p.counters["simulate.steps"] / p.counters["simulate.seeds"]
        m["simulate.seed_s"] = statistics.median(s.duration for s in runs)
        m["simulate.tracked_step_us"] = statistics.median(st[s.id] for s in runs) / steps * 1e6
    ranks = durations(spans, "martingales.rank")
    m["martingales.rank_us"] = statistics.median(ranks) * 1e6 if ranks else 0.0
    m["merging.suffix_esp_levels_us"] = total(spans, "merging.suffix_esp_levels") * 1e6

    matrix_s = 0.0
    for tag in ("k200_u1", "k200_u2", "k200_mix", "k500_u1"):
        m[f"discovery.matrix_{tag}_s"] = total(spans, f"discovery.matrix_{tag}")
        matrix_s += m[f"discovery.matrix_{tag}_s"]
    m["discovery.cell_us"] = matrix_s / m["discovery.cells"] * 1e6 if m.get("discovery.cells") else 0.0
    for name in ("regularize", "diagonal_row", "subdiagonal_row", "confidence_region"):
        m[f"discovery.{name}_s"] = total(spans, f"discovery.{name}")
    for name in ("series_records", "series_csv", "series_svg", "matrix_csv", "heatmap_svg",
                 "parse_values_csv", "parse_matrix_csv"):
        m[f"formats.{name}_s"] = total(spans, f"formats.{name}")

    wall = p.elapsed - replay_time(spans)
    m["trace.wall_s"] = wall
    m["trace.coverage"] = sum(st.values()) / wall
    return m


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    numpy = import_library()
    from evalanche import merging
    from spans import Tracer
    from workloads import WORKLOADS

    info = machine(numpy)
    print("machine: " + json.dumps(info, sort_keys=True))
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        setup_times, setup_nominal, reps, inputs_same = setup(args.seed, run_dir)
        setup_s = statistics.median(setup_nominal)
        print(f"setup_s: median={setup_s:.4f} reps={[round(t, 4) for t in setup_nominal]}; "
              f"raw median={statistics.median(setup_times):.4f} "
              f"reps={[round(t, 4) for t in setup_times]}; "
              f"process start to first pass {time.perf_counter() - PROCESS_START:.4f}")
        wl = WORKLOADS[args.workload](reps[0])
        tracer = Tracer() if args.trace else None

        passes: list[Pass] = []
        measured = 0.0
        while measured < args.seconds or len(passes) < MIN_PASSES:
            for t in (None, tracer) if tracer else (None,):
                p = run_pass(wl, len(passes), run_dir, t, merging, numpy)
                passes.append(p)
                measured += p.wall
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        notes = verify(wl, passes, args.seed, numpy, args.record_digests)
        attempted = 1 + sum(len(p.ops) for p in passes)
        failed = (not inputs_same) + sum(
            1 for p in passes for op in p.ops if p.problems.get(op.label))

        untraced = [p for p in passes if not p.traced]
        wall = quartiles([p.wall for p in untraced])
        norm = quartiles([p.norm for p in untraced])
        for p in passes:
            print(f"pass {p.no}: traced={int(p.traced)} wall_s={p.wall:.4f} "
                  f"process.cpu_s={p.cpu:.4f} slice_s={p.slice_s:.6f} "
                  f"norm_wall_s={p.norm:.4f} ops={len(p.ops)}")
            for label, problems in sorted(p.problems.items()):
                for problem in problems:
                    print(f"FAIL pass {p.no} {label}: {problem}")
        if not inputs_same:
            print("FAIL setup: input generation is not deterministic")
        for name, (q1, med, q3) in (("wall_s", wall), ("norm_wall_s", norm)):
            print(f"{name}: median={med:.4f} q1={q1:.4f} q3={q3:.4f} passes={len(untraced)}")
        for note in notes:
            print(note)
        print(f"failed_ratio: {failed}/{attempted}")

        if args.trace:
            traced = [layer_metrics(tracer, p, wl) for p in passes if p.traced]
            values = {m["name"]: statistics.median(t.get(m["name"], 0.0) for t in traced)
                      for m in BENCHMARK["per_layer"]}
            values["run.wall_s"] = wall[1]
            values["run.slice_s"] = statistics.median(p.slice_s for p in passes)
            values["process.cpu_s"] = statistics.median(p.cpu for p in untraced)
            values["merging.log_comb_calls"] = statistics.median(
                p.log_comb_calls for p in untraced)
            values["trace.overhead_ratio"] = statistics.median(
                t["trace.wall_s"] / p.slice_s
                for t, p in zip(traced, (p for p in passes if p.traced))
            ) / statistics.median(p.elapsed / p.slice_s for p in untraced)
            values["failed_ratio"] = failed / attempted
            kind = "per_layer"
        else:
            values = {"norm_wall_s": norm[1], "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
            kind = "end_to_end"
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in BENCHMARK[kind]}
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": metrics}

        results = WORK / "results"
        results.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        (results / f"{stem}.json").write_text(json.dumps({
            **result, "machine": info, "setup_reps_s": setup_times,
            "setup_reps_nominal_s": setup_nominal,
            "wall_s": dict(zip(("q1", "median", "q3"), wall), passes=len(untraced)),
            "norm_wall_s": dict(zip(("q1", "median", "q3"), norm), passes=len(untraced)),
            "passes": [{"no": p.no, "traced": p.traced, "wall_s": p.wall, "cpu_s": p.cpu,
                        "norm_wall_s": p.norm, "slice_s": p.slice_s, "problems": p.problems}
                       for p in passes],
            "notes": notes,
        }, indent=1, sort_keys=True) + "\n")
        if tracer is not None:
            tracer.write_jsonl(results / f"{stem}.spans.jsonl")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
