"""Benchmark of the hilbert_hodge package.

    python3 bench/run.py --workload oracle-large --seed 1 --seconds 26 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` of that checkout and nowhere else.  Each workload runs in this one
process and thread as a closed loop: one pass runs every item of the
workload once, and the next pass starts when the previous one has ended,
for ``--seconds`` seconds (at least one pass).  The items are described in
``workloads.py``.

``--trace 0`` prints the end-to-end metrics.  ``wall_ref`` is the time of
a pass in units of a fixed reference computation: before every item and
after the last, the reference runs back to back for a quarter of the
item's time; each item's time is divided by the mean reference time of the
bursts on either side, and the per-item medians over the passes are
summed.  On a host shared with other work the same pass can take up to
twice its quiet time from one minute to the next, and the reference slows
with it, so the ratio stays steady where raw seconds do not.
``peak_rss_mb`` is the peak resident memory of this process when the
timed part ends, before outputs are checked.  ``setup_s`` is the median
over several fresh processes of the time from process start to the first
item: importing the package and generating the inputs.

``--trace 1`` alternates untraced and traced passes and prints the
per-layer figures of the traced passes (medians of times, counts of the
first traced pass), the tracing overhead and the source line counts.
Spans go to ``.bench_out/<workload>/spans.tsv.gz``.  The counts named in
``EXACT_COUNTS`` must repeat exactly between traced passes and between
runs of the same code, workload and seed (kept in
``.bench_out/exact_counts.json``); if they do not, the run is reported
as not correct.

Every item goes through its correctness gate after the timed part.  The
line before the result holds the run's details: ``wall_s`` (median pass
time, the highest percentile with ten passes beyond it and the pass
count), ``fail_frac``, the failures, the Python version, ``nproc`` and
the line counts of the package's modules.
The run refuses to start under ``python -O`` or with ``PYTHONOPTIMIZE``
set, because the package's ``__debug__`` checks are part of the measured
work, and it ignores ``HILBERT_HODGE_ORACLE_CAP``.  Exit status 0 with a
result, 2 when refused.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 9
REFERENCE_STEPS = 200_000
REFERENCE_SHARE = 0.25

END_TO_END = {"wall_ref": "ref", "peak_rss_mb": "MB", "setup_s": "s"}

# Which end-to-end metric each layer should move, and where: linalg and
# higgs move wall_ref on oracle-large (heavy) and verify-sweep (light), never
# on table-wide; kunneth and consistency move wall_ref on verify-sweep;
# tables and serialize move wall_ref and peak_rss_mb on table-wide and
# verify-sweep; cli moves setup_s and wall_ref.
PER_LAYER = {
    "linalg.rank.calls": "count",
    "linalg.rank.s": "s",
    "linalg.rank.cells": "count",
    "linalg.rank.max_rows": "count",
    "higgs.build.calls": "count",
    "higgs.build.s": "s",
    "higgs.basis_elements": "count",
    "higgs.validate.s": "s",
    "higgs.homology.calls": "count",
    "higgs.homology.self_s": "s",
    "higgs.blocks": "count",
    "higgs.entry_hit_ratio": "ratio",
    "higgs.monomial.calls": "count",
    "kunneth.closed_form.calls": "count",
    "kunneth.closed_form.s": "s",
    "kunneth.weight_counts.calls": "count",
    "kunneth.weight_counts.s": "s",
    "kunneth.count_N.calls": "count",
    "kunneth.count_N.s": "s",
    "tables.mhs_table.calls": "count",
    "tables.mhs_table.self_s": "s",
    "tables.gr_F_labels.calls": "count",
    "tables.gr_F_labels.s": "s",
    "tables.gr_F_labels.labels": "count",
    "tables.sheaf_cohomology_dim.calls": "count",
    "tables.sheaf_cohomology_dim.s": "s",
    "tables.ih_table.s": "s",
    "tables.eisenstein_data.s": "s",
    "consistency.oracle_equivalence.self_s": "s",
    "consistency.table_identities.self_s": "s",
    "consistency.euler_ih.s": "s",
    "consistency.hrr.s": "s",
    "consistency.results": "count",
    "consistency.skipped": "count",
    "serialize.document.s": "s",
    "serialize.dump_json.s": "s",
    "serialize.output_bytes": "bytes",
    "cli.resolve.s": "s",
    "cli.emit.s": "s",
    "trace.overhead_s": "s",
}
SRC_MODULES = (
    "__init__", "cli", "consistency", "errors", "higgs", "kunneth", "linalg",
    "model", "serialize", "tables",
)
PER_LAYER.update({f"src.loc.{module}": "lines" for module in SRC_MODULES})
PER_LAYER["src.loc.total"] = "lines"

# counts that repeat exactly for the same code, workload and seed
EXACT_COUNTS = (
    "linalg.rank.calls",
    "higgs.basis_elements",
    "higgs.blocks",
    "tables.gr_F_labels.labels",
    "consistency.results",
    "serialize.output_bytes",
)


class Refused(Exception):
    """The run cannot measure the program it is meant to measure."""


def _guard() -> None:
    if sys.flags.optimize or not __debug__:
        raise Refused("refusing to run under python -O: it strips the "
                      "package's __debug__ checks")
    if os.environ.get("PYTHONOPTIMIZE"):
        raise Refused("refusing to run with PYTHONOPTIMIZE set")
    if not (SRC / "hilbert_hodge" / "__init__.py").is_file():
        raise Refused(f"no package source at {SRC / 'hilbert_hodge'}")
    os.environ.pop("HILBERT_HODGE_ORACLE_CAP", None)


def _import_package():
    """Import hilbert_hodge from this checkout's src/ only."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hilbert_hodge

    if Path(hilbert_hodge.__file__).resolve().parent != SRC / "hilbert_hodge":
        raise Refused(f"imported hilbert_hodge from {hilbert_hodge.__file__}")
    import tracing
    import workloads

    return tracing, workloads


def _setup_seconds(workload: str, seed: int, size: str) -> list[float]:
    """Set-up times of fresh processes: spawn to inputs generated."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        spawned = time.monotonic()
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload,
             "--seed", str(seed), "--size", size],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(probe.stdout.split()[-1]) - spawned)
    return samples


def _tail(values: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    rank = len(ordered) - 10
    if rank < 1:
        return None
    return {"percentile": round(100 * rank / len(ordered), 1),
            "value": ordered[rank - 1]}


def _src_loc() -> dict[str, int]:
    loc = {}
    for module in SRC_MODULES:
        path = SRC / "hilbert_hodge" / f"{module}.py"
        loc[f"src.loc.{module}"] = (
            len(path.read_text(encoding="utf-8").splitlines()) if path.exists() else 0
        )
    loc["src.loc.total"] = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in (SRC / "hilbert_hodge").rglob("*.py")
    )
    return loc


def _code_hash() -> str:
    digest = hashlib.sha256()
    for base in (SRC, Path(__file__).resolve().parent):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _compare_with_record(key: str, counts: dict, record: Path) -> str:
    """Compare exact counts with an earlier run of the same code, workload
    and seed, kept in ``record``; store them when there is none."""
    try:
        known = json.loads(record.read_text(encoding="utf-8"))
    except FileNotFoundError:
        known = {}
    if key in known:
        return "match" if known[key] == counts else f"differs from {known[key]}"
    known[key] = counts
    record.write_text(json.dumps(known, sort_keys=True, indent=1), encoding="utf-8")
    return "recorded"


def _reference_seconds() -> float:
    """Time of a fixed pure-Python computation, with the collector off.

    It mixes what the package spends its time on, dict lookups with tuple
    keys and small-integer arithmetic, so interference from other work on
    the host slows it about as much as the item next to it.  Its table
    stays small, so it adds nothing to the peak memory of a run."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        began = time.perf_counter()
        table: dict = {}
        for i in range(REFERENCE_STEPS):
            key = (i & 1023, (i >> 10) & 3)
            table[key] = table.get(key, 0) + i * 3 + (i >> 2)
        return time.perf_counter() - began
    finally:
        if collecting:
            gc.enable()


def _reference_burst(budget: float) -> list[float]:
    """Reference times, run back to back until they add up to ``budget``
    (at least one)."""
    samples = [_reference_seconds()]
    while sum(samples) < budget:
        samples.append(_reference_seconds())
    return samples


def _timed_loop(items, seconds: float, tracer, out_dir: Path):
    """Passes over ``items`` for ``seconds`` (at least one pass; with a
    tracer, untraced and traced passes alternate and at least one of each
    runs).  A burst of the reference computation runs before every item
    and after the last one, taking ``REFERENCE_SHARE`` of the item's time.

    Returns, for untraced and traced passes, each pass's item times and
    reference bursts (one more than items); the observations ``(pass, item,
    observation, error)``; and the per-layer figures of each traced pass."""
    times = {False: [], True: []}
    references = {False: [], True: []}
    observed = []
    layer_passes = []
    start = time.perf_counter()
    pass_index = 0
    while not (time.perf_counter() - start >= seconds and pass_index > 0
               and (tracer is None or times[True])):
        traced = tracer is not None and pass_index % 2 == 1
        run_item = [item.run for item in items]
        if traced:
            tracer.begin_pass(pass_index)
            tracer.install()
            run_item = [tracer.wrap("item", fn) for fn in run_item]
        raws, durations = [], []
        bursts = [_reference_burst(0)]
        for index in range(len(items)):
            if traced:
                tracer.item = index
            began = time.perf_counter()
            try:
                raws.append((run_item[index](out_dir / f"item{index}.tmp"), ""))
            except Exception:
                raws.append((None, traceback.format_exc(limit=-3)))
            durations.append(time.perf_counter() - began)
            bursts.append(_reference_burst(REFERENCE_SHARE * durations[-1]))
        times[traced].append(durations)
        references[traced].append(bursts)
        if traced:
            tracer.uninstall()
            layer_passes.append(tracer.pass_metrics())
        for index, (raw, error) in enumerate(raws):
            obs = None if error else items[index].observe(
                raw, out_dir / f"item{index}.tmp")
            observed.append((pass_index, index, obs, error))
        pass_index += 1
    return times, references, observed, layer_passes


def _gate(items, observed) -> list[str]:
    """Failures of the observed items, one per failed item; equal
    observations of one item are checked once."""
    verdicts: dict = {}
    failures = []
    for pass_index, index, obs, error in observed:
        if not error and (index, obs) not in verdicts:
            try:
                verdicts[index, obs] = items[index].check(obs)
            except Exception:
                verdicts[index, obs] = [
                    f"{items[index].label}: gate raised "
                    + traceback.format_exc(limit=-1).strip()
                ]
        problems = [error.strip()] if error else verdicts[index, obs]
        if problems:
            failures.append(f"pass {pass_index}: {problems[0]}")
    return failures


def _relative(times: list[list[float]], references: list[list[list[float]]]):
    """Each item's time over the mean reference time of the two bursts
    around it."""
    return [
        [t / ((statistics.fmean(bursts[i]) + statistics.fmean(bursts[i + 1])) / 2)
         for i, t in enumerate(durations)]
        for durations, bursts in zip(times, references)
    ]


def _typical_pass(passes: list[list[float]]) -> float:
    """Sum over items of each item's median across passes."""
    return sum(statistics.median(column) for column in zip(*passes))


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  size: str = "full", out: Path = OUT) -> tuple[dict, dict]:
    """One benchmark run; returns the result object and the run's details."""
    tracing, workloads = _import_package()
    setup = _setup_seconds(workload, seed, size)
    items, seed_used = workloads.make_items(workload, seed, size)
    out_dir = out / workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    tracer = tracing.Tracer() if trace else None

    times, references, observed, layer_passes = _timed_loop(
        items, seconds, tracer, out_dir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = _gate(items, observed)
    attempted, failed = len(observed), len(failures)

    wall_ref = _typical_pass(_relative(times[False], references[False]))
    pass_walls = [sum(p) for p in times[False]]
    detail = {
        "workload": workload, "seed": seed, "seed_used": seed_used, "size": size,
        "trace": int(trace), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "items": [item.label for item in items],
        "wall_s": {"value": statistics.median(pass_walls), "unit": "s",
                   "tail": _tail(pass_walls), "passes": len(pass_walls)},
        "pass_wall_s": pass_walls,
        "reference_s": statistics.fmean(
            x for bursts in references[False] for burst in bursts for x in burst),
        "fail_frac": {"value": failed / attempted, "unit": "1"},
        "failures": failures[:20],
        "setup_s_samples": setup,
        "src_loc": _src_loc(),
    }
    broken = []
    if trace:
        first = layer_passes[0]
        layer = {
            name: statistics.median(p.get(name, 0) for p in layer_passes)
            if unit == "s" else first.get(name, 0)
            for name, unit in PER_LAYER.items()
        }
        exact = {name: first.get(name, 0) for name in EXACT_COUNTS}
        if any({n: p.get(n, 0) for n in EXACT_COUNTS} != exact for p in layer_passes):
            broken.append("exact counts differ between traced passes")
        key = f"{workload}|seed={seed}|size={size}|code={_code_hash()[:16]}"
        verdict = _compare_with_record(key, exact, out / "exact_counts.json")
        if verdict.startswith("differs"):
            broken.append(f"exact counts {exact} {verdict}")
        traced_walls = [sum(p) for p in times[True]]
        layer["trace.overhead_s"] = (
            statistics.median(traced_walls) - statistics.median(pass_walls))
        layer.update(detail["src_loc"])
        detail.update(traced_pass_wall_s=traced_walls,
                      exact_counts=exact, exact_counts_check=verdict, broken=broken)
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
        tracer.write_spans(out_dir / "spans.tsv.gz")
    else:
        values = {"wall_ref": wall_ref, "peak_rss_mb": peak_rss_mb,
                  "setup_s": statistics.median(setup)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    result = {"correct": failed == 0 and not broken, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("oracle-large", "verify-sweep", "table-wide"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=26)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the same workload on small inputs, for tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        _guard()
        if args.setup_probe:
            _, workloads = _import_package()
            workloads.make_items(args.workload, args.seed, args.size)
            print(time.monotonic())
            return 0
        result, detail = run_benchmark(args.workload, args.seed, args.seconds,
                                       bool(args.trace), args.size)
    except Refused as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
