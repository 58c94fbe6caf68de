"""The benchmark's three workloads: inputs from a seed, items, and gates.

A workload is a list of items run in order, once per pass.  An item's
``run(path)`` is the timed call into the package; ``observe(raw, path)``
turns what it produced into a hashable observation after the pass, and
``check(observation)`` is the item's correctness gate, which returns the
failures it found.  Equal observations of one item are checked once.

* ``oracle-large``: ``full_homology`` on a few large systems, compared cell
  by cell with the closed form.  Almost all ``higgs`` and ``linalg``: few
  but large complexes; the workload where a faster oracle must show.
* ``verify-sweep``: the ``verify`` sweep through ``cli.main``, with the
  default bounds except weights up to 2.  972 tiny complexes, 1,290 small
  tables and 12,702 check results; the only workload for ``consistency``.
* ``table-wide``: ``cli.main(["table", ...])`` at n = 11 and 12.  ``tables``
  and ``serialize`` at scale with no ``higgs`` or ``linalg`` at all, where
  an oracle optimisation must show no change.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
from math import comb, prod
from pathlib import Path

from hilbert_hodge import cli, higgs, kunneth, serialize
from hilbert_hodge.model import validate_spec

# Every item takes a few seconds at most, so that a run repeats each item
# and every item sits between two nearby reference bursts.  Measured on a
# 2-core x86 host with Python 3.11: oracle-large items take 1.5 to 3.5 s
# (4^5 at 10 s and 2^6 at 5 s are left out); the default verify sweep is a
# single 8 to 15 s call, so verify-sweep caps the weights at 2 (3 s); the
# n = 12 table takes 2.5 s.
ORACLE_WEIGHTS = {
    "full": ((4, 3, 2, 4, 3), (3, 3, 3, 3, 3), (1, 1, 1, 1, 1, 1, 1)),
    "tiny": ((2, 1, 1), (1, 1)),
}
VERIFY_ARGV = {
    "full": ["verify", "--max-m", "2", "--format", "json"],
    "tiny": ["verify", "--max-n", "2", "--max-m", "1", "--format", "json"],
}
# (n of the parallel system, n of the general one)
TABLE_DIMENSIONS = {"full": (12, 11), "tiny": (4, 3)}


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class OracleItem:
    """``full_homology(spec)`` against ``cohomology_sheaf_closed_form``."""

    def __init__(self, m: tuple[int, ...]) -> None:
        self.spec = validate_spec(len(m), m)
        self.label = f"full_homology m={m}"

    def run(self, path: Path):
        return higgs.full_homology(self.spec)

    def observe(self, result, path: Path):
        return tuple((key, tuple(monos)) for key, monos in result.sorted_cells())

    def check(self, cells) -> list[str]:
        closed = kunneth.cohomology_sheaf_closed_form(self.spec)
        want = dict((key, tuple(monos)) for key, monos in closed.sorted_cells())
        have = dict(cells)
        return [
            f"{self.label}: cell {key} has {have.get(key)} but the closed form "
            f"has {want.get(key)}"
            for key in sorted(set(want) | set(have))
            if have.get(key) != want.get(key)
        ]


class CliItem:
    """``cli.main(argv)`` with stdout written to a file.

    The first output with a given digest is kept for the gate; later passes
    that write the same bytes share its verdict.
    """

    def __init__(self, index: int, argv: list[str], gate) -> None:
        self.index = index
        self.argv = argv
        self.gate = gate
        self.label = "hilbert-hodge " + " ".join(argv)
        self.kept: dict[str, Path] = {}

    def run(self, path: Path) -> int:
        with open(path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            return cli.main(self.argv)

    def observe(self, status: int, path: Path):
        digest = _sha256(path)
        if digest in self.kept:
            path.unlink()
        else:
            kept = path.with_name(f"item{self.index}-{digest[:16]}.out")
            os.replace(path, kept)
            self.kept[digest] = kept
        return status, digest

    def check(self, observation) -> list[str]:
        status, digest = observation
        text = self.kept[digest].read_text(encoding="utf-8")
        return [f"{self.label}: {problem}" for problem in self.gate(status, text)]


def _verify_gate(status: int, text: str) -> list[str]:
    summary = json.loads(text)["summary"]
    problems = [] if status == 0 else [f"exit status {status}"]
    problems += [
        f"summary {key} is {summary[key]!r}, expected {want!r}"
        for key, want in (("ok", True), ("failed", 0), ("skipped", 0))
        if summary[key] != want
    ]
    return problems


def _table_gate(n: int, m: tuple[int, ...], cusps: int, genus: int):
    """Round trip through ``tables_from_document``, then the dimensions of
    every ``H^k`` against the closed formulas recomputed here."""
    parallel = len(set(m)) == 1
    rank = prod(mi + 1 for mi in m)
    want = {k: 0 for k in range(2 * n + 1)}
    want[n] = 2**n * (genus + (-1) ** n) * rank + (cusps if parallel else 0)
    for k in range(n + 1, 2 * n + 1):
        want[k] = comb(n - 1, k - n) * cusps if parallel else 0

    def gate(status: int, text: str) -> list[str]:
        if status != 0:
            return [f"exit status {status}"]
        spec, inv, mhs, ih, eis = serialize.tables_from_document(json.loads(text))
        problems = []
        if (spec.n, spec.m, inv.cusps, inv.genus) != (n, m, cusps, genus):
            problems.append(f"document describes n={spec.n} m={spec.m} "
                            f"h={inv.cusps} g={inv.genus}")
        again = serialize.dump_json(serialize.table_document(spec, inv, mhs, ih, eis))
        if again != text:
            problems.append("output does not round-trip through tables_from_document")
        have = {k: row.dim for k, row in mhs.rows.items()}
        problems += [
            f"dim H^{k} is {have.get(k)}, expected {want.get(k)}"
            for k in sorted(set(want) | set(have))
            if have.get(k) != want.get(k)
        ]
        return problems

    return gate


def make_items(name: str, seed: int, size: str) -> tuple[list, bool]:
    """The items of one pass and whether the seed changed them."""
    rng = random.Random(seed)
    if name == "oracle-large":
        # the seed permutes factors and systems; the cost stays the same
        systems = [tuple(rng.sample(m, len(m))) for m in ORACLE_WEIGHTS[size]]
        rng.shuffle(systems)
        return [OracleItem(m) for m in systems], True
    if name == "verify-sweep":
        return [CliItem(0, VERIFY_ARGV[size], _verify_gate)], False
    if name == "table-wide":
        n_parallel, n_general = TABLE_DIMENSIONS[size]
        general = (0,) * n_general
        while len(set(general)) == 1:  # neither trivial nor parallel
            general = tuple(rng.randint(0, 3) for _ in range(n_general))
        systems = [((rng.randint(1, 3),) * n_parallel), general]
        items = []
        for index, m in enumerate(systems):
            n = len(m)
            cusps = rng.randint(1, 6)
            genus = rng.randint(1 if n % 2 else 0, 4)  # genus + (-1)^n >= 0
            argv = [
                "table", "--n", str(n), "--m", ",".join(map(str, m)),
                "--cusps", str(cusps), "--genus", str(genus), "--format", "json",
            ]
            items.append(CliItem(index, argv, _table_gate(n, m, cusps, genus)))
        return items, True
    raise ValueError(f"unknown workload {name!r}")
