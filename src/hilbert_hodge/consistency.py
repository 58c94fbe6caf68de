"""Cross-validation suite tying independent formulas to each other.

Each check pits two independently derived quantities against one another:

* ``oracle_equivalence`` -- chain-complex homology (exact integer ranks)
  against the closed-form sheaf matrix, as monomial multisets;
* ``chain_property`` -- d o d = 0 and monomial grading on every complex;
* ``hrr`` -- the Riemann-Roch route to the dimension of square-integrable
  sections against the direct formula;
* ``euler_ih`` -- the alternating sum of the intersection-cohomology part
  of each assembled table against rank times the constant-coefficient
  alternating sum;
* ``hodge_symmetry`` -- ``h^{p,q} = h^{q,p}`` in every degree of the
  assembled table;
* ``table_assembly`` -- recorded only on failure, in place of the two
  above: the table's own checks, such as the sums of the Hodge numbers and
  Gr_F against the dimension dictionary on every piece the dictionary
  covers, where a miss fails like a wrong sum;
* ``subset_counts`` -- the subset counts ``N(m, P)`` against the weight
  counts: their sum, agreement and complement symmetry.  They depend on
  ``m`` alone, so they are checked once per system, not per variety.

Failures never abort a sweep; they are collected into the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby, product as iter_product
from math import comb

from . import higgs
from .errors import ConfigError, InconsistentInvariants
from .higgs import build_log_higgs_complex, homology
from .kunneth import cohomology_sheaf_closed_form, count_N, weight_counts
from .model import LocalSystemSpec, VarietyInvariants, validate_spec
from .tables import IhTable, gr_F_label_rows, mhs_table


@dataclass(frozen=True)
class CheckResult:
    name: str
    params: str
    status: str  # "pass" | "fail"
    lhs: str = ""
    rhs: str = ""

    @property
    def ok(self) -> bool:
        return self.status != "fail"


@dataclass
class CheckReport:
    """Accumulated results; failing entries never stop the sweep."""

    results: list[CheckResult] = field(default_factory=list)

    def record(self, name: str, params: str, lhs, rhs) -> None:
        status = "pass" if lhs == rhs else "fail"
        self.results.append(CheckResult(name, params, status, repr(lhs), repr(rhs)))

    def fail(self, name: str, params: str, reason: str) -> None:
        self.results.append(CheckResult(name, params, "fail", reason, ""))

    def extend(self, other: "CheckReport") -> None:
        self.results.extend(other.results)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def counts(self) -> tuple[int, int]:
        passed = sum(1 for r in self.results if r.status == "pass")
        failed = sum(1 for r in self.results if r.status == "fail")
        return passed, failed

    def sorted_results(self) -> list[CheckResult]:
        return sorted(self.results, key=lambda r: (r.name, r.params))


SWEEP_GENERA = (0, 1, 2, 3)  # the genus and cusp grids of every table sweep
SWEEP_CUSPS = (1, 2, 5)
# the largest sweeps each budget admits, timed as one CLI run on a 2-core host
RESULT_BUDGET = 10**5  # results per sweep: admits --max-n 1 --max-m 443 (1.3 s)
BLOCK_BUDGET = 2 * 10**5  # oracle blocks per sweep: admits --max-n 16 --max-m 0 (2.5 s)


def sweep_invariants(n: int):
    """The invariants on the genus and cusp grids that dimension n admits."""
    for g, h in iter_product(SWEEP_GENERA, SWEEP_CUSPS):
        try:
            inv = VarietyInvariants(n, h, g)
        except InconsistentInvariants:
            continue
        yield inv


@dataclass(frozen=True)
class SweepBounds:
    """Bounds of the verification sweep: table checks for every non-trivial
    system with ``2 <= n <= max_n`` and weights up to ``max_m`` over the
    genus and cusp grids, and the homology oracle also at ``n = 1``.  A sweep
    over ``higgs.ORACLE_CAP`` basis elements in all, over ``BLOCK_BUDGET``
    blocks or over ``RESULT_BUDGET`` results is refused before any work.
    """

    max_n: int = 4
    max_m: int = 3

    def __post_init__(self) -> None:
        # a sweep over nothing would report OK without checking anything
        if self.max_n < 1:
            raise ConfigError(f"max_n must be >= 1, got {self.max_n}")
        if self.max_m < 0:
            raise ConfigError(f"max_m must be >= 0, got {self.max_m}")
        n, elements, blocks, _, results = self.sizes()
        if elements > higgs.ORACLE_CAP or blocks > BLOCK_BUDGET or results > RESULT_BUDGET:
            raise ConfigError(
                f"sweep too large: up to n = {n} it builds {elements} basis elements "
                f"(cap {higgs.ORACLE_CAP}) in {blocks} blocks (budget {BLOCK_BUDGET}) "
                f"and records {results} results (budget {RESULT_BUDGET})"
            )

    def sizes(self) -> tuple[int, int, int, int, int]:
        """``(n, elements, blocks, tables, results)`` in closed form, summed up
        to ``max_n`` or to the first ``n`` whose sum passes ``higgs.ORACLE_CAP``.
        A weight ``m_i`` gives ``m_i + 2`` block values ``-1 <= s_i <= m_i``."""
        w = self.max_m + 1  # weights per factor
        elements = blocks = tables = results = 0
        for n in range(1, self.max_n + 1):
            elements += (w * (w + 1)) ** n
            blocks += (w * (w + 3) // 2) ** n
            # |m| + n + 1 slices and one chain check per system
            results += w**n * (n * (w + 1) + 4) // 2
            if n >= 2:  # three subset counts per non-trivial system
                tables += (w**n - 1) * len(list(sweep_invariants(n)))
                results += 3 * (w**n - 1)
            if elements > higgs.ORACLE_CAP:
                break
        return n, elements, blocks, tables, results + 3 * tables  # three per table


def _iter_weights(n: int, max_m: int):
    return iter_product(range(max_m + 1), repeat=n)


def _fmt(spec: LocalSystemSpec, inv: VarietyInvariants | None = None, **extra) -> str:
    parts = [f"n={spec.n}", f"m={spec.m}"]
    if inv is not None:
        parts.append(f"g={inv.genus}")
        parts.append(f"h={inv.cusps}")
    parts.extend(f"{k}={v}" for k, v in extra.items())
    return " ".join(parts)


def _cell_list(sorted_cells) -> list[str]:
    """Every monomial of the given cells, as ``"(P,l) monomial"``."""
    return [f"({P},{l}) {mono}" for (P, l), monos in sorted_cells for mono in monos]


def check_oracle_equivalence(bounds: SweepBounds) -> CheckReport:
    """Homology of every slice equals the closed form, cell by cell.

    One result per (n, m, P); an assertion inside ``homology`` is a failure
    of that result.  The grading, then the chain property, of every complex
    is checked alongside, one aggregated result per (n, m), so an entry
    outside its block is a recorded failure.  ``SweepBounds`` has refused
    any sweep over the oracle cap, so every slice is built; all slices share
    one Koszul store, one plan store and one rank store, made for this sweep,
    so a block equal in sizes and entries to one of any earlier slice of any
    system is ranked once.
    """
    report = CheckReport()
    koszul, plans, ranks = {}, {}, {}
    for n in range(1, bounds.max_n + 1):
        for m in _iter_weights(n, bounds.max_m):
            spec = validate_spec(n, m)
            closed = cohomology_sheaf_closed_form(spec).sorted_cells()
            chain_ok = True
            for P in range(spec.weight + spec.n + 1):
                params = _fmt(spec, P=P)
                cx = build_log_higgs_complex(spec, P, koszul)
                try:
                    cx.verify_monomial_grading()
                    cx.verify_chain_property(plans)
                except AssertionError as exc:
                    chain_ok = False
                    report.fail("chain_property", params, str(exc))
                    continue
                try:
                    got = homology(cx, ranks)
                except AssertionError as exc:
                    report.fail("oracle_equivalence", params, str(exc))
                    continue
                have, want = got.sorted_cells(), [c for c in closed if c[0][0] == P]
                text = _cell_list(want)  # equal cells give equal texts
                lhs = text if have == want else _cell_list(have)
                report.record("oracle_equivalence", params, lhs, text)
            if chain_ok:
                report.record("chain_property", _fmt(spec), 0, 0)
    return report


def constant_coefficient_ih_dim(n: int, genus: int, i: int) -> int:
    """Middle-perversity cohomology with constant coefficients.

    Reference data for the Euler-characteristic cross-check, encoded as
    the three-case table in terms of ``chi_O = 1 + (-1)^n * genus``:
    ``binom(n, i/2)`` for even ``i != n``, ``(-2)^n (chi_O - 1)`` for odd
    ``i = n``, and the sum of both expressions for even ``i = n``.
    """
    if not 0 <= i <= 2 * n:
        return 0
    chi = 1 + (-1) ** n * genus
    if i != n:
        return comb(n, i // 2) if i % 2 == 0 else 0
    middle = (-2) ** n * (chi - 1)
    if n % 2 == 0:
        middle += comb(n, n // 2)
    return middle


def check_euler_ih(ih: IhTable) -> CheckReport:
    """Alternating IH sum = rank times the constant-coefficient sum."""
    spec, inv = ih.spec, ih.inv
    report = CheckReport()
    lhs = sum((-1) ** i * d for i, d in enumerate(ih.dims))
    rhs = spec.rank * sum(
        (-1) ** i * constant_coefficient_ih_dim(spec.n, inv.genus, i)
        for i in range(2 * spec.n + 1)
    )
    report.record("euler_ih", _fmt(spec, inv), lhs, rhs)
    return report


def check_hrr(spec: LocalSystemSpec, inv: VarietyInvariants) -> CheckReport:
    """Riemann-Roch route to D versus the direct formula.

    The Euler characteristic of the dual-weight monomial is
    ``(rank - 1) * chi_O + chi_O`` up to the sign ``(-1)^n``; it must equal
    ``(g + (-1)^n) * rank``, for the trivial system as for any other.
    """
    report = CheckReport()
    params = _fmt(spec, inv)
    lhs = (-1) ** spec.n * ((spec.rank - 1) * inv.chi_O + inv.chi_O)
    rhs = inv.l2_dim(spec)
    report.record("hrr", params, lhs, rhs)
    return report


def check_subset_counts(spec: LocalSystemSpec) -> CheckReport:
    """Branch-and-bound ``count_N`` against the generating-function
    ``weight_counts``, their sum ``2^n`` and their complement symmetry."""
    report = CheckReport()
    params = _fmt(spec)
    counts = weight_counts(spec.m)
    report.record("subset_count_sum", params, sum(counts), 2**spec.n)
    by_branching = tuple(count_N(spec.m, P) for P in range(spec.weight + spec.n + 1))
    report.record("subset_count_agreement", params, by_branching, counts)
    report.record("subset_count_symmetry", params, counts, tuple(reversed(counts)))
    return report


def check_table_identities(
    spec: LocalSystemSpec, inv: VarietyInvariants, labels=None
) -> CheckReport:
    """One assembled table: :func:`check_euler_ih` on its IH part and the
    symmetry of its Hodge numbers.  A table that fails its own assembly
    checks, IH and boundary data included, is one ``table_assembly``
    failure and nothing else."""
    params = _fmt(spec, inv)
    try:
        table = mhs_table(spec, inv, labels)
    except AssertionError as exc:
        report = CheckReport()
        report.fail("table_assembly", params, str(exc))
        return report
    report = check_euler_ih(table.ih)
    symmetric = all(
        row.hodge.get((q, p)) == d
        for row in table.rows.values()
        for (p, q), d in row.hodge.items()
    )
    report.record("hodge_symmetry", params, symmetric, True)
    return report


def iter_table_inputs(bounds: SweepBounds):
    """All valid (spec, invariants) pairs inside the sweep bounds."""
    for n in range(2, bounds.max_n + 1):
        invariants = list(sweep_invariants(n))
        for m in _iter_weights(n, bounds.max_m):
            if all(mi == 0 for mi in m):
                continue
            spec = validate_spec(n, m, table=True)
            for inv in invariants:
                yield spec, inv


def run_verification(bounds: SweepBounds) -> CheckReport:
    """The whole suite over the given sweep bounds.  The table half builds
    each system's Gr_F labels once for all its (g, h) pairs."""
    report = check_oracle_equivalence(bounds)
    for spec, pairs in groupby(iter_table_inputs(bounds), key=lambda p: p[0]):
        labels = gr_F_label_rows(spec)
        report.extend(check_subset_counts(spec))
        for _, inv in pairs:
            report.extend(check_hrr(spec, inv))
            report.extend(check_table_identities(spec, inv, labels))
    return report
