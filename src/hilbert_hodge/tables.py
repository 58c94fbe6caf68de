"""Assembled cohomology tables: graded pieces, dimensions, weights.

This module turns the closed-form combinatorics into the final answers for
an irreducible non-trivial local system ``V_m`` on a Hilbert modular variety
of dimension ``n`` with ``h`` cusps and geometric genus ``g``:

* every degree ``0 <= k <= 2n`` splits over the reals as
  ``H^k = IH^k + Eis^k``: ``IH^k`` is non-zero only at ``k = n``, of pure
  weight ``w = |m| + n``, and the Eisenstein (boundary) part only for
  ``n <= k <= 2n - 1`` when all ``m_i`` are equal, of weight ``2w`` and
  Hodge-Tate type ``(w, w)``;
* with ``D = (g + (-1)^n) * rank`` the Hodge numbers of ``IH^n`` are
  ``h^{P,Q} = N(m, P) * D`` for ``P + Q = w``.

The graded pieces of the Hodge filtration are sums of sheaf cohomology
groups of the monomials ``C_I``; their dimensions form a small closed
dictionary (:func:`sheaf_cohomology_dim`).  It covers every piece of
``H^n``, the ``P = 0`` piece below ``n`` and the top piece for
``n < k < 2n``; only those are checked against the Hodge numbers.  A label
outside the dictionary raises :class:`DictionaryMiss` rather than guessing,
and fails the table when its piece is covered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

from .errors import DictionaryMiss
from .kunneth import subset_monomials, weight_counts
from .model import (
    LineBundleMonomial,
    LocalSystemSpec,
    VarietyInvariants,
    label_text,
    require_table_mode,
)

NOTE_VANISHES = "vanishes"
NOTE_COMPUTED = ""
Label = tuple[int, LineBundleMonomial]  # (j, C) for H^j(Xbar, C)


def gr_F_labels(
    spec: LocalSystemSpec, k: int, subsets=None
) -> dict[int, tuple[Label, ...]]:
    """Graded pieces of the Hodge filtration on ``H^k`` as label lists.

    For each subset ``I`` with ``k - |I| >= 0`` the piece at
    ``P = |m_I| + |I|`` receives ``(k - |I|, C_I)``, i.e. ``H^{k-|I|}(Xbar, C_I)``.
    ``subsets`` shares ``list(subset_monomials(spec.m))`` over degrees;
    its order reversed is the sorted order of every piece.
    """
    if not 0 <= k <= 2 * spec.n:
        raise ValueError(f"degree k must lie in [0, {2 * spec.n}], got {k}")
    out: dict[int, list[Label]] = {}
    for P, l, mono in subset_monomials(spec.m) if subsets is None else subsets:
        if l > k:
            break
        out.setdefault(P, []).append((k - l, mono))
    return {P: tuple(reversed(labels)) for P, labels in out.items()}


def gr_F_label_rows(spec: LocalSystemSpec) -> list:
    """``gr_F_labels(spec, k)`` for every degree ``0..2n``, from one subset
    enumeration."""
    subsets = list(subset_monomials(spec.m))
    return [gr_F_labels(spec, k, subsets) for k in range(2 * spec.n + 1)]


def covered_pieces(spec: LocalSystemSpec, k: int, pieces: dict) -> tuple:
    """The items ``(P, labels)`` of ``pieces = gr_F_labels(spec, k)``, in
    order, that :func:`sheaf_cohomology_dim` covers: all of ``H^n``, the
    ``P = 0`` piece below ``n`` and the top piece for ``n < k < 2n``."""
    n = spec.n
    if k == n:
        return tuple(pieces.items())
    P = 0 if k < n else spec.weight + n
    return ((P, pieces[P]),) if k < 2 * n else ()


def gr_f_label_count(n: int) -> int:
    """Labels :func:`mhs_table` emits over all degrees, in closed form:
    ``sum_l C(n, l) * (2n + 1 - l)``, one per subset ``I`` and degree
    ``k >= |I|``."""
    return (2 * n + 1) * 2**n - n * 2 ** (n - 1)


def _subset_of_label(
    exponents: tuple[int, ...], m: tuple[int, ...]
) -> frozenset[int] | None:
    """Recover ``I`` from the exponents of ``C_I``, or None if no match.

    Unambiguous because ``m_i + 2 > 0 >= -m_i`` for every ``i``.
    """
    chosen = set()
    for i, s in enumerate(exponents):
        if s == m[i] + 2:
            chosen.add(i)
        elif s != -m[i]:
            return None
    return frozenset(chosen)


def sheaf_cohomology_dim(
    label: Label, spec: LocalSystemSpec, inv: VarietyInvariants
) -> int:
    """Dimension dictionary for the sheaf cohomology groups the tables use.

    With ``D`` the dimension of square-integrable sections and ``e = h`` in
    the parallel case (else 0):

    * ``H^j(Xbar, prod L_i^{m_i+2})`` is ``D + e`` for ``j = 0`` and
      ``binom(n-1, j) * e`` for ``0 < j < n``;
    * ``H^{n-|I|}(Xbar, C_I)`` is ``D`` for every proper subset ``I``;
    * ``H^j(Xbar, prod L_i^{-m_i})`` is ``0`` for ``j < n``.

    Everything else raises :class:`DictionaryMiss`; in particular the
    dictionary never extrapolates ``H^j(Xbar, C_I)`` to degrees ``j``
    other than ``n - |I|``.
    """
    n = spec.n
    m = spec.m
    D = inv.l2_dim(spec)
    e = inv.cusps if spec.is_parallel else 0
    plus_two = spec.top_exponents
    j, (exps,) = label
    if len(exps) != n:
        raise DictionaryMiss(
            f"label {label_text(*label)} has rank {len(exps)}, spec has n={n}"
        )

    if exps == plus_two:
        if j == 0:
            return D + e
        if 1 <= j <= n - 1:
            return comb(n - 1, j) * e
        raise DictionaryMiss(f"no dictionary entry for {label_text(*label)}")

    chosen = _subset_of_label(exps, m)
    if chosen is None:
        raise DictionaryMiss(f"{label_text(*label)} is not of the form H^j(Xbar, C_I)")
    if not chosen and j < n:
        return 0
    if j == n - len(chosen):
        return D
    raise DictionaryMiss(
        f"no dictionary entry for {label_text(*label)} (only degree "
        f"{n - len(chosen)} of this monomial is determined)"
    )


@dataclass
class IhTable:
    """Intersection cohomology: total dimensions and middle Hodge numbers.

    ``dims[k]`` is ``dim IH^k`` for ``0 <= k <= 2n`` (zero off the middle),
    ``hodge[(P, Q)]`` the middle Hodge numbers ``N(m, P) * D``.
    """

    spec: LocalSystemSpec
    inv: VarietyInvariants
    dims: tuple[int, ...]
    hodge: dict[tuple[int, int], int]


def ih_table(spec: LocalSystemSpec, inv: VarietyInvariants) -> IhTable:
    """Full intersection-cohomology table of the system."""
    require_table_mode(spec)
    n = spec.n
    D = inv.l2_dim(spec)
    counts = weight_counts(spec.m)
    w = spec.weight + n
    hodge = {}
    for P, N in enumerate(counts):
        if N and D:
            hodge[(P, w - P)] = N * D
    dims = [0] * (2 * n + 1)
    dims[n] = 2**n * D
    if sum(hodge.values()) != dims[n]:
        raise AssertionError("middle Hodge numbers do not sum to dim IH^n")
    return IhTable(spec, inv, tuple(dims), hodge)


@dataclass
class EisensteinDatum:
    """Boundary cohomology in one degree.

    ``per_cusp_basis`` lists, once per class at the standard cusp, the
    subset ``a`` of ``{1..n-1}`` together with the exponent pair
    ``(alpha, beta)`` of the series attached to it; every cusp contributes
    an identical copy, so the total dimension is ``len(basis) * cusps``.
    """

    k: int
    cusps: int
    per_cusp_basis: tuple[
        tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]], ...
    ] = ()

    @property
    def dim(self) -> int:
        return len(self.per_cusp_basis) * self.cusps


def eisenstein_data(
    spec: LocalSystemSpec, inv: VarietyInvariants, k: int
) -> EisensteinDatum:
    """Boundary classes in degree ``k`` with their series exponents.

    Non-empty only when all ``m_i`` are equal and ``n <= k <= 2n - 1``.
    Each class is indexed by a subset ``a`` of ``{1..n-1}`` of size
    ``k - n``; its series has exponents ``alpha_i = m_1 + 1`` on ``a`` and
    ``m_1 + 2`` off it, ``beta_i = 1`` on ``a`` and ``0`` off it.
    """
    require_table_mode(spec)
    n = spec.n
    if not (spec.is_parallel and n <= k <= 2 * n - 1):
        return EisensteinDatum(k, inv.cusps)
    m1 = spec.m[0]
    basis = []
    for a in combinations(range(1, n), k - n):
        members = set(a)
        alpha = tuple(m1 + 1 if i in members else m1 + 2 for i in range(1, n + 1))
        beta = tuple(1 if i in members else 0 for i in range(1, n + 1))
        basis.append((a, alpha, beta))
    return EisensteinDatum(k, inv.cusps, tuple(basis))


@dataclass
class MhsRow:
    """Mixed Hodge structure of ``H^k`` in one degree.

    ``weights`` lists the non-zero weight levels as ``(weight, dim)`` pairs,
    ``hodge`` the non-zero Hodge numbers, ``splitting`` the pair
    ``(intersection part, Eisenstein part)``, and ``gr_f`` the labels of the
    graded pieces of the Hodge filtration.
    """

    k: int
    dim: int
    weights: tuple[tuple[int, int], ...]
    hodge: dict[tuple[int, int], int]
    splitting: tuple[int, int]
    gr_f: dict[int, tuple[Label, ...]]
    note: str = NOTE_COMPUTED


@dataclass
class MhsTable:
    """The complete table, one :class:`MhsRow` per degree ``0..2n``, with
    the IH table ``ih`` and the boundary data ``eis`` of degrees ``n..2n-1``
    it is built from.  ``mhs_field`` records whether the structure is
    defined over the rationals (all weights equal) or only over the reals."""

    spec: LocalSystemSpec
    inv: VarietyInvariants
    ih: IhTable
    eis: tuple[EisensteinDatum, ...]
    rows: dict[int, MhsRow] = field(default_factory=dict)
    mhs_field: str = "R"


def mhs_table(
    spec: LocalSystemSpec, inv: VarietyInvariants, labels=None
) -> MhsTable:
    """Assemble the full mixed-Hodge-structure table of the system from one
    :func:`ih_table` and one :func:`eisenstein_data` per degree ``n..2n-1``.
    ``labels`` is ``gr_F_label_rows(spec)``; a sweep shares it per ``m``.

    Every row is ``H^k = IH^k + Eis^k``, split as ``(ih.dims[k],
    eis[k - n].dim)``, the second 0 outside ``n..2n-1``; the parts have
    weights ``w`` and ``2w`` and Hodge numbers ``ih.hodge`` (at ``k = n``)
    and ``{(w, w): dim}``.  A row is noted ``"vanishes"`` unless ``k = n``
    or its Eisenstein part is non-zero."""
    ih = ih_table(spec, inv)
    n = spec.n
    eis = tuple(eisenstein_data(spec, inv, k) for k in range(n, 2 * n))
    if labels is None:
        labels = gr_F_label_rows(spec)
    w = spec.weight + n
    table = MhsTable(spec, inv, ih, eis, mhs_field="Q" if spec.is_parallel else "R")

    for k in range(2 * n + 1):
        ih_part = ih.dims[k]
        eis_part = eis[k - n].dim if n <= k < 2 * n else 0
        hodge = dict(ih.hodge) if k == n else {}
        if eis_part:
            # (w, w) cannot collide with a (P, w - P) entry since w >= 2
            hodge[(w, w)] = eis_part
        weights = tuple((wt, d) for wt, d in ((w, ih_part), (2 * w, eis_part)) if d)
        note = NOTE_COMPUTED if k == n or eis_part else NOTE_VANISHES
        table.rows[k] = MhsRow(
            k, ih_part + eis_part, weights, hodge, (ih_part, eis_part), labels[k], note
        )
    _assert_gr_f_consistency(table)
    return table


def _assert_gr_f_consistency(table: MhsTable) -> None:
    """Column sums of the Hodge numbers must match the labels of every
    piece the dimension dictionary covers (:func:`covered_pieces`).

    Each row sums its Hodge numbers by ``P`` once and visits only the
    pieces it covers, in order; a :class:`DictionaryMiss` inside one fails
    the table like a wrong sum.  The others carry no dimension claim.
    """
    spec, inv = table.spec, table.inv
    for row in table.rows.values():
        columns = {}  # P -> sum of the row's Hodge numbers h^{P,Q}
        for (p, _), d in row.hodge.items():
            columns[p] = columns.get(p, 0) + d
        for P, labels in covered_pieces(spec, row.k, row.gr_f):
            try:
                total = sum(sheaf_cohomology_dim(lb, spec, inv) for lb in labels)
            except DictionaryMiss as exc:
                raise AssertionError(
                    f"Gr_F^{P} of H^{row.k} is outside the dimension "
                    f"dictionary: {exc}"
                ) from None
            column = columns.get(P, 0)
            if total != column:
                raise AssertionError(
                    f"Gr_F^{P} of H^{row.k} resolves to {total} but the Hodge "
                    f"numbers give {column}"
                )
