"""Brute-force homology oracle for the logarithmic Higgs complex.

The Higgs bundle attached to the multi-weight ``m`` is the tensor product of
``n`` rank-2 pieces ``L_i + L_i^{-1}``, so it has the monomial basis

    e(t) = prod_i e_{i,1}^{m_i - t_i} e_{i,2}^{t_i},   0 <= t_i <= m_i,

where ``e_{i,1}`` spans ``L_i`` and ``e_{i,2}`` spans ``L_i^{-1}``.  The
Higgs field acts factorwise as a lowering operator,

    theta_i e(t) = (m_i - t_i) * e(t + delta_i) (x) omega_i,

with ``omega_i`` the basis of the summand ``L_i^2`` of the log one-forms.
Wedging with log forms indexed by subsets ``I`` of ``{1..n}`` produces the
complex whose degree-``l`` term collects the pairs ``(t, I)`` with
``|I| = l`` and fixed Hodge index ``P = sum_i (m_i - t_i) + |I|``.

Two structural facts make the homology cheap and exact:

* the differential never changes the line-bundle monomial
  ``prod_i L_i^{m_i - 2 t_i + 2 [i in I]}``, so the complex splits into
  independent blocks indexed by monomials, and
* all coefficients are integers, so ranks can be taken by fraction-free
  elimination with no rounding anywhere.

Nothing in this module knows the closed-form answer; it is the independent
side of the cross-validation.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, product

from .errors import BadHodgeIndex, ConfigError, OracleSizeExceeded
from .linalg import integer_matrix_rank
from .model import LineBundleMonomial, LocalSystemSpec

DEFAULT_ORACLE_CAP = 10**6
ORACLE_CAP_ENV = "HILBERT_HODGE_ORACLE_CAP"


def default_oracle_cap(cap: int | None = None) -> int:
    """Basis-size cap for the oracle: ``cap`` if given, else the environment
    override, else 10^6.  Whatever its source, the cap must be >= 1."""
    source = "oracle_cap"
    if cap is None:
        raw = os.environ.get(ORACLE_CAP_ENV)
        if raw is None:
            return DEFAULT_ORACLE_CAP
        source = ORACLE_CAP_ENV
        try:
            cap = int(raw)
        except ValueError:
            raise ConfigError(f"{ORACLE_CAP_ENV} must be an integer, got {raw!r}")
    if cap < 1:
        raise ConfigError(f"{source} must be >= 1, got {cap}")
    return cap


@dataclass(frozen=True, order=True)
class HiggsBasisElement:
    """Basis element ``e(t) (x) dz_I`` of the logarithmic Higgs complex.

    ``wedge`` holds the subset ``I`` as a sorted tuple of 1-based factor
    indices.
    """

    t: tuple[int, ...]
    wedge: tuple[int, ...]

    @property
    def form_degree(self) -> int:
        return len(self.wedge)

    def hodge_index(self, m: tuple[int, ...]) -> int:
        return sum(mi - ti for mi, ti in zip(m, self.t)) + len(self.wedge)

    def monomial(self, m: tuple[int, ...]) -> LineBundleMonomial:
        wedge = set(self.wedge)
        return LineBundleMonomial(
            tuple(
                mi - 2 * ti + (2 if i + 1 in wedge else 0)
                for i, (mi, ti) in enumerate(zip(m, self.t))
            )
        )

    def __str__(self) -> str:
        return f"(t={self.t}, I={set(self.wedge) or '{}'})"


def build_higgs_bundle(
    spec: LocalSystemSpec,
) -> list[tuple[tuple[int, ...], tuple[int, int], LineBundleMonomial]]:
    """Monomial basis of the Higgs bundle with bigrading and line bundle.

    Returns one entry ``(t, (p, q), monomial)`` per basis element, where
    ``p = sum(m_i - t_i)``, ``q = sum(t_i)`` and the monomial has exponents
    ``m_i - 2 t_i``.  The number of entries equals the rank of the system.
    """
    out = []
    for t in product(*(range(mi + 1) for mi in spec.m)):
        p = sum(mi - ti for mi, ti in zip(spec.m, t))
        q = sum(t)
        mono = LineBundleMonomial(tuple(mi - 2 * ti for mi, ti in zip(spec.m, t)))
        out.append((t, (p, q), mono))
    return out


@dataclass
class HiggsChainComplex:
    """One Hodge-index slice of the logarithmic Higgs complex.

    ``terms[l]`` is the ordered basis in form degree ``l`` and
    ``differentials[l]`` the sparse integer matrix of ``d_l`` from degree
    ``l`` to ``l + 1``, stored as ``{(target_index, source_index): coeff}``.
    """

    spec: LocalSystemSpec
    P: int
    terms: tuple[tuple[HiggsBasisElement, ...], ...]
    differentials: tuple[dict[tuple[int, int], int], ...]

    @property
    def total_size(self) -> int:
        return sum(len(term) for term in self.terms)

    def verify_chain_property(self) -> None:
        """Assert d_{l+1} o d_l = 0 for every l."""
        for l in range(len(self.differentials) - 1):
            d_low = self.differentials[l]
            d_high = self.differentials[l + 1]
            by_middle: dict[int, list[tuple[int, int]]] = {}
            for (mid, src), coeff in d_low.items():
                by_middle.setdefault(mid, []).append((src, coeff))
            composite: Counter = Counter()
            for (tgt, mid), c_high in d_high.items():
                for src, c_low in by_middle.get(mid, ()):
                    composite[(tgt, src)] += c_high * c_low
            bad = {k: v for k, v in composite.items() if v != 0}
            if bad:
                raise AssertionError(
                    f"d o d != 0 at degree {l} for P={self.P}: {bad}"
                )

    def verify_monomial_grading(self) -> None:
        """Assert every differential entry connects identical monomials."""
        m = self.spec.m
        for l, d in enumerate(self.differentials):
            for (tgt, src), coeff in d.items():
                if coeff == 0:
                    continue
                mono_src = self.terms[l][src].monomial(m)
                mono_tgt = self.terms[l + 1][tgt].monomial(m)
                if mono_src != mono_tgt:
                    raise AssertionError(
                        f"differential entry {(tgt, src)} at degree {l} maps "
                        f"{mono_src} to {mono_tgt}"
                    )


def _koszul_sign(i: int, wedge: tuple[int, ...]) -> int:
    """Sign for inserting factor ``i`` into the sorted wedge ``I``."""
    return -1 if sum(1 for j in wedge if j < i) % 2 else 1


def build_log_higgs_complex(
    spec: LocalSystemSpec, P: int, *, validate: bool | None = None
) -> HiggsChainComplex:
    """Assemble the slice of the logarithmic Higgs complex at Hodge index P.

    The differential of a basis element ``(t, I)`` is

        d(t, I) = sum over i not in I of
                  sign(i, I) * (m_i - t_i) * (t + delta_i, I + {i}),

    and summands with coefficient zero (``t_i = m_i``) are omitted.  With
    ``validate`` (default: only under ``__debug__``) the chain property and
    the monomial grading are asserted on the result.
    """
    if not 0 <= P <= spec.weight + spec.n:
        raise BadHodgeIndex(
            f"Hodge index P must lie in [0, {spec.weight + spec.n}], got {P}"
        )
    n = spec.n
    m = spec.m

    terms: list[tuple[HiggsBasisElement, ...]] = []
    index_of: list[dict[HiggsBasisElement, int]] = []
    for l in range(n + 1):
        level = []
        # hodge_index = sum(m_i - t_i) + l = P, so sum(t_i) = |m| - P + l
        for t in product(*(range(mi + 1) for mi in m)):
            if sum(t) != spec.weight - P + l:
                continue
            for wedge in combinations(range(1, n + 1), l):
                level.append(HiggsBasisElement(t, wedge))
        level.sort()
        terms.append(tuple(level))
        index_of.append({el: i for i, el in enumerate(level)})

    differentials: list[dict[tuple[int, int], int]] = []
    for l in range(n):
        d: dict[tuple[int, int], int] = {}
        for src, el in enumerate(terms[l]):
            in_wedge = set(el.wedge)
            for i in range(1, n + 1):
                if i in in_wedge:
                    continue
                coeff = m[i - 1] - el.t[i - 1]
                if coeff == 0:
                    continue
                t_new = list(el.t)
                t_new[i - 1] += 1
                target = HiggsBasisElement(
                    tuple(t_new), tuple(sorted(el.wedge + (i,)))
                )
                tgt = index_of[l + 1][target]
                d[(tgt, src)] = _koszul_sign(i, el.wedge) * coeff
        differentials.append(d)

    cx = HiggsChainComplex(spec, P, tuple(terms), tuple(differentials))
    if validate is None:
        validate = __debug__
    if validate:
        cx.verify_chain_property()
        cx.verify_monomial_grading()
    return cx


@dataclass
class HomologyResult:
    """Homology of Higgs complexes as monomial multisets.

    ``cells`` maps ``(P, l)`` to a Counter of line-bundle monomials with
    multiplicities; cells that would be empty are omitted.
    """

    cells: dict[tuple[int, int], Counter] = field(default_factory=dict)

    def add(self, P: int, l: int, monomial: LineBundleMonomial, dim: int) -> None:
        if dim:
            self.cells.setdefault((P, l), Counter())[monomial] += dim

    def merge(self, other: "HomologyResult") -> None:
        for key, counter in other.cells.items():
            self.cells.setdefault(key, Counter()).update(counter)

    def sorted_cells(self) -> list[tuple[tuple[int, int], list[LineBundleMonomial]]]:
        return [
            (key, sorted(self.cells[key].elements())) for key in sorted(self.cells)
        ]


def homology(cx: HiggsChainComplex, *, cap: int | None = None) -> HomologyResult:
    """Homology of one complex, computed blockwise by exact integer rank.

    Per monomial block, ``dim H^l = dim(term_l) - rank(d_l) - rank(d_{l-1})``.
    Raises :class:`OracleSizeExceeded` when the total basis is larger than
    the cap (default from the environment, else 10^6).
    """
    cap = default_oracle_cap(cap)
    if cx.total_size > cap:
        raise OracleSizeExceeded(
            f"complex has {cx.total_size} basis elements, cap is {cap}"
        )
    n = cx.spec.n
    m = cx.spec.m

    # block structure: monomial -> per degree, list of global indices
    blocks: dict[LineBundleMonomial, list[list[int]]] = {}
    for l, term in enumerate(cx.terms):
        for idx, el in enumerate(term):
            blocks.setdefault(el.monomial(m), [[] for _ in range(n + 1)])[l].append(idx)

    result = HomologyResult()
    for mono in sorted(blocks):
        per_l = blocks[mono]
        local = [{g: i for i, g in enumerate(indices)} for indices in per_l]
        ranks = []
        for l in range(n):
            rows = [[0] * len(per_l[l]) for _ in range(len(per_l[l + 1]))]
            any_entry = False
            for (tgt, src), coeff in cx.differentials[l].items():
                if src in local[l] and tgt in local[l + 1]:
                    rows[local[l + 1][tgt]][local[l][src]] = coeff
                    any_entry = True
            ranks.append(integer_matrix_rank(rows) if any_entry else 0)
        for l in range(n + 1):
            dim = len(per_l[l])
            dim -= ranks[l] if l < n else 0
            dim -= ranks[l - 1] if l > 0 else 0
            assert dim >= 0, "rank bookkeeping produced a negative dimension"
            result.add(cx.P, l, mono, dim)
    return result


def full_homology(
    spec: LocalSystemSpec, *, cap: int | None = None, validate: bool | None = None
) -> HomologyResult:
    """Homology of every Hodge-index slice, merged into one result."""
    total = HomologyResult()
    for P in range(spec.weight + spec.n + 1):
        cx = build_log_higgs_complex(spec, P, validate=validate)
        total.merge(homology(cx, cap=cap))
    return total
