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

Homology comes back as a ``SheafMatrix``, the type of the closed form, but
nothing here knows the closed-form answer: this is the independent side of
the cross-validation.  A slice over the size cap is refused from its
closed-form size, before anything is built.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, product
from math import comb

from .errors import BadHodgeIndex, ConfigError, OracleSizeExceeded
from .linalg import rank_from_sparse
from .model import LineBundleMonomial, LocalSystemSpec, SheafMatrix

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

    def monomial(self, m: tuple[int, ...]) -> LineBundleMonomial:
        wedge = set(self.wedge)
        return LineBundleMonomial(
            tuple(
                mi - 2 * ti + (2 if i + 1 in wedge else 0)
                for i, (mi, ti) in enumerate(zip(m, self.t))
            )
        )


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
                raise AssertionError(f"d o d != 0 at degree {l} for P={self.P}: {bad}")

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


def slice_size(spec: LocalSystemSpec, P: int) -> int:
    """Number of basis elements of the slice at Hodge index P, in closed form.

    Degree ``l`` pairs a subset of size ``l`` with a ``t`` of sum
    ``|m| - P + l``, so the size is ``sum_l C(n, l) * c(|m| - P + l)`` where
    ``c(s)`` is the coefficient of ``x^s`` in ``prod_i (1 + x + ... + x^{m_i})``.
    """
    c = [1]
    for mi in spec.m:
        c = [sum(c[max(0, s - mi) : s + 1]) for s in range(len(c) + mi)]
    return sum(
        comb(spec.n, l) * c[s]
        for l in range(spec.n + 1)
        if 0 <= (s := spec.weight - P + l) < len(c)
    )


def build_log_higgs_complex(
    spec: LocalSystemSpec, P: int, *, cap: int | None = None
) -> HiggsChainComplex:
    """Assemble the slice of the logarithmic Higgs complex at Hodge index P.

    The differential of a basis element ``(t, I)`` is

        d(t, I) = sum over i not in I of
                  (-1)^#{j in I : j < i} * (m_i - t_i) * (t + delta_i, I + {i}),

    and summands with coefficient zero (``t_i = m_i``) are omitted.  Raises
    :class:`OracleSizeExceeded` before building anything when the slice is
    larger than the cap (default from the environment, else 10^6).
    """
    if not 0 <= P <= spec.weight + spec.n:
        raise BadHodgeIndex(
            f"Hodge index P must lie in [0, {spec.weight + spec.n}], got {P}"
        )
    cap = default_oracle_cap(cap)
    size = slice_size(spec, P)
    if size > cap:
        raise OracleSizeExceeded(f"complex has {size} basis elements, cap is {cap}")
    n, m = spec.n, spec.m

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
            for i in range(1, n + 1):
                coeff = m[i - 1] - el.t[i - 1]
                if coeff == 0 or i in el.wedge:
                    continue
                t = el.t[: i - 1] + (el.t[i - 1] + 1,) + el.t[i:]
                target = HiggsBasisElement(t, tuple(sorted(el.wedge + (i,))))
                sign = -1 if sum(1 for j in el.wedge if j < i) % 2 else 1
                d[(index_of[l + 1][target], src)] = sign * coeff
        differentials.append(d)

    return HiggsChainComplex(spec, P, tuple(terms), tuple(differentials))


def homology(cx: HiggsChainComplex) -> SheafMatrix:
    """Homology of one complex, computed blockwise by exact integer rank.

    Per monomial block, ``dim H^l = dim(term_l) - rank(d_l) - rank(d_{l-1})``.
    Each element gets a block number and a position in its block once; one
    pass over each differential then hands every entry to its block.  An
    entry between two blocks raises ``AssertionError``.
    """
    n, m = cx.spec.n, cx.spec.m
    block_of: dict[LineBundleMonomial, int] = {}
    sizes: list[list[int]] = []  # block -> number of its elements per degree
    block: list[list[int]] = [[] for _ in cx.terms]  # degree -> element -> block
    local: list[list[int]] = [[] for _ in cx.terms]  # position within the block
    for l, term in enumerate(cx.terms):
        for el in term:
            b = block_of.setdefault(el.monomial(m), len(sizes))
            if b == len(sizes):
                sizes.append([0] * (n + 1))
            block[l].append(b)
            local[l].append(sizes[b][l])
            sizes[b][l] += 1

    # ranks[b][l + 1] is the rank of d_l on block b; d_{-1} and d_n are zero
    ranks = [[0] * (n + 2) for _ in sizes]
    for l, d in enumerate(cx.differentials):
        entries: list[dict[tuple[int, int], int]] = [{} for _ in sizes]
        for (tgt, src), coeff in d.items():
            b = block[l][src]
            if block[l + 1][tgt] != b:
                raise AssertionError(f"entry {(tgt, src)} of d_{l} joins two blocks")
            entries[b][(local[l + 1][tgt], local[l][src])] = coeff
        for b, block_entries in enumerate(entries):
            ranks[b][l + 1] = rank_from_sparse(
                block_entries, sizes[b][l + 1], sizes[b][l]
            )

    cells: dict[tuple[int, int], Counter] = {}
    for mono, b in block_of.items():
        for l in range(n + 1):
            dim = sizes[b][l] - ranks[b][l + 1] - ranks[b][l]
            if dim < 0:
                raise AssertionError("rank bookkeeping produced a negative dimension")
            if dim:
                cells.setdefault((cx.P, l), Counter())[mono] = dim
    return SheafMatrix(n, m, cells)


def full_homology(spec: LocalSystemSpec, *, cap: int | None = None) -> SheafMatrix:
    """Homology of every Hodge-index slice, each checked for d o d = 0 and
    the monomial grading first, merged into one sheaf matrix."""
    cells: dict[tuple[int, int], Counter] = {}
    for P in range(spec.weight + spec.n + 1):
        cx = build_log_higgs_complex(spec, P, cap=cap)
        cx.verify_chain_property()
        cx.verify_monomial_grading()
        cells.update(homology(cx).cells)
    return SheafMatrix(spec.n, spec.m, cells)
