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

Write ``s_i = t_i - e_i`` with ``e_i = [i in I]``.  The differential keeps
``s``, so the complex splits into blocks indexed by ``s`` (``-1 <= s_i <=
m_i``), each with monomial ``prod_i L_i^{m_i - 2 s_i}`` and Hodge index
``P = |m| - sum(s)``.  In a block, factor ``i`` has at most two states
``(t_i, e_i)``: only ``(0, 1)`` if ``s_i = -1``, only ``(m_i, 0)`` if
``s_i = m_i``, else both, joined by the coefficient ``m_i - s_i``.  A block
is the tensor product of these pieces and is built directly from them.

Ranks are taken per block by exact fraction-free elimination.  Homology
comes back as a ``SheafMatrix``, the type of the closed form, but nothing
here knows the closed-form answer: this is the independent side of the
cross-validation.  A slice over the size cap is refused from its
closed-form size, before anything is built.
"""

from __future__ import annotations

import os
from bisect import bisect
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import compress, product
from math import comb, prod
from operator import add

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


@dataclass(frozen=True, order=True, slots=True)
class HiggsBasisElement:
    """Basis element ``e(t) (x) dz_I`` of the logarithmic Higgs complex;
    ``wedge`` is ``I`` as a sorted tuple of 1-based factor indices."""

    t: tuple[int, ...]
    wedge: tuple[int, ...]

    def block(self) -> tuple[int, ...]:
        """The block ``s`` with ``s_i = t_i - [i in I]``."""
        s = list(self.t)
        for i in self.wedge:
            s[i - 1] -= 1
        return tuple(s)

    def monomial(self, m: tuple[int, ...]) -> LineBundleMonomial:
        return LineBundleMonomial(tuple(mi - 2 * si for mi, si in zip(m, self.block())))


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
        pairs = zip(self.differentials, self.differentials[1:])
        for l, (d_low, d_high) in enumerate(pairs):
            into: defaultdict[int, list[tuple[int, int]]] = defaultdict(list)
            for (mid, src), coeff in d_low.items():
                into[mid].append((src, coeff))
            composite: defaultdict[tuple[int, int], int] = defaultdict(int)
            for (tgt, mid), c_high in d_high.items():
                for src, c_low in into[mid]:
                    composite[(tgt, src)] += c_high * c_low
            bad = {k: v for k, v in composite.items() if v != 0}
            if bad:
                raise AssertionError(f"d o d != 0 at degree {l} for P={self.P}: {bad}")

    def verify_monomial_grading(self) -> None:
        """Assert every differential entry connects identical monomials."""
        blocks = [[el.block() for el in term] for term in self.terms]
        for l, d in enumerate(self.differentials):
            for (tgt, src), coeff in d.items():
                if coeff and blocks[l][src] != blocks[l + 1][tgt]:
                    raise AssertionError(
                        f"differential entry {(tgt, src)} at degree {l} maps "
                        f"{self.terms[l][src].monomial(self.spec.m)} to "
                        f"{self.terms[l + 1][tgt].monomial(self.spec.m)}"
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

    and summands with coefficient zero (``t_i = m_i``) are omitted.  Blocks
    come in lexicographic order of ``s``, each in the product order of its
    states.  A slice over the cap (default from the environment, else 10^6)
    raises :class:`OracleSizeExceeded` before anything is built.
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

    factors = range(1, n + 1)
    # one wedge tuple per pattern e, shared by every element with that pattern
    wedge_of = {e: tuple(compress(factors, e)) for e in product((0, 1), repeat=n)}
    terms: list[list[HiggsBasisElement]] = [[] for _ in factors] + [[]]
    differentials: list[dict[tuple[int, int], int]] = [{} for _ in factors]
    for head in product(*(range(-1, mi + 1) for mi in m[:-1])):
        s = (*head, spec.weight - P - sum(head))
        if not -1 <= s[-1] <= m[-1]:
            continue
        # the states e_i of factor i, with t_i = s_i + e_i
        states = [
            (1,) if si == -1 else (0,) if si == mi else (0, 1) for si, mi in zip(s, m)
        ]
        where = []  # position in the block -> (degree, index in it, wedge)
        for e in product(*states):
            wedge = wedge_of[e]
            term = terms[len(wedge)]
            where.append((len(wedge), len(term), wedge))
            term.append(HiggsBasisElement(tuple(map(add, s, e)), wedge))
        # raising e_i from 0 to 1 moves steps[i] places in the block and
        # multiplies by m_i - s_i, signed by the wedge indices below i
        steps = [prod(map(len, states[i + 1 :])) for i in range(n)]
        free = [(i + 1, steps[i], m[i] - s[i]) for i in range(n) if len(states[i]) > 1]
        for pos, (l, src, wedge) in enumerate(where):
            for i, step, coeff in free:
                if i not in wedge:
                    sign = -1 if bisect(wedge, i) % 2 else 1
                    differentials[l][(where[pos + step][1], src)] = sign * coeff

    return HiggsChainComplex(spec, P, tuple(map(tuple, terms)), tuple(differentials))


def homology(cx: HiggsChainComplex) -> SheafMatrix:
    """Homology of one complex, computed blockwise by exact integer rank:
    ``dim H^l = dim(term_l) - rank(d_l) - rank(d_{l-1})`` per block.  Each
    element is placed in its block, keyed by its ``s``, once; one pass over
    each differential then hands every entry to its block, and an entry
    between two blocks raises ``AssertionError``."""
    n, m = cx.spec.n, cx.spec.m
    block_of: dict[tuple[int, ...], int] = {}
    first: list[HiggsBasisElement] = []  # block -> its first element
    sizes: list[list[int]] = []  # block -> number of its elements per degree
    block: list[list[int]] = [[] for _ in cx.terms]  # degree -> element -> block
    local: list[list[int]] = [[] for _ in cx.terms]  # position within the block
    for l, term in enumerate(cx.terms):
        for el in term:
            b = block_of.setdefault(el.block(), len(sizes))
            if b == len(sizes):
                sizes.append([0] * (n + 1))
                first.append(el)
            block[l].append(b)
            local[l].append(sizes[b][l])
            sizes[b][l] += 1

    # ranks[b][l + 1] is the rank of d_l on block b; d_{-1} and d_n are zero
    ranks = [[0] * (n + 2) for _ in sizes]
    for l, d in enumerate(cx.differentials):
        entries: defaultdict[int, dict[tuple[int, int], int]] = defaultdict(dict)
        for (tgt, src), coeff in d.items():
            b = block[l][src]
            if block[l + 1][tgt] != b:
                raise AssertionError(f"entry {(tgt, src)} of d_{l} joins two blocks")
            entries[b][(local[l + 1][tgt], local[l][src])] = coeff
        for b, block_entries in entries.items():
            ranks[b][l + 1] = rank_from_sparse(
                block_entries, sizes[b][l + 1], sizes[b][l]
            )

    cells: dict[tuple[int, int], Counter] = {}
    for b, el in enumerate(first):
        mono = el.monomial(m)
        for l in range(n + 1):
            dim = sizes[b][l] - ranks[b][l + 1] - ranks[b][l]
            if dim < 0:
                raise AssertionError("rank bookkeeping produced a negative dimension")
            if dim:
                cells.setdefault((cx.P, l), Counter())[mono] = dim
    return SheafMatrix(n, m, cells)


def full_homology(spec: LocalSystemSpec, *, cap: int | None = None) -> SheafMatrix:
    """Homology of every Hodge-index slice, each checked for d o d = 0 first,
    merged into one sheaf matrix.  ``homology`` itself refuses an entry that
    leaves its block, so the grading needs no separate pass here."""
    cells: dict[tuple[int, int], Counter] = {}
    for P in range(spec.weight + spec.n + 1):
        cx = build_log_higgs_complex(spec, P, cap=cap)
        cx.verify_chain_property()
        cells.update(homology(cx).cells)
    return SheafMatrix(spec.n, spec.m, cells)
