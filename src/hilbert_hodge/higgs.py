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
``P = |m| - sum(s)``.  In a block, factor ``i`` is fixed at ``(t_i, e_i) =
(0, 1)`` if ``s_i = -1`` and at ``(m_i, 0)`` if ``s_i = m_i``; else it is
free, its two states joined by the coefficient ``m_i - s_i``.  A block with
``k`` free factors is thus the Koszul complex on them: its ``z`` factors at
``s_i = -1`` lie in every wedge, so they shift each degree by ``z`` and
negate the coefficient of a free factor after an odd number of them.  One
Koszul store per ``full_homology`` call or ``verify`` sweep holds a template
per ``k`` and entry keys per ``(k, z)``, as neither depends on the system or
``P``; each block fills its own dict, in block-local indices, over its keys.

A slice is checked for ``d o d = 0`` before its homology, on the entries
the builder made, not on the template: each distinct key sequence's paths
are derived once, in dicts that trust no index range, into a plan store the
caller makes; each block is judged by its own coefficients, and the first
source with a non-zero composite is raised with its block, ``P`` and degree.
Ranks are taken per block by exact gcd-normalised elimination, only of the
differentials that have entries (any other is zero, of rank 0), by
increasing degree, each without the pivot sources of the one below.  A
rank store, of the same scope as the other two, keys each block's non-zero
``dim H^l`` by the block's own sizes and entries, never by the template, so
a block equal to one ranked before in the call or sweep is only named.
Homology comes back as a ``SheafMatrix``, the type of the closed form, but
nothing here knows the closed-form answer: this is the independent side of
the cross-validation.  A slice over the fixed size cap ``ORACLE_CAP`` is
refused from its closed-form size, before anything is built; that size is
computed only when the system's ``rank * 2^n`` elements pass the cap.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import accumulate, product
from math import comb
from operator import add, mul, sub

from .errors import BadHodgeIndex, OracleSizeExceeded
from .linalg import integer_matrix_rank
from .model import LineBundleMonomial, LocalSystemSpec, SheafMatrix

ORACLE_CAP = 10**6  # basis elements in one slice


@dataclass(frozen=True, order=True, slots=True)
class HiggsBasisElement:
    """Basis element ``e(t) (x) dz_I`` of the logarithmic Higgs complex;
    ``wedge`` is ``I`` as a sorted tuple of 1-based factor indices."""

    t: tuple[int, ...]
    wedge: tuple[int, ...]

    def monomial(self, m: tuple[int, ...]) -> LineBundleMonomial:
        """``prod_i L_i^{m_i - 2 s_i}`` of the block ``s_i = t_i - [i in I]``."""
        exponents = [mi - 2 * ti for mi, ti in zip(m, self.t)]
        for i in self.wedge:
            exponents[i - 1] += 2
        return LineBundleMonomial(tuple(exponents))


def _states(s: tuple[int, ...], m: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The states ``e_i`` of each factor of block ``s``, with ``t_i = s_i + e_i``."""
    return [(1,) if si == -1 else (0,) if si == mi else (0, 1) for si, mi in zip(s, m)]


def _element(s: tuple[int, ...], e) -> HiggsBasisElement:
    """The basis element of block ``s`` in the states ``e``."""
    wedge = tuple(i for i, ei in enumerate(e, 1) if ei)
    return HiggsBasisElement(tuple(map(add, s, e)), wedge)


@dataclass
class HiggsChainComplex:
    """One Hodge-index slice of the logarithmic Higgs complex, block by block.

    ``blocks[b]`` is ``(s, sizes)``: the block ``s`` and its number of basis
    elements in each degree ``0..n``, blocks in lexicographic order of ``s``.
    ``differentials[b]`` is the block's differential as
    ``{(l, target, source): coeff}``, an entry of ``d_l`` whose indices are
    local to the block's elements of degree ``l + 1`` and ``l``.
    """

    spec: LocalSystemSpec
    P: int
    blocks: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    differentials: tuple[dict[tuple[int, int, int], int], ...]

    @property
    def total_size(self) -> int:
        return sum(sum(sizes) for _, sizes in self.blocks)

    @property
    def terms(self) -> tuple[tuple[HiggsBasisElement, ...], ...]:
        """The basis per degree, block after block, each block in the product
        order of its states; built on demand, for tests and tracing only."""
        terms: list[list[HiggsBasisElement]] = [[] for _ in range(self.spec.n + 1)]
        for s, _ in self.blocks:
            for e in product(*_states(s, self.spec.m)):
                el = _element(s, e)
                terms[len(el.wedge)].append(el)
        return tuple(map(tuple, terms))

    def verify_chain_property(self, plans: dict | None = None) -> None:
        """Raise unless d_{l+1} o d_l = 0 on every block, read entry by entry.

        ``plans``, the caller's store or a new one, holds each distinct key
        sequence's composition paths as entry positions grouped in dicts, so
        no index range is trusted, and never coefficients; each block is
        judged by its own ``list(d.values())``."""
        plans = {} if plans is None else plans
        for (s, _), d in zip(self.blocks, self.differentials):
            if len(d) < 2:  # no two entries compose
                continue
            if (plan := plans.get(keys := tuple(d))) is None:
                out = {}  # (degree, source) -> [(target, position)], in key order
                for i, (l, tgt, src) in enumerate(keys):
                    out.setdefault((l, src), []).append((tgt, i))
                order, pairs, ends = [], [], []  # ends: the last pair of each target
                # degree by degree, sources in key order, as failures are named
                for (l, src), mids in sorted(out.items(), key=lambda item: item[0][0]):
                    paths = {}  # target in degree l + 2 -> [(i, j)]
                    for mid, i in mids:
                        for tgt, j in out.get((l + 1, mid), ()):
                            paths.setdefault(tgt, []).append((i, j))
                    for ij in paths.values():
                        pairs += ij
                        ends.append(len(pairs) - 1)
                    order += [(l, src, tuple(paths))] if paths else []
                lows, highs = zip(*pairs) if pairs else ((), ())
                plan = plans[keys] = lows, highs, tuple(ends), tuple(order)
            lows, highs, ends, order = plan
            get = list(d.values()).__getitem__
            running = list(accumulate(map(mul, map(get, lows), map(get, highs))))
            # the running sum is 0 at each target's last path iff every composite is 0
            if not any(map(running.__getitem__, ends)):
                continue
            at_ends = list(map(running.__getitem__, ends))
            sums = map(sub, at_ends, [0, *at_ends])  # each target's composite, in order
            for l, src, targets in order:  # zip draws one sum per target, no more
                composite = dict(zip(targets, sums))
                if any(composite.values()):
                    raise AssertionError(
                        f"d o d != 0 in block s={s} for P={self.P}: "
                        f"degree {l}, source {src}, composite {composite}"
                    )

    def verify_monomial_grading(self) -> None:
        """Assert every differential entry lies inside its block, so that it
        connects elements of one monomial: ``d_l`` maps the block's degree
        ``l`` into its degree ``l + 1``."""
        n = self.spec.n
        for (s, sizes), d in zip(self.blocks, self.differentials):
            for l, tgt, src in d:
                if not (0 <= l < n and 0 <= src < sizes[l] and 0 <= tgt < sizes[l + 1]):
                    raise AssertionError(
                        f"differential entry {(l, tgt, src)} leaves block s={s}, "
                        f"whose sizes per degree are {sizes}"
                    )


def slice_size(spec: LocalSystemSpec, P: int) -> int:
    """Number of basis elements of the slice at Hodge index P, in closed form.

    Degree ``l`` pairs a subset of size ``l`` with a ``t`` of sum
    ``|m| - P + l``, so the size is ``sum_l C(n, l) * c(|m| - P + l)`` where
    ``c(s)`` is the coefficient of ``x^s`` in ``prod_i (1 + x + ... + x^{m_i})``.
    """
    c = [1]
    for mi in spec.m:  # one more factor: c(s) becomes c(s - mi) + ... + c(s)
        running = list(accumulate(c + [0] * mi))  # c(0) + ... + c(s)
        c = [a - b for a, b in zip(running, [0] * (mi + 1) + running)]
    return sum(
        comb(spec.n, l) * c[s]
        for l in range(spec.n + 1)
        if 0 <= (s := spec.weight - P + l) < len(c)
    )


def build_log_higgs_complex(
    spec: LocalSystemSpec, P: int, koszul: dict | None = None
) -> HiggsChainComplex:
    """Assemble the slice of the logarithmic Higgs complex at Hodge index P.

    The differential of a basis element ``(t, I)`` is

        d(t, I) = sum over i not in I of
                  (-1)^#{j in I : j < i} * (m_i - t_i) * (t + delta_i, I + {i}),

    and summands with coefficient zero (``t_i = m_i``) are omitted.  Blocks
    come in lexicographic order of ``s``, each in the product order of its
    states.  A slice over ``ORACLE_CAP`` (10^6), read at each call, raises
    :class:`OracleSizeExceeded` before anything is built.  ``koszul``, the
    caller's Koszul store or a new one, is read and filled with tuples: ``k``
    -> (counts per degree, coefficient picks), ``(k, z)`` -> entry keys.
    """
    if not 0 <= P <= spec.weight + spec.n:
        raise BadHodgeIndex(
            f"Hodge index P must lie in [0, {spec.weight + spec.n}], got {P}"
        )
    # the system's rank * 2^n elements bound each slice: size it only past that
    if spec.rank * 2**spec.n > ORACLE_CAP:
        if (size := slice_size(spec, P)) > ORACLE_CAP:
            raise OracleSizeExceeded(
                f"complex has {size} basis elements, cap is {ORACLE_CAP}"
            )
    n, m = spec.n, spec.m
    koszul = {} if koszul is None else koszul
    # the blocks, -1 <= s_i <= m_i with sum(s) = |m| - P, extended factor by
    # factor in lexicographic order while the factors left can reach the sum
    heads = [((), spec.weight - P)]  # (prefix of s, sum left to reach)
    for i, mi in enumerate(m):
        low, high = i + 1 - n, sum(m[i + 1 :])
        heads = [
            ((*head, si), left - si)
            for head, left in heads
            for si in range(max(-1, left - high), min(mi, left - low) + 1)
        ]
    blocks, differentials = [], []
    for s, _ in heads:
        z, coeffs = 0, []  # factors at s_i = -1, signed free coefficients
        for si, mi in zip(s, m):
            if si == -1:
                z += 1
            elif si < mi:
                coeffs.append(-(mi - si) if z % 2 else mi - si)
        if (k := len(coeffs)) not in koszul:
            # the Koszul complex on k factors: counts per degree and, per entry
            # (l, target, source), the pick j, or k + j if free factor j is negated
            counts, index = [0] * (k + 1), {}
            for e in product((0, 1), repeat=k):  # the product order of states
                index[e] = (l := sum(e)), counts[l]
                counts[l] += 1
            entries = [
                (l, index[(*e[:j], 1, *e[j + 1 :])][1], src, j + k * (sum(e[:j]) % 2))
                for e, (l, src) in index.items() for j in range(k) if not e[j]
            ]
            koszul[k] = tuple(counts), tuple(entry[3] for entry in entries)
            koszul[k, 0] = tuple(entry[:3] for entry in entries)
        counts, picks = koszul[k]
        if (k, z) not in koszul:  # the keys (l + z, target, source)
            koszul[k, z] = tuple((l + z, tgt, src) for l, tgt, src in koszul[k, 0])
        blocks.append((s, (0,) * z + counts + (0,) * (n - z - k)))
        signed = coeffs + [-c for c in coeffs]
        differentials.append(dict(zip(koszul[k, z], map(signed.__getitem__, picks))))

    return HiggsChainComplex(spec, P, tuple(blocks), tuple(differentials))


def _block_homology(P: int, s, sizes, d) -> tuple:
    """The non-zero ``(l, dim H^l)`` of block ``s`` of slice ``P``, ranked as
    ``homology`` describes."""
    rows = {}  # degree l -> d_l, a dense row per source, if it has entries
    for (l, tgt, src), coeff in d.items():
        if l not in rows:
            rows[l] = [[0] * sizes[l + 1] for _ in range(sizes[l])]
        rows[l][src][tgt] = coeff
    ranks, cleared = [0] * (len(sizes) + 1), None  # rank of d_l at l + 1
    for l in sorted(rows):
        for src in reversed(cleared or ()):  # the pivot sources of d_{l-1}
            del rows[l][src]
        cleared = [] if l + 1 in rows else None  # only if d_{l+1} is ranked
        ranks[l + 1] = integer_matrix_rank(rows[l], cleared)
    dims = []
    for l, size in enumerate(sizes):
        if (dim := size - ranks[l + 1] - ranks[l]) < 0:
            raise AssertionError(
                f"negative dimension in block s={s} for P={P}: degree {l}, "
                f"rank d_{{{l}}} = {ranks[l + 1]}, rank d_{{{l - 1}}} = {ranks[l]}"
            )
        if dim:
            dims.append((l, dim))
    return tuple(dims)


def homology(cx: HiggsChainComplex, ranks: dict | None = None) -> SheafMatrix:
    """Homology of one complex, computed blockwise by exact integer rank:
    ``dim H^l = dim(term_l) - rank(d_l) - rank(d_{l-1})`` per block.  Each
    ``d_l`` with entries is a dense row per source, ranked in increasing
    ``l`` without the pivot sources of ``d_{l-1}``.  Precondition: the chain
    check has passed, as both callers ensure.  Then each echelon row of
    ``d_{l-1}`` is in ``im d_{l-1} <= ker d_l``, so a pivot source's image
    combines those of later sources: ``rank d_l`` is unchanged.

    ``ranks``, the caller's rank store or a new one, is keyed by a block's
    own entries, never by the template they came from: ``tuple(d)`` ->
    ``(sizes, tuple(d.values()))`` -> the block's non-zero ``(l, dim H^l)``.
    A block equal to one ranked before is named, not ranked; a block that
    raises stores nothing.  Each block with homology is named by its first
    element's monomial."""
    m, ranks = cx.spec.m, {} if ranks is None else ranks
    cells = defaultdict(Counter)
    for (s, sizes), d in zip(cx.blocks, cx.differentials):
        known, key = ranks.get(keys := tuple(d)), (sizes, tuple(d.values()))
        if known is None or (dims := known.get(key)) is None:
            dims = _block_homology(cx.P, s, sizes, d)
            ranks.setdefault(keys, {})[key] = dims
        if dims:
            mono = _element(s, [si == -1 for si in s]).monomial(m)  # its first element
            for l, dim in dims:
                cells[cx.P, l][mono] = dim
    return SheafMatrix(dict(cells))


def full_homology(spec: LocalSystemSpec) -> SheafMatrix:
    """Homology of every Hodge-index slice, each within ``ORACLE_CAP`` and
    checked for d o d = 0 first, merged into one sheaf matrix; the slices
    share a Koszul store, a plan store and a rank store made for this call, so
    a block equal in sizes and entries to one of any earlier slice is ranked
    once.  Entries are per block, so grading needs no pass; ``verify`` checks
    their index ranges."""
    cells: dict[tuple[int, int], Counter] = {}
    koszul, plans, ranks = {}, {}, {}
    for P in range(spec.weight + spec.n + 1):
        cx = build_log_higgs_complex(spec, P, koszul)
        cx.verify_chain_property(plans)
        cells.update(homology(cx, ranks).cells)
    return SheafMatrix(cells)
