"""Closed-form cohomology-sheaf matrices and the subset combinatorics.

For the multi-weight ``m`` the cohomology sheaves of the logarithmic Higgs
complex are direct sums of line bundles indexed by subsets ``I`` of
``{1..n}``:

    C_I = prod_{i in I} L_i^{m_i + 2} * prod_{i not in I} L_i^{-m_i},

and ``C_I`` sits in the cell ``(P, l) = (|m_I| + |I|, |I|)``.  The whole
matrix is the Kunneth product of the ``n`` single-factor matrices, which the
tests build as an independent route to it.  ``N(m, P)`` counts the subsets
landing at a given ``P``: the multiplicity pattern of the middle Hodge numbers.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import combinations

from .errors import BadDegree
from .model import LineBundleMonomial, LocalSystemSpec, SheafMatrix


def subset_monomials(m):
    """Yield ``(P, l, C_I)`` for every subset ``I`` of ``{1..n}``.

    ``l = |I|`` and ``P = |m_I| + |I|``; subsets come in order of increasing
    ``l``, so a caller that needs ``l <= k`` only can stop at the first
    larger ``l``.  Within one ``l`` the order is lexicographic in ``I``, so
    descending in the exponents of ``C_I`` (``m_i + 2 > 0 >= -m_i``).  This
    is the one place the monomials ``C_I`` are built.
    """
    n = len(m)
    base = [-mi for mi in m]
    for l in range(n + 1):
        for wedge in combinations(range(n), l):
            exps = base.copy()
            P = l
            for i in wedge:
                exps[i] = m[i] + 2
                P += m[i]
            yield P, l, LineBundleMonomial(tuple(exps))


def cohomology_sheaf_closed_form(spec: LocalSystemSpec) -> SheafMatrix:
    """The full sheaf matrix of ``m``: one monomial ``C_I`` per subset ``I``."""
    cells: dict[tuple[int, int], Counter] = defaultdict(Counter)
    for P, l, mono in subset_monomials(spec.m):
        cells[P, l][mono] += 1
    return SheafMatrix(dict(cells))


def count_N(m, P: int) -> int:
    """Number of subsets ``I`` of ``{1..n}`` with ``|m_I| + |I| = P``.

    Branch-and-bound over the sorted weights ``m_i + 1``; exact for any n,
    practical up to n = 64 because each element contributes at least 1.
    """
    weights = sorted((int(mi) + 1 for mi in m), reverse=True)
    if any(w <= 0 for w in weights):
        raise BadDegree(f"all weights must be >= 0, got m = {tuple(m)}")
    n = len(weights)
    if n > 64:
        raise BadDegree(f"subset counting supports n <= 64, got n = {n}")
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + weights[i]

    count, stack = 0, [(0, P)]  # (index, sum still needed)
    while stack:
        idx, need = stack.pop()
        while 0 < need <= suffix[idx]:  # leave out weights[idx], stack taking it
            stack.append((idx + 1, need - weights[idx]))
            idx += 1
        count += need == 0
    return count


def weight_counts(m) -> tuple[int, ...]:
    """All of ``N(m, P)`` at once, via the product ``prod_i (1 + x^{m_i+1})``.

    Entry ``P`` of the result is ``N(m, P)`` for ``0 <= P <= |m| + n``.
    Agrees with :func:`count_N` everywhere; this is the fast path used by
    table assembly.
    """
    m = tuple(int(mi) for mi in m)
    top = sum(m) + len(m)
    dist = [0] * (top + 1)
    dist[0] = 1
    support = 0
    for mi in m:
        w = mi + 1
        for P in range(support, -1, -1):
            if dist[P]:
                dist[P + w] += dist[P]
        support += w
    return tuple(dist)
