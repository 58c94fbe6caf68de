"""Blockwise homology of a Higgs complex from whole, uncleared ranks: an
independent route to :func:`hilbert_hodge.homology`, used only as a test
reference.

Each block's ``d_l`` is ranked as the full matrix of its entries, one row
per target, with no pivot clearing, so this route does not rest on
``d o d = 0``; each block is named by ``prod_i L_i^{m_i - 2 s_i}``, read
off its ``s``.
"""

from collections import Counter

from hilbert_hodge import LineBundleMonomial
from hilbert_hodge.linalg import integer_matrix_rank


def uncleared_homology(cx) -> dict:
    """``{(P, l): Counter({monomial: dim})}``, as in ``homology(cx).cells``."""
    cells = {}
    for (s, sizes), d in zip(cx.blocks, cx.differentials):
        ranks = [0] * (len(sizes) + 1)  # ranks[l + 1] is the rank of d_l
        for l in range(len(sizes) - 1):
            rows = [
                [d.get((l, tgt, src), 0) for src in range(sizes[l])]
                for tgt in range(sizes[l + 1])
            ]
            ranks[l + 1] = integer_matrix_rank(rows)
        mono = LineBundleMonomial(tuple(mi - 2 * si for mi, si in zip(cx.spec.m, s)))
        for l, size in enumerate(sizes):
            if dim := size - ranks[l + 1] - ranks[l]:
                cells.setdefault((cx.P, l), Counter())[mono] = dim
    return cells
