"""Test references for the Higgs oracle, each an independent route to what
the package computes.

:func:`uncleared_homology` is blockwise homology from whole, uncleared
ranks, a route to :func:`hilbert_hodge.homology`: each block's ``d_l`` is
ranked as the full matrix of its entries, one row per target, with no pivot
clearing, so this route does not rest on ``d o d = 0``; each block is named
by ``prod_i L_i^{m_i - 2 s_i}``, read off its ``s``.

:func:`chain_failure` is the chain check as a per-source composite loop, a
route to ``HiggsChainComplex.verify_chain_property``: it regroups every
block's entries and walks its paths afresh, with no plan shared between
blocks.
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


def chain_failure(cx) -> str | None:
    """The message ``verify_chain_property`` raises on ``cx``, or ``None`` if
    ``d_{l+1} o d_l = 0`` on every block: per block of two entries or more,
    the entries are grouped per degree into ``source -> [(target, coeff)]``,
    and the first source with a non-zero composite is named."""
    for (s, sizes), d in zip(cx.blocks, cx.differentials):
        if len(d) < 2:  # no two entries compose
            continue
        out = [{} for _ in sizes]  # degree -> source -> [(target, coeff)]
        for (l, tgt, src), coeff in d.items():
            out[l].setdefault(src, []).append((tgt, coeff))
        for l, high in enumerate(out[1:]):
            for src, mids in out[l].items() if high else ():
                composite = {}  # target in degree l + 2 -> coefficient
                for mid, c_low in mids:
                    for tgt, c_high in high.get(mid, ()):
                        composite[tgt] = composite.get(tgt, 0) + c_high * c_low
                if any(composite.values()):
                    return (
                        f"d o d != 0 in block s={s} for P={cx.P}: "
                        f"degree {l}, source {src}, composite {composite}"
                    )
    return None
