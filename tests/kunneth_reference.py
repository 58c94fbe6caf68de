"""The Kunneth product of sheaf matrices: an independent route to the
closed form, used only as a test reference.

The closed-form matrix of ``m`` is the ``n``-fold product of the
single-factor matrices of ``m_1, ..., m_n``; the tests build that product
and compare it with :func:`hilbert_hodge.cohomology_sheaf_closed_form`.
"""

from collections import Counter

from hilbert_hodge import (
    LineBundleMonomial,
    SheafMatrix,
    cohomology_sheaf_closed_form,
    validate_spec,
)


def concat(a: LineBundleMonomial, b: LineBundleMonomial) -> LineBundleMonomial:
    """Juxtapose two monomials over disjoint factor sets."""
    return LineBundleMonomial(a.exponents + b.exponents)


def unit_matrix() -> SheafMatrix:
    """Empty-product unit: n = 0 with a single trivial monomial at (0, 0)."""
    return SheafMatrix({(0, 0): Counter({LineBundleMonomial(()): 1})})


def single_factor_matrix(mi: int) -> SheafMatrix:
    """Sheaf matrix of one upper-half-plane factor of weight ``mi``."""
    return cohomology_sheaf_closed_form(validate_spec(1, (mi,)))


def kunneth_product(a: SheafMatrix, b: SheafMatrix) -> SheafMatrix:
    """Kunneth product: convolve cells, juxtapose monomials.

    The factors live over disjoint index sets, so exponent vectors are
    concatenated in order.
    """
    cells: dict[tuple[int, int], Counter] = {}
    for (p1, l1), c1 in a.cells.items():
        for (p2, l2), c2 in b.cells.items():
            target = cells.setdefault((p1 + p2, l1 + l2), Counter())
            for mono1, k1 in c1.items():
                for mono2, k2 in c2.items():
                    target[concat(mono1, mono2)] += k1 * k2
    return SheafMatrix(cells)
