"""Closed-form matrix, Kunneth multiplicativity and subset counts.

The subset counts are checked against literal powerset enumeration, the
matrix cardinalities against the counts, and the product structure against
the direct construction."""

from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from hilbert_hodge import (
    LineBundleMonomial,
    cohomology_sheaf_closed_form,
    count_N,
    validate_spec,
    weight_counts,
)
from hilbert_hodge.errors import BadDegree
from kunneth_reference import (
    concat,
    kunneth_product,
    single_factor_matrix,
    unit_matrix,
)


def mono(*exps):
    return LineBundleMonomial(tuple(exps))


def powerset_histogram(m):
    """Literal enumeration of all 2^n subsets; the independent count oracle."""
    n = len(m)
    hist = Counter()
    for l in range(n + 1):
        for wedge in combinations(range(n), l):
            hist[sum(m[i] + 1 for i in wedge)] += 1
    return hist


class TestClosedForm:
    def test_two_factor_mixed(self):
        matrix = cohomology_sheaf_closed_form(validate_spec(2, (1, 0)))
        assert matrix.sorted_cells() == [
            ((0, 0), [mono(-1, 0)]),
            ((1, 1), [mono(-1, 2)]),
            ((2, 1), [mono(3, 0)]),
            ((3, 2), [mono(3, 2)]),
        ]

    def test_two_factor_parallel(self):
        matrix = cohomology_sheaf_closed_form(validate_spec(2, (1, 1)))
        assert matrix.sorted_cells() == [
            ((0, 0), [mono(-1, -1)]),
            ((2, 1), [mono(-1, 3), mono(3, -1)]),
            ((4, 2), [mono(3, 3)]),
        ]

    def test_single_factor_trivial(self):
        matrix = cohomology_sheaf_closed_form(validate_spec(1, (0,)))
        assert matrix.sorted_cells() == [
            ((0, 0), [mono(0)]),
            ((1, 1), [mono(2)]),
        ]

    def test_multiplicities_are_one(self):
        for n in (1, 2, 3):
            for m in product(range(3), repeat=n):
                matrix = cohomology_sheaf_closed_form(validate_spec(n, m))
                for counter in matrix.cells.values():
                    assert all(k == 1 for k in counter.values())

    def test_cell_cardinalities_match_subset_counts(self):
        for n in (1, 2, 3, 4):
            for m in product(range(3), repeat=n):
                spec = validate_spec(n, m)
                matrix = cohomology_sheaf_closed_form(spec)
                counts = weight_counts(m)
                for P, N in enumerate(counts):
                    total = sum(
                        sum(matrix.cells.get((P, l), {}).values())
                        for l in range(n + 1)
                    )
                    assert total == N


class TestConcat:
    def test_concat_juxtaposes_exponents(self):
        a = LineBundleMonomial((3, -1))
        b = LineBundleMonomial((2,))
        assert concat(a, b) == LineBundleMonomial((3, -1, 2))
        assert concat(b, a) == LineBundleMonomial((2, 3, -1))


class TestKunnethProduct:
    def test_factorizes_mixed_pair(self):
        got = kunneth_product(single_factor_matrix(1), single_factor_matrix(0))
        want = cohomology_sheaf_closed_form(validate_spec(2, (1, 0)))
        assert got == want

    def test_unit_is_identity(self):
        a = cohomology_sheaf_closed_form(validate_spec(2, (2, 1)))
        assert kunneth_product(a, unit_matrix()) == a

    def test_factorizes_parallel_pair(self):
        got = kunneth_product(single_factor_matrix(1), single_factor_matrix(1))
        want = cohomology_sheaf_closed_form(validate_spec(2, (1, 1)))
        assert got == want

    def test_n_fold_factorization_small(self):
        for n in (1, 2, 3):
            for m in product(range(4), repeat=n):
                prod_matrix = unit_matrix()
                for mi in m:
                    prod_matrix = kunneth_product(
                        prod_matrix, single_factor_matrix(mi)
                    )
                direct = cohomology_sheaf_closed_form(validate_spec(n, m))
                assert prod_matrix == direct

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(0, 4), min_size=4, max_size=6).map(tuple)
    )
    def test_n_fold_factorization_random_large(self, m):
        prod_matrix = unit_matrix()
        for mi in m:
            prod_matrix = kunneth_product(prod_matrix, single_factor_matrix(mi))
        direct = cohomology_sheaf_closed_form(validate_spec(len(m), m))
        assert prod_matrix == direct


class TestSubsetCounts:
    def test_examples(self):
        assert count_N((1, 0), 2) == 1
        assert count_N((1, 1), 2) == 2
        assert sum(count_N((1, 1), P) for P in range(5)) == 4

    def test_against_powerset(self):
        for n in (1, 2, 3, 4, 5):
            for m in product(range(4), repeat=n):
                hist = powerset_histogram(m)
                counts = weight_counts(m)
                for P, N in enumerate(counts):
                    assert N == hist.get(P, 0)
                    assert count_N(m, P) == N

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 6), min_size=1, max_size=10).map(tuple))
    def test_sum_and_symmetry(self, m):
        n = len(m)
        counts = weight_counts(m)
        assert sum(counts) == 2**n
        top = sum(m) + n
        for P in range(top + 1):
            assert counts[P] == counts[top - P]

    def test_out_of_range(self):
        assert count_N((1, 1), 99) == 0
        assert count_N((1, 1), -1) == 0
        with pytest.raises(BadDegree, match="supports n <= 64, got n = 65"):
            count_N((0,) * 65, 2)
        message = r"^all weights must be >= 0, got m = \(1, -1\)$"
        with pytest.raises(BadDegree, match=message):
            count_N((1, -1), 2)

    def test_large_n_fast_path(self):
        from math import comb

        # n = 64 is the documented limit of the subset count
        for n, P in ((30, 3), (64, 2)):
            m = (0,) * n
            counts = weight_counts(m)
            assert counts == tuple(comb(n, k) for k in range(n + 1))
            assert count_N(m, P) == comb(n, P)
