"""Assembled tables against hand-substituted dimension values."""

from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from hilbert_hodge import (
    DictionaryMiss,
    InconsistentInvariants,
    LineBundleMonomial,
    VarietyInvariants,
    eisenstein_data,
    gr_F_labels,
    ih_table,
    mhs_table,
    sheaf_cohomology_dim,
    validate_spec,
)
from hilbert_hodge import tables
from hilbert_hodge.errors import BadDegree, TrivialSystem
from hilbert_hodge.tables import covered_pieces, gr_F_label_rows, gr_f_label_count


def mono(*exps):
    return LineBundleMonomial(tuple(exps))


def label(degree, *exps):
    return (degree, mono(*exps))


class TestGrFLabels:
    def test_middle_degree_interior_piece(self):
        spec = validate_spec(2, (1, 1))
        labels = gr_F_labels(spec, 2)
        assert labels[2] == (label(1, -1, 3), label(1, 3, -1))

    def test_middle_degree_top_piece(self):
        spec = validate_spec(2, (1, 1))
        assert gr_F_labels(spec, 2)[4] == (label(0, 3, 3),)

    def test_boundary_degree_top_piece(self):
        spec = validate_spec(2, (1, 1))
        assert gr_F_labels(spec, 3)[4] == (label(1, 3, 3),)

    def test_negative_target_degrees_omitted(self):
        spec = validate_spec(2, (1, 1))
        labels = gr_F_labels(spec, 0)
        # only the empty subset survives k - |I| >= 0 at k = 0
        assert set(labels) == {0}
        assert labels[0] == (label(0, -1, -1),)

    @pytest.mark.parametrize("k", [-1, 5])
    def test_degree_outside_zero_to_2n_refused(self, k):
        spec = validate_spec(2, (1, 1))
        message = rf"^degree k must lie in \[0, 4\], got {k}$"
        with pytest.raises(ValueError, match=message):
            gr_F_labels(spec, k)

    def test_mixed_form_degrees_at_same_piece(self):
        spec = validate_spec(3, (1, 0, 0))
        labels = gr_F_labels(spec, 3)
        # P = 2 collects I = {1} (degree 2) and I = {2,3} (degree 1)
        assert labels[2] == (
            label(1, -1, 2, 2),
            label(2, 3, 0, 0),
        )

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=5).map(tuple))
    def test_matches_per_subset_enumeration(self, m):
        n = len(m)
        spec = validate_spec(n, m)
        for k in range(2 * n + 1):
            expected = {}
            for mask in range(2**n):
                chosen = [i for i in range(n) if mask >> i & 1]
                if len(chosen) > k:
                    continue
                P = sum(m[i] + 1 for i in chosen)
                exps = [m[i] + 2 if i in chosen else -m[i] for i in range(n)]
                expected.setdefault(P, []).append(label(k - len(chosen), *exps))
            assert gr_F_labels(spec, k) == {
                P: tuple(sorted(labels)) for P, labels in expected.items()
            }

    @pytest.mark.parametrize("m", [(1, 1), (2, 0, 1), (1, 3, 0, 2), (1,) * 6])
    def test_label_count_closed_form(self, m):
        n = len(m)
        spec = validate_spec(n, m)
        emitted = sum(
            len(labels)
            for k in range(2 * n + 1)
            for labels in gr_F_labels(spec, k).values()
        )
        assert gr_f_label_count(n) == emitted
        assert emitted == sum(comb(n, l) * (2 * n + 1 - l) for l in range(n + 1))


def default_sweep_specs():
    """Every non-trivial system of the default ``verify`` sweep."""
    for n in (2, 3, 4):
        for m in product(range(4), repeat=n):
            if any(m):
                yield validate_spec(n, m, table=True)


# the two systems of the table-wide benchmark
WIDE_SPECS = [
    validate_spec(12, (3,) * 12, table=True),
    validate_spec(11, (1, 1, 2, 3, 0, 0, 3, 2, 1, 1, 3), table=True),
]


class TestLabelRows:
    @pytest.mark.parametrize("wide", [False, True], ids=["default-sweep", "wide"])
    def test_pieces_sorted_and_shared_list_matches(self, wide):
        specs = WIDE_SPECS if wide else list(default_sweep_specs())
        for spec in specs:
            rows = gr_F_label_rows(spec)
            assert len(rows) == 2 * spec.n + 1
            for k, row in enumerate(rows):
                for piece in row.values():
                    assert piece == tuple(sorted(piece)), (spec, k)
                assert row == gr_F_labels(spec, k), (spec, k)

    def test_dictionary_covers_exactly_the_chosen_pieces(self):
        inv = {n: VarietyInvariants(n, 2, 2) for n in (2, 3, 4)}
        checked = 0
        for spec in default_sweep_specs():
            for k, row in enumerate(gr_F_label_rows(spec)):
                covered = covered_pieces(spec, k, row)
                keys = {P for P, _ in covered}
                # the row's own pieces, in the row's order
                assert list(covered) == [(P, pc) for P, pc in row.items() if P in keys]
                for P, piece in row.items():
                    resolves = []
                    for lb in piece:
                        try:
                            sheaf_cohomology_dim(lb, spec, inv[spec.n])
                        except DictionaryMiss:
                            resolves.append(False)
                        else:
                            resolves.append(True)
                    if P in keys:
                        assert all(resolves), (spec, k, P)
                    else:
                        assert not all(resolves), (spec, k, P)
                    checked += 1
        assert checked > 10_000


class TestDimensionDictionary:
    def setup_method(self):
        self.spec = validate_spec(2, (1, 1), table=True)
        self.inv = VarietyInvariants(2, 2, 1)  # h=2, g=1 -> D=8, e=2

    def test_dual_weight_below_middle_vanishes(self):
        spec = validate_spec(2, (1, 2), table=True)
        inv = VarietyInvariants(2, 1, 1)
        assert sheaf_cohomology_dim(label(1, -1, -2), spec, inv) == 0

    def test_top_monomial_in_degree_zero(self):
        assert sheaf_cohomology_dim(label(0, 3, 3), self.spec, self.inv) == 10

    def test_top_monomial_midrange_degree(self):
        spec = validate_spec(3, (2, 2, 2), table=True)
        inv = VarietyInvariants(3, 5, 1)
        assert sheaf_cohomology_dim(label(1, 4, 4, 4), spec, inv) == comb(2, 1) * 5
        assert sheaf_cohomology_dim(label(2, 4, 4, 4), spec, inv) == comb(2, 2) * 5

    def test_proper_subset_in_its_degree(self):
        # I = {1}: C_I = L1^3 L2^-1, determined in degree n - 1 = 1
        assert sheaf_cohomology_dim(label(1, 3, -1), self.spec, self.inv) == 8
        # I = empty set in degree n
        assert sheaf_cohomology_dim(label(2, -1, -1), self.spec, self.inv) == 8

    def test_misses(self):
        # one label per raise site, with the exact message it reports
        misses = [
            (label(0, 3, 3, 3),
             "label H^0(Xbar, L1^3 L2^3 L3^3) has rank 3, spec has n=2"),
            (label(2, 3, 3), "no dictionary entry for H^2(Xbar, L1^3 L2^3)"),
            (label(0, 1, 1),
             "H^0(Xbar, L1^1 L2^1) is not of the form H^j(Xbar, C_I)"),
            (label(0, 3, -1),
             "no dictionary entry for H^0(Xbar, L1^3 L2^-1) (only degree 1 of "
             "this monomial is determined)"),
        ]
        for lb, message in misses:
            with pytest.raises(DictionaryMiss) as caught:
                sheaf_cohomology_dim(lb, self.spec, self.inv)
            assert str(caught.value) == message

    def test_non_parallel_edge_dims(self):
        spec = validate_spec(2, (1, 0), table=True)
        inv = VarietyInvariants(2, 3, 1)  # D = 4, e = 0
        assert sheaf_cohomology_dim(label(0, 3, 2), spec, inv) == 4
        assert sheaf_cohomology_dim(label(1, 3, 2), spec, inv) == 0


class TestIhTable:
    def test_hand_values(self):
        table = ih_table(validate_spec(2, (1, 1)), VarietyInvariants(2, 1, 1))
        assert table.dims == (0, 0, 32, 0, 0)
        assert table.hodge == {(4, 0): 8, (2, 2): 16, (0, 4): 8}

    def test_off_middle_vanishes(self):
        table = ih_table(validate_spec(2, (1, 0)), VarietyInvariants(2, 1, 1))
        assert table.dims[1] == 0
        assert table.dims[3] == 0
        assert table.dims[2] == 16

    def test_inconsistent_invariants_rejected(self):
        with pytest.raises(InconsistentInvariants):
            VarietyInvariants(3, 1, 0)

    def test_hodge_symmetry(self):
        for m in [(1, 1), (2, 1), (3, 0)]:
            table = ih_table(validate_spec(2, m), VarietyInvariants(2, 2, 2))
            for (p, q), d in table.hodge.items():
                assert table.hodge[(q, p)] == d

    def test_requires_table_mode(self):
        with pytest.raises(TrivialSystem):
            ih_table(validate_spec(2, (0, 0)), VarietyInvariants(2, 1, 1))


class TestEisenstein:
    def test_three_factor_degree_four(self):
        spec = validate_spec(3, (2, 2, 2))
        inv = VarietyInvariants(3, 1, 1)
        datum = eisenstein_data(spec, inv, 4)
        assert datum.dim == 2
        assert [a for a, _, _ in datum.per_cusp_basis] == [(1,), (2,)]
        a, alpha, beta = datum.per_cusp_basis[0]
        assert alpha == (3, 4, 4)
        assert beta == (1, 0, 0)

    def test_non_parallel_vanishes(self):
        spec = validate_spec(2, (1, 0))
        datum = eisenstein_data(spec, VarietyInvariants(2, 4, 1), 3)
        assert datum.dim == 0
        assert datum.per_cusp_basis == ()

    def test_middle_degree_parallel(self):
        spec = validate_spec(2, (1, 1))
        datum = eisenstein_data(spec, VarietyInvariants(2, 5, 1), 2)
        assert datum.dim == 5
        assert [a for a, _, _ in datum.per_cusp_basis] == [()]
        _, alpha, beta = datum.per_cusp_basis[0]
        assert alpha == (3, 3)
        assert beta == (0, 0)

    def test_out_of_band_degrees_empty(self):
        spec = validate_spec(2, (1, 1))
        inv = VarietyInvariants(2, 1, 1)
        for k in (0, 1, 4):
            assert eisenstein_data(spec, inv, k).dim == 0

    def test_binomial_dimension_pattern(self):
        spec = validate_spec(4, (3, 3, 3, 3))
        inv = VarietyInvariants(4, 3, 2)
        for k in range(4, 8):
            assert eisenstein_data(spec, inv, k).dim == comb(3, k - 4) * 3


class TestMhsTable:
    def test_parallel_n2_m22(self):
        table = mhs_table(validate_spec(2, (2, 2)), VarietyInvariants(2, 1, 1))
        row = table.rows[2]
        assert row.dim == 73
        assert row.hodge == {(0, 6): 18, (3, 3): 36, (6, 0): 18, (6, 6): 1}
        assert row.splitting == (72, 1)
        assert row.weights == ((6, 72), (12, 1))
        assert table.rows[3].dim == 1
        assert table.rows[3].hodge == {(6, 6): 1}
        assert table.mhs_field == "Q"

    def test_parallel_n2_m11(self):
        table = mhs_table(validate_spec(2, (1, 1)), VarietyInvariants(2, 1, 1))
        row = table.rows[2]
        assert row.dim == 33
        assert row.hodge == {(0, 4): 8, (2, 2): 16, (4, 0): 8, (4, 4): 1}
        assert table.rows[1].dim == 0
        assert table.rows[1].note == "vanishes"
        assert table.rows[4].dim == 0

    def test_non_parallel_n2_m10(self):
        # genus 0: dim 8 spread as 2 per Hodge position
        table = mhs_table(validate_spec(2, (1, 0)), VarietyInvariants(2, 1, 0))
        row = table.rows[2]
        assert row.dim == 8
        assert row.hodge == {(0, 3): 2, (1, 2): 2, (2, 1): 2, (3, 0): 2}
        assert table.rows[3].dim == 0
        assert table.mhs_field == "R"
        # genus 1 doubles the universal summand
        table = mhs_table(validate_spec(2, (1, 0)), VarietyInvariants(2, 1, 1))
        row = table.rows[2]
        assert row.dim == 16
        assert row.hodge == {(0, 3): 4, (1, 2): 4, (2, 1): 4, (3, 0): 4}

    def test_boundary_row_n4(self):
        table = mhs_table(
            validate_spec(4, (1, 1, 1, 1)), VarietyInvariants(4, 2, 0)
        )
        row = table.rows[5]
        assert row.dim == 6
        assert row.hodge == {(8, 8): 6}
        assert row.weights == ((16, 6),)
        assert row.splitting == (0, 6)

    def test_degenerate_d_zero(self):
        # odd n with genus 1 kills the interior part; only the boundary stays
        table = mhs_table(validate_spec(3, (1, 1, 1)), VarietyInvariants(3, 4, 1))
        row = table.rows[3]
        assert row.splitting == (0, 4)
        assert row.dim == 4
        assert row.hodge == {(6, 6): 4}

    @pytest.mark.parametrize("m", [(1, 1, 1), (2, 0, 1)])
    def test_shared_labels_build_the_same_table(self, m):
        spec = validate_spec(3, m, table=True)
        labels = gr_F_label_rows(spec)
        built = 0
        for g, h in product((0, 1, 2, 3), (1, 2, 5)):
            try:
                inv = VarietyInvariants(3, h, g)
            except InconsistentInvariants:
                continue
            assert mhs_table(spec, inv, labels) == mhs_table(spec, inv)
            built += 1
        assert built == 9

    def test_gr_f_crosscheck_middle(self):
        spec = validate_spec(2, (1, 1), table=True)
        inv = VarietyInvariants(2, 1, 1)
        table = mhs_table(spec, inv)
        row = table.rows[2]
        for P, labels in row.gr_f.items():
            total = sum(sheaf_cohomology_dim(lb, spec, inv) for lb in labels)
            column = sum(d for (p, _), d in row.hodge.items() if p == P)
            assert total == column

    def test_gr_f_crosscheck_boundary(self):
        spec = validate_spec(3, (2, 2, 2), table=True)
        inv = VarietyInvariants(3, 2, 1)
        table = mhs_table(spec, inv)
        w = spec.weight + spec.n
        for k in (4, 5):
            row = table.rows[k]
            labels = row.gr_f[w]
            total = sum(sheaf_cohomology_dim(lb, spec, inv) for lb in labels)
            assert total == row.dim == comb(2, k - 3) * 2

    def test_gr_f_check_resolves_each_covered_label_once(self, monkeypatch):
        resolved = []

        def counted(label, spec, inv):
            resolved.append(label)
            return sheaf_cohomology_dim(label, spec, inv)

        monkeypatch.setattr(tables, "sheaf_cohomology_dim", counted)
        want = []
        for n in (2, 3):
            inv = VarietyInvariants(n, 2, 2)
            for m in product(range(3), repeat=n):
                if not any(m):
                    continue
                spec = validate_spec(n, m, table=True)
                before = len(want)
                for k, row in enumerate(gr_F_label_rows(spec)):
                    for P, piece in row.items():
                        if (
                            k == n
                            or (k < n and P == 0)
                            or (n < k < 2 * n and P == spec.weight + n)
                        ):
                            want.extend(piece)
                # one label per degree below n, 2^n at n, one per n < k < 2n
                assert len(want) - before == n + 2**n + n - 1
                mhs_table(spec, inv)
        assert resolved == want and len(want) == 8 * 7 + 26 * 13

    @pytest.mark.parametrize(
        "n, m, inv, broken, message",
        [
            (2, (1, 1), (2, 1, 1), [(1, (-1, -1))],
             "Gr_F^0 of H^1 resolves to 1 but the Hodge numbers give 0"),
            (2, (1, 1), (2, 1, 1), [(1, (3, -1))],
             "Gr_F^2 of H^2 resolves to 17 but the Hodge numbers give 16"),
            (3, (1, 1, 1), (3, 2, 2), [(1, (3, 3, 3))],
             "Gr_F^6 of H^4 resolves to 5 but the Hodge numbers give 4"),
            # Gr_F^3 comes before Gr_F^2 in the label order of H^2
            (2, (2, 1), (2, 1, 1), [(1, (-2, 3)), (1, (4, -1))],
             "Gr_F^3 of H^2 resolves to 13 but the Hodge numbers give 12"),
        ],
        ids=["P=0-below-n", "H^n", "top-above-n", "first-in-label-order"],
    )
    def test_gr_f_check_fails_on_an_entry_off_by_one(
        self, monkeypatch, n, m, inv, broken, message
    ):
        def off_by_one(label, spec, inv):
            d = sheaf_cohomology_dim(label, spec, inv)
            return d + 1 if (label[0], label[1].exponents) in broken else d

        monkeypatch.setattr(tables, "sheaf_cohomology_dim", off_by_one)
        with pytest.raises(AssertionError) as caught:
            mhs_table(validate_spec(n, m, table=True), VarietyInvariants(*inv))
        assert str(caught.value) == message


class TestMhsSweeps:
    def inputs(self):
        for n in (2, 3, 4):
            for m in product(range(4 if n < 4 else 2), repeat=n):
                if all(mi == 0 for mi in m):
                    continue
                for g in (0, 1, 2, 3):
                    if g + (-1) ** n < 0:
                        continue
                    for h in (1, 2, 5):
                        yield validate_spec(n, m), VarietyInvariants(n, h, g)

    def test_hodge_symmetry_everywhere(self):
        for spec, inv in self.inputs():
            table = mhs_table(spec, inv)
            for row in table.rows.values():
                for (p, q), d in row.hodge.items():
                    assert row.hodge.get((q, p)) == d

    def test_weight_hodge_consistency_at_middle(self):
        for spec, inv in self.inputs():
            table = mhs_table(spec, inv)
            row = table.rows[spec.n]
            w = spec.weight + spec.n
            ih_sum = sum(d for (p, q), d in row.hodge.items() if p + q == w)
            assert ih_sum == row.splitting[0]
            assert row.hodge.get((w, w), 0) == row.splitting[1]

    def test_eisenstein_lives_at_hodge_tate_corner(self):
        for spec, inv in self.inputs():
            table = mhs_table(spec, inv)
            w = spec.weight + spec.n
            for row in table.rows.values():
                for (p, q), d in row.hodge.items():
                    if p + q == 2 * w and d:
                        assert (p, q) == (w, w)

    def test_boundary_dimension_count(self):
        for spec, inv in self.inputs():
            table = mhs_table(spec, inv)
            for k in range(spec.n, 2 * spec.n):
                expected = (
                    comb(spec.n - 1, k - spec.n) * inv.cusps
                    if spec.is_parallel
                    else 0
                )
                assert eisenstein_data(spec, inv, k).dim == expected
                if k > spec.n:
                    assert table.rows[k].dim == expected


class TestTableModeGuards:
    def test_engine_spec_rejected(self):
        with pytest.raises(BadDegree):
            mhs_table(validate_spec(1, (1,)), VarietyInvariants(2, 1, 1))

    def test_trivial_rejected(self):
        with pytest.raises(TrivialSystem):
            mhs_table(validate_spec(2, (0, 0)), VarietyInvariants(2, 1, 1))
