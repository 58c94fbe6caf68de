import pytest

from hilbert_hodge import (
    BadDegree,
    InconsistentInvariants,
    IncompatibleRank,
    LineBundleMonomial,
    LocalSystemSpec,
    TrivialSystem,
    VarietyInvariants,
    validate_spec,
)
from hilbert_hodge.model import label_text


class TestValidateSpec:
    def test_parallel_rank_four(self):
        spec = validate_spec(2, (1, 1))
        assert spec.rank == 4
        assert spec.weight == 2
        assert spec.is_parallel
        assert not spec.engine_only

    def test_trivial_rejected_in_table_mode(self):
        with pytest.raises(TrivialSystem):
            validate_spec(2, (0, 0), table=True)
        # engine mode accepts it
        assert validate_spec(2, (0, 0)).is_trivial

    def test_mixed_weights(self):
        spec = validate_spec(3, (2, 0, 1))
        assert spec.rank == 6
        assert spec.weight == 3
        assert not spec.is_parallel

    def test_engine_only_flag(self):
        assert validate_spec(1, (2,)).engine_only
        with pytest.raises(BadDegree):
            validate_spec(1, (2,), table=True)

    @pytest.mark.parametrize(
        "n,m",
        [(0, ()), (-1, ()), (2, (1,)), (2, (1, -1)), (2, (1, 1, 1)),
         # not ints: the type refuses them, and validate_spec does not
         # truncate 1.5 or convert "1" first
         (2.0, (1, 1)), (True, (1,)), (2, (1.0, 1)), (2, (1.5, 1)),
         (2, (True, "1"))],
    )
    def test_bad_degrees(self, n, m):
        with pytest.raises(BadDegree):
            validate_spec(n, m)

    def test_derived_values_leave_identity_alone(self):
        used, fresh = validate_spec(3, (2, 0, 1)), validate_spec(3, (2, 0, 1))
        assert used.rank == 6 and not used.is_parallel
        assert used.top_exponents == (4, 2, 3)
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh) == "LocalSystemSpec(n=3, m=(2, 0, 1))"
        assert used != validate_spec(3, (2, 1, 0))

    def test_direct_construction_validates_too(self):
        with pytest.raises(BadDegree):
            LocalSystemSpec(2, (1,))


class TestMonomials:
    def test_str_forms(self):
        assert str(LineBundleMonomial((3, -1))) == "L1^3 L2^-1"
        assert str(LineBundleMonomial((0, 0))) == "1"

    def test_value_semantics(self):
        # a monomial is the plain one-field tuple (exponents,)
        a = LineBundleMonomial((3, -1))
        assert a == ((3, -1),) and hash(a) == hash(((3, -1),))
        assert a != LineBundleMonomial((-1, 3))
        # ordered by exponents
        monos = [a, LineBundleMonomial((-1, 3)), LineBundleMonomial((3, -2))]
        assert sorted(monos) == [monos[1], monos[2], a]
        assert repr(a) == "LineBundleMonomial(exponents=(3, -1))"
        assert a.latex() == "\\mathcal{L}_{1}^{3}\\mathcal{L}_{2}^{-1}"
        assert LineBundleMonomial((0, 0)).latex() == "\\mathcal{O}"
        with pytest.raises(AttributeError):
            a.exponents = (0, 0)


class TestLabels:
    def test_str(self):
        assert label_text(1, LineBundleMonomial((3, -1))) == "H^1(Xbar, L1^3 L2^-1)"


class TestVarietyInvariants:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("g", [0, 1, 2, 3])
    def test_chi_identity(self, n, g):
        if g + (-1) ** n < 0:
            return
        inv = VarietyInvariants(n, 1, g)
        assert (-1) ** n * (inv.chi_O - 1) == g
        if n % 2 == 0:
            assert inv.chi_O >= 1
        else:
            assert inv.chi_O <= 1

    def test_negative_l2_rejected(self):
        with pytest.raises(InconsistentInvariants):
            VarietyInvariants(3, 1, 0)

    def test_bad_inputs(self):
        with pytest.raises(BadDegree):
            VarietyInvariants(1, 1, 1)
        with pytest.raises(InconsistentInvariants):
            VarietyInvariants(2, 0, 1)
        with pytest.raises(InconsistentInvariants):
            VarietyInvariants(2, 1, -1)
        for fields in ((2.0, 1, 1), (2, True, 1), (2, 1, 1.0)):
            with pytest.raises(InconsistentInvariants, match="must be ints"):
                VarietyInvariants(*fields)

    def test_l2_dim(self):
        inv = VarietyInvariants(2, 1, 1)
        assert inv.l2_dim(validate_spec(2, (1, 1))) == 8
        assert inv.l2_dim(validate_spec(2, (1, 0))) == 4
        with pytest.raises(IncompatibleRank):
            inv.l2_dim(validate_spec(3, (1, 1, 1)))

    def test_l2_dim_zero_when_genus_one_odd_n(self):
        inv = VarietyInvariants(3, 2, 1)
        assert inv.l2_dim(validate_spec(3, (1, 1, 1))) == 0
