"""Oracle-side tests: explicit small complexes against hand computations,
then the structural sweeps (chain property, grading, Euler bookkeeping)."""

import ast
import random
import re
import time
from dataclasses import replace
from itertools import combinations, product

import pytest

from hilbert_hodge import (
    BadHodgeIndex,
    HiggsChainComplex,
    LineBundleMonomial,
    OracleSizeExceeded,
    build_log_higgs_complex,
    cohomology_sheaf_closed_form,
    full_homology,
    homology,
    validate_spec,
)
from hilbert_hodge import SweepBounds, consistency, higgs
from hilbert_hodge.higgs import HiggsBasisElement, slice_size
from hilbert_hodge.linalg import integer_matrix_rank

from higgs_reference import chain_failure, uncleared_homology


def mono(*exps):
    return LineBundleMonomial(tuple(exps))


class TestSmallComplexes:
    def test_one_factor_top_slice(self):
        spec = validate_spec(1, (1,))
        cx = build_log_higgs_complex(spec, 1)
        assert cx.terms[0] == (HiggsBasisElement((0,), ()),)
        assert cx.terms[1] == (HiggsBasisElement((1,), (1,)),)
        # one block, s = (0,), with one element in each degree
        assert cx.blocks == (((0,), (1, 1)),)
        assert cx.differentials == ({(0, 0, 0): 1},)
        assert homology(cx).cells == {}

    def test_one_factor_bottom_slice(self):
        spec = validate_spec(1, (1,))
        cx = build_log_higgs_complex(spec, 0)
        assert cx.terms[0] == (HiggsBasisElement((1,), ()),)
        assert cx.terms[1] == ()
        assert cx.blocks == (((1,), (1, 0)),)
        assert cx.differentials == ({},)
        h = homology(cx)
        assert h.sorted_cells() == [((0, 0), [mono(-1)])]

    def test_two_factor_middle_slice(self):
        spec = validate_spec(2, (1, 0))
        cx = build_log_higgs_complex(spec, 2)
        assert cx.terms[0] == ()
        assert cx.terms[1] == (
            HiggsBasisElement((0, 0), (1,)),
            HiggsBasisElement((0, 0), (2,)),
        )
        assert [el.monomial(spec.m) for el in cx.terms[1]] == [
            mono(3, 0),
            mono(1, 2),
        ]
        assert cx.terms[2] == (HiggsBasisElement((1, 0), (1, 2)),)
        # block (-1, 0) holds the first element of degree 1; block (0, -1)
        # the second and the one of degree 2, joined by d_1 = [1]
        assert cx.blocks == (((-1, 0), (0, 1, 0)), ((0, -1), (0, 1, 1)))
        assert cx.differentials == ({}, {(1, 0, 0): 1})
        h = homology(cx)
        assert h.sorted_cells() == [((2, 1), [mono(3, 0)])]

    def test_two_factor_bottom_slice(self):
        spec = validate_spec(2, (1, 0))
        cx = build_log_higgs_complex(spec, 0)
        h = homology(cx)
        assert h.sorted_cells() == [((0, 0), [mono(-1, 0)])]

    def test_two_factor_top_slice_parallel(self):
        spec = validate_spec(2, (1, 1))
        cx = build_log_higgs_complex(spec, 4)
        h = homology(cx)
        assert h.sorted_cells() == [((4, 2), [mono(3, 3)])]

    def test_hodge_index_range(self):
        spec = validate_spec(2, (1, 1))
        with pytest.raises(BadHodgeIndex):
            build_log_higgs_complex(spec, 5)
        with pytest.raises(BadHodgeIndex):
            build_log_higgs_complex(spec, -1)


def sweep_specs(max_n, max_m):
    for n in range(1, max_n + 1):
        for m in product(range(max_m + 1), repeat=n):
            yield validate_spec(n, m)


# past the sweeps: blocks with up to 7 free factors, and blocks that mix free
# factors with factors fixed at s_i = -1 and at s_i = m_i
WIDE_SPECS = [
    validate_spec(len(m), m) for m in ((0, 2, 0, 1, 3), (1, 0, 1, 0, 1, 1), (1,) * 7)
]
# the systems of the oracle-large benchmark workload; (1,) * 7 is in both lists
ORACLE_LARGE = [
    validate_spec(len(m), m) for m in ((4, 3, 2, 4, 3), (3, 3, 3, 3, 3), (1,) * 7)
]


class TestStructuralSweep:
    def test_oracle_equals_closed_form(self):
        # the central dual-route property
        for spec in sweep_specs(3, 3):
            got = full_homology(spec)
            want = cohomology_sheaf_closed_form(spec)
            assert got.sorted_cells() == want.sorted_cells(), spec

    @pytest.mark.parametrize(
        "spec", WIDE_SPECS + ORACLE_LARGE[:2], ids=lambda spec: str(spec.m)
    )
    def test_oracle_equals_closed_form_past_the_sweep(self, spec):
        want = cohomology_sheaf_closed_form(spec).sorted_cells()
        assert full_homology(spec).sorted_cells() == want

    def test_oracle_equals_closed_form_off_the_grid(self):
        # systems the sweep grid (n <= 4, m_i <= 3) never builds, from a seed
        # printed for a rerun: n from 2 to 7, m_i from 0 to 6, at least one
        # m_i > 3 or n > 4, and at most 5 * 10^4 basis elements each
        seed = 2010
        print(f"off-grid systems drawn with random.Random({seed})")
        rng, specs = random.Random(seed), []
        while len(specs) < 40:
            n = rng.randint(2, 7)
            spec = validate_spec(n, tuple(rng.randint(0, 6) for _ in range(n)))
            if (max(spec.m) > 3 or n > 4) and spec.rank * 2**n <= 5 * 10**4:
                specs.append(spec)
        start = time.perf_counter()
        for spec in specs:
            want = cohomology_sheaf_closed_form(spec).sorted_cells()
            assert full_homology(spec).sorted_cells() == want, (seed, spec.m)
        assert time.perf_counter() - start < 1

    def test_chain_property_and_grading(self):
        for spec in sweep_specs(3, 2):
            for P in range(spec.weight + spec.n + 1):
                cx = build_log_higgs_complex(spec, P)
                cx.verify_chain_property()
                cx.verify_monomial_grading()

    def test_euler_bookkeeping(self):
        from math import comb

        for spec in sweep_specs(3, 2):
            total = 0
            for P in range(spec.weight + spec.n + 1):
                cx = build_log_higgs_complex(spec, P)
                total += sum(
                    (-1) ** l * len(term) for l, term in enumerate(cx.terms)
                )
            expected = spec.rank * sum(
                (-1) ** l * comb(spec.n, l) for l in range(spec.n + 1)
            )
            assert total == expected == 0

    def test_block_euler_characteristic(self):
        # per slice: alternating homology sum equals alternating term sum
        for spec in sweep_specs(2, 2):
            for P in range(spec.weight + spec.n + 1):
                cx = build_log_higgs_complex(spec, P)
                h = homology(cx)
                lhs = sum(
                    (-1) ** l * sum(counter.values())
                    for (_, l), counter in h.cells.items()
                )
                rhs = sum((-1) ** l * len(term) for l, term in enumerate(cx.terms))
                assert lhs == rhs


class TestOracleCap:
    def test_cap_exceeded(self, monkeypatch):
        monkeypatch.setattr(higgs, "ORACLE_CAP", 2)
        spec = validate_spec(2, (2, 2))
        with pytest.raises(OracleSizeExceeded):
            build_log_higgs_complex(spec, 4)

    def test_closed_form_size_is_the_built_size(self):
        wide = [validate_spec(len(m), m) for m in ((200,), (7, 0, 5), (1,) * 9)]
        for spec in [*sweep_specs(4, 3), *wide]:
            for P in range(spec.weight + spec.n + 1):
                cx = build_log_higgs_complex(spec, P)
                assert slice_size(spec, P) == cx.total_size, (spec.m, P)

    def test_a_system_under_the_cap_is_not_sized_slice_by_slice(self, monkeypatch):
        sized = []

        def spied(spec, P):
            sized.append(P)
            return slice_size(spec, P)

        # the slices of a system hold its rank * 2^n elements: 1,200 * 2^5
        spec = validate_spec(5, (4, 3, 2, 4, 3))
        slices = range(spec.weight + spec.n + 1)
        assert sum(slice_size(spec, P) for P in slices) == spec.rank * 2**5 == 38_400
        monkeypatch.setattr(higgs, "slice_size", spied)
        for P in slices:
            build_log_higgs_complex(spec, P)
        assert sized == []
        # under a cap the system passes, each slice is sized before it is built
        monkeypatch.setattr(higgs, "ORACLE_CAP", 38_399)
        assert build_log_higgs_complex(spec, 9).total_size == slice_size(spec, 9)
        assert sized == [9]
        size = slice_size(spec, 9)
        monkeypatch.setattr(higgs, "ORACLE_CAP", size - 1)
        message = f"^complex has {size} basis elements, cap is {size - 1}$"
        with pytest.raises(OracleSizeExceeded, match=message):
            build_log_higgs_complex(spec, 9)
        assert sized == [9, 9]

    def test_refused_before_any_basis_element_exists(self, monkeypatch):
        def unbuildable(*args, **kwargs):
            raise AssertionError("the block loop started")

        # the first block builds its Koszul template with higgs.product
        monkeypatch.setattr(higgs, "product", unbuildable)
        spec = validate_spec(6, (3,) * 6)
        with pytest.raises(AssertionError, match="the block loop started"):
            build_log_higgs_complex(spec, 12)
        # the middle slice has 34,124 basis elements
        monkeypatch.setattr(higgs, "ORACLE_CAP", 10)
        with pytest.raises(OracleSizeExceeded, match="34124 basis elements, cap is 10"):
            build_log_higgs_complex(spec, 12)

    def test_default(self, monkeypatch):
        assert higgs.ORACLE_CAP == 10**6
        # the cap is read at each call: slice P = 1 of m = (2, 2) has 4 elements
        spec = validate_spec(2, (2, 2))
        monkeypatch.setattr(higgs, "ORACLE_CAP", 3)
        with pytest.raises(OracleSizeExceeded, match="4 basis elements, cap is 3"):
            build_log_higgs_complex(spec, 1)
        monkeypatch.setattr(higgs, "ORACLE_CAP", 4)
        assert build_log_higgs_complex(spec, 1).total_size == 4

    def test_default_cap_is_reachable(self):
        # the largest slice of m = (0,)*n is C(n, n // 2): within the cap at
        # n = 22 and over it at n = 23 (verify refuses such a sweep beforehand)
        narrow, wide = validate_spec(22, (0,) * 22), validate_spec(23, (0,) * 23)
        assert max(slice_size(narrow, P) for P in range(23)) == 705_432
        assert max(slice_size(wide, P) for P in range(24)) == 1_352_078
        message = "1352078 basis elements, cap is 1000000"
        with pytest.raises(OracleSizeExceeded, match=message):
            build_log_higgs_complex(wide, 12)


def out_of_block_complex():
    """A hand-built complex whose one entry leaves its block: block
    s = (0, 0) of n = 2, m = (1, 0) at P = 1 has one element in degree 1,
    and the entry of d_0 targets a second one."""
    return HiggsChainComplex(
        validate_spec(2, (1, 0)), 1, (((0, 0), (1, 1, 0)),), ({(0, 1, 0): 1},)
    )


def global_entries(cx):
    """Every entry of ``cx`` as ``{(source, target): coeff}``, its block-local
    indices mapped to elements through the ``terms`` view."""
    terms, offset, entries = cx.terms, [0] * (cx.spec.n + 1), {}
    for (_, sizes), d in zip(cx.blocks, cx.differentials):
        for (l, tgt, src), coeff in d.items():
            source = terms[l][offset[l] + src]
            entries[(source, terms[l + 1][offset[l + 1] + tgt])] = coeff
        offset = [o + size for o, size in zip(offset, sizes)]
    return entries


def defining_complex(spec):
    """Every slice straight from the definition, by brute force over all
    ``(t, I)``: ``P -> (elements per degree, {(source, target): coeff})``."""
    n, m = spec.n, spec.m
    slices = {
        P: ([set() for _ in range(n + 1)], {}) for P in range(spec.weight + n + 1)
    }
    for t in product(*(range(mi + 1) for mi in m)):
        for l in range(n + 1):
            for wedge in combinations(range(1, n + 1), l):
                elements, entries = slices[spec.weight - sum(t) + l]
                source = HiggsBasisElement(t, wedge)
                elements[l].add(source)
                for i in range(1, n + 1):
                    if i in wedge or t[i - 1] == m[i - 1]:
                        continue
                    target = HiggsBasisElement(
                        t[: i - 1] + (t[i - 1] + 1,) + t[i:],
                        tuple(sorted(wedge + (i,))),
                    )
                    sign = (-1) ** sum(1 for j in wedge if j < i)
                    entries[(source, target)] = sign * (m[i - 1] - t[i - 1])
    return slices


class TestDefiningFormula:
    def test_block_build_matches_brute_force(self):
        for spec in [*sweep_specs(4, 3), *WIDE_SPECS]:
            for P, (elements, entries) in defining_complex(spec).items():
                cx = build_log_higgs_complex(spec, P)
                for l, term in enumerate(cx.terms):
                    assert len(set(term)) == len(term), (spec.m, P, l)
                    assert set(term) == elements[l], (spec.m, P, l)
                assert global_entries(cx) == entries, (spec.m, P)

    def test_blocks_enumerated_from_their_sum(self):
        # P = 1 of m = (1,)*16 has 16 blocks, each s one 0 among 15 ones; a
        # loop over all 3^15 heads of s took seconds to find them
        start = time.perf_counter()
        cx = build_log_higgs_complex(validate_spec(16, (1,) * 16), 1)
        assert time.perf_counter() - start < 1
        blocks = [s for s, _ in cx.blocks]
        assert blocks == sorted(blocks) and len(blocks) == cx.total_size // 2 == 16
        assert all(sorted(s) == [0] + [1] * 15 for s in blocks)


class TestIndependence:
    def test_ranks_come_from_elimination(self, monkeypatch):
        spec = validate_spec(2, (1, 1))
        assert any(build_log_higgs_complex(spec, 2).differentials)
        want = cohomology_sheaf_closed_form(spec).sorted_cells()
        assert full_homology(spec).sorted_cells() == want
        monkeypatch.setattr(higgs, "integer_matrix_rank", lambda rows, pivots=None: 0)
        assert full_homology(spec).sorted_cells() != want

    def test_grading_check_raises_on_an_entry_between_blocks(self):
        with pytest.raises(
            AssertionError, match=r"entry \(0, 1, 0\) leaves block s=\(0, 0\)"
        ):
            out_of_block_complex().verify_monomial_grading()

    def test_chain_check_raises_on_a_negated_entry(self):
        spec = validate_spec(2, (1, 1))
        cx = build_log_higgs_complex(spec, 2)
        cx.verify_chain_property()
        # block s = (0, 0) has two free factors, so d_1 o d_0 meets both paths
        b = [s for s, _ in cx.blocks].index((0, 0))
        key = next(iter(cx.differentials[b]))
        cx.differentials[b][key] *= -1
        with pytest.raises(AssertionError, match=r"in block s=\(0, 0\) for P=2:"):
            cx.verify_chain_property()

    def test_chain_check_names_every_negated_entry(self, monkeypatch):
        # m = (1,)*7: factor i is free where s_i = 0, so the slices hold
        # blocks with every free-factor count from 0 to 7
        spec = validate_spec(7, (1,) * 7)
        first = {}  # free-factor count -> the one-block complex of its first block
        for P in range(spec.weight + spec.n + 1):
            cx = build_log_higgs_complex(spec, P)
            for block, d in zip(cx.blocks, cx.differentials):
                first.setdefault(
                    block[0].count(0),
                    replace(cx, blocks=(block,), differentials=(d,)),
                )
        assert sorted(first) == list(range(8))
        for k in range(2, 8):
            cx = first[k]
            (s, sizes), d = cx.blocks[0], cx.differentials[0]
            head = re.escape(f"d o d != 0 in block s={s} for P={cx.P}: ")
            assert len(d) == k * 2 ** (k - 1)
            for key in list(d):
                l, _, src = key
                d[key] *= -1
                with pytest.raises(AssertionError) as info:
                    cx.verify_chain_property()
                named = re.fullmatch(
                    head + r"degree (\d+), source (\d+), composite (\{.*\})",
                    str(info.value),
                )
                assert named, str(info.value)
                at, source = int(named[1]), int(named[2])
                # the named source reaches the negated entry, and its composite,
                # by the definition, is the one reported and is not zero
                assert (at, source) == (l, src) or (
                    at == l - 1 and (at, src, source) in d
                )
                want = {
                    tgt: sum(
                        d.get((at + 1, tgt, mid), 0) * d.get((at, mid, source), 0)
                        for mid in range(sizes[at + 1])
                    )
                    for tgt in range(sizes[at + 2])
                }
                got = ast.literal_eval(named[3])
                assert any(got.values())
                assert {t: c for t, c in got.items() if c} == {
                    t: c for t, c in want.items() if c
                }
                d[key] *= -1
            cx.verify_chain_property()
        # through the sweep: a corrupted slice is a chain_property failure
        # whose text gives the degree and the source to rerun it by
        build = consistency.build_log_higgs_complex

        def corrupted(spec, P, koszul=None):
            cx = build(spec, P, koszul)
            if (spec.m, P) == ((1, 1), 2):
                cx.differentials[[s for s, _ in cx.blocks].index((0, 0))][0, 1, 0] *= -1
            return cx

        monkeypatch.setattr(consistency, "build_log_higgs_complex", corrupted)
        report = consistency.check_oracle_equivalence(SweepBounds(2, 1))
        failed = [r for r in report.results if not r.ok]
        assert [(r.name, r.params) for r in failed] == [
            ("chain_property", "n=2 m=(1, 1) P=2")
        ]
        assert failed[0].lhs.startswith(
            "d o d != 0 in block s=(0, 0) for P=2: degree 0, source 0, composite"
        )


class TestBlockwork:
    """The oracle ranks what it must, once, and blocks share no state."""

    def test_one_rank_per_block_degree_with_two_nonzero_sizes(self, monkeypatch):
        # per distinct block of each call: its sizes and its entries
        calls = []

        def counted(rows, pivots=None):
            calls.append(len(rows))
            return integer_matrix_rank(rows, pivots)

        want = 0
        for spec in ORACLE_LARGE:  # one rank store per full_homology call
            distinct = {
                (sizes, tuple(d.items()))
                for P in range(spec.weight + spec.n + 1)
                for cx in [build_log_higgs_complex(spec, P)]
                for (_, sizes), d in zip(cx.blocks, cx.differentials)
            }
            want += sum(
                1 for sizes, _ in distinct
                for l in range(spec.n) if sizes[l] and sizes[l + 1]
            )
        monkeypatch.setattr(higgs, "integer_matrix_rank", counted)
        for spec in ORACLE_LARGE:
            assert full_homology(spec).sorted_cells() == (
                cohomology_sheaf_closed_form(spec).sorted_cells()
            )
        # 25,398 calls with one rank per block, distinct or not
        assert len(calls) == want == 10_671
        # rows ranked after clearing: 43,680 for every block; uncleared, d_l
        # has one per source: 78,640 for every block
        assert sum(calls) == 22_530

    def test_blocks_of_one_shape_share_no_entry_values(self):
        # every block with the same (k, z) gets its keys from one list; its
        # dict must still be its own
        for spec in ORACLE_LARGE:
            cx = build_log_higgs_complex(spec, spec.weight // 2 + 1)
            shapes = {}
            for b, (s, _) in enumerate(cx.blocks):  # (k, z) -> its blocks
                k = sum(-1 < si < mi for si, mi in zip(s, spec.m))
                shapes.setdefault((k, s.count(-1)), []).append(b)
            b, *others = max(shapes.values(), key=len)
            assert others and cx.differentials[b]
            before = [dict(cx.differentials[o]) for o in others]
            key = next(iter(cx.differentials[b]))
            cx.differentials[b][key] *= -1
            assert [cx.differentials[o] for o in others] == before
            assert all(d.keys() == cx.differentials[b].keys() for d in before)

    def test_a_shared_koszul_store_builds_what_a_fresh_one_builds(self):
        # every slice of the sweep n <= 4, m_i <= 2, in sweep order, each
        # corrupted after its check: the next build from the store must not see it
        koszul = {}
        for spec in sweep_specs(4, 2):
            for P in range(spec.weight + spec.n + 1):
                shared = build_log_higgs_complex(spec, P, koszul)
                fresh = build_log_higgs_complex(spec, P)
                assert shared.blocks == fresh.blocks, (spec.m, P)
                assert shared.differentials == fresh.differentials, (spec.m, P)
                for d in shared.differentials:
                    for key in d:
                        d[key] = -d[key] or 1
                    d[spec.n, 0, 0] = 1
        assert {key for key in koszul if isinstance(key, int)} == set(range(5))
        assert {key for key in koszul if isinstance(key, tuple)} == {
            (k, z) for k in range(5) for z in range(5 - k)
        }
        # held as tuples, so no build can change what the next one reads
        for key, value in koszul.items():
            assert isinstance(value, tuple)
            assert isinstance(key, tuple) or all(isinstance(v, tuple) for v in value)

    def test_one_store_per_sweep_and_per_full_homology_call(self, monkeypatch):
        # the Koszul store as the builder sees it, the plan store as the chain
        # check sees it, the rank store as homology sees it
        build, check = build_log_higgs_complex, HiggsChainComplex.verify_chain_property
        ranked = homology
        seen = {"koszul": [], "plans": [], "ranks": []}

        def recorded(spec, P, koszul=None):
            seen["koszul"].append(koszul)
            return build(spec, P, koszul)

        def checked(cx, plans=None):
            seen["plans"].append(plans)
            return check(cx, plans)

        def counted(cx, ranks=None):
            seen["ranks"].append(ranks)
            return ranked(cx, ranks)

        monkeypatch.setattr(consistency, "build_log_higgs_complex", recorded)
        monkeypatch.setattr(higgs, "build_log_higgs_complex", recorded)
        monkeypatch.setattr(HiggsChainComplex, "verify_chain_property", checked)
        monkeypatch.setattr(consistency, "homology", counted)
        monkeypatch.setattr(higgs, "homology", counted)
        assert consistency.check_oracle_equivalence(SweepBounds(3, 1)).ok
        for stores in seen.values():
            # 5 slices at n = 1, 16 at n = 2 and 44 at n = 3, all on one store
            assert len(stores) == 65 and all(st is stores[0] for st in stores)
            assert isinstance(stores[0], dict) and stores[0]
        spec, first = validate_spec(2, (1, 1)), {n: st[0] for n, st in seen.items()}
        for _ in range(2):
            for stores in seen.values():
                stores.clear()
            full_homology(spec)
            for name, stores in seen.items():
                assert len(stores) == 5 and all(st is stores[0] for st in stores)
                assert isinstance(stores[0], dict) and stores[0]
                assert stores[0] is not first[name]
                first[name] = stores[0]


def block_of(cx, s):
    """The differential of block ``s`` of ``cx``."""
    return cx.differentials[[t for t, _ in cx.blocks].index(s)]


class TestRankStore:
    """A block is named from the rank store only if its own sizes and entries,
    as they are when ranked, equal those of a block ranked before."""

    # block s = (0, 1, -1) of m = (1, 1, 2) at P = 4 has one free factor, and
    # the sizes and entries of block s = (0, -1, 2) at P = 3
    SPEC, P, S, TWIN = validate_spec(3, (1, 1, 2)), 4, (0, 1, -1), (0, -1, 2)

    def zeroed(self, monkeypatch):
        """Make every build zero the entries of the one free factor of block
        ``S`` at ``P``; d o d stays 0, and the block gets homology."""
        build = build_log_higgs_complex

        def built(spec, P, koszul=None):
            cx = build(spec, P, koszul)
            if (spec.m, P) == (self.SPEC.m, self.P):
                d = block_of(cx, self.S)
                for key in d:
                    d[key] = 0
            return cx

        earlier, later = build(self.SPEC, self.P - 1), build(self.SPEC, self.P)
        sizes = {s: sizes for cx in (earlier, later) for s, sizes in cx.blocks}
        assert sizes[self.TWIN] == sizes[self.S] == (0, 1, 1, 0)
        assert block_of(earlier, self.TWIN) == block_of(later, self.S) == {(1, 0, 0): 1}
        for module in (higgs, consistency):
            monkeypatch.setattr(module, "build_log_higgs_complex", built)

    def test_a_zeroed_block_is_ranked_in_full_homology(self, monkeypatch):
        self.zeroed(monkeypatch)
        have = dict(full_homology(self.SPEC).sorted_cells())
        want = dict(cohomology_sheaf_closed_form(self.SPEC).sorted_cells())
        # the zeroed block's one element in each of degrees 1 and 2 survives
        extra = mono(1, -1, 4)
        assert {cell for cell in have | want if have.get(cell) != want.get(cell)} == {
            (4, 1), (4, 2)
        }
        for cell in ((4, 1), (4, 2)):
            assert sorted(have[cell]) == sorted(want.get(cell, []) + [extra])

    def test_a_zeroed_block_is_ranked_in_the_sweep(self, monkeypatch):
        self.zeroed(monkeypatch)
        report = consistency.check_oracle_equivalence(SweepBounds(3, 2))
        failed = [r for r in report.results if not r.ok]
        assert [(r.name, r.params) for r in failed] == [
            ("oracle_equivalence", "n=3 m=(1, 1, 2) P=4")
        ]
        # each side is recorded as its own cells, the oracle's with the extra
        have = full_homology(self.SPEC).cells
        want = cohomology_sheaf_closed_form(self.SPEC).cells

        def text(cells):
            return repr([
                f"({P},{l}) {mono}"
                for P, l in sorted(cell for cell in cells if cell[0] == self.P)
                for mono in sorted(cells[P, l].elements())
            ])

        assert (failed[0].lhs, failed[0].rhs) == (text(have), text(want))
        assert failed[0].lhs != failed[0].rhs


class TestClearing:
    """Clearing the pivot sources of ``d_{l-1}`` before ranking ``d_l`` keeps
    every block's homology, and is only reached past the chain check."""

    def test_blocks_match_uncleared_ranks_on_the_sweep(self):
        koszul, ranks = {}, {}  # one rank store for the sweep, as in verify
        for spec in sweep_specs(4, 3):
            for P in range(spec.weight + spec.n + 1):
                cx = build_log_higgs_complex(spec, P, koszul)
                shared = homology(cx, ranks).cells
                assert shared == homology(cx).cells == uncleared_homology(cx), (
                    spec.m, P
                )

    @pytest.mark.parametrize("spec", ORACLE_LARGE, ids=lambda spec: str(spec.m))
    def test_blocks_match_uncleared_ranks_on_the_oracle_large_systems(self, spec):
        ranks = {}  # one rank store for the slices, as in full_homology
        for P in range(spec.weight + spec.n + 1):
            cx = build_log_higgs_complex(spec, P)
            shared = homology(cx, ranks).cells
            assert shared == homology(cx).cells == uncleared_homology(cx), P

    def test_both_callers_check_the_chain_before_homology(self, monkeypatch):
        events = []  # (what, complex), in call order
        check, ranked = HiggsChainComplex.verify_chain_property, higgs.homology

        def checked(cx, *plans):
            events.append(("check", cx))
            return check(cx, *plans)

        def recorded(cx, *ranks):
            events.append(("homology", cx))
            return ranked(cx, *ranks)

        monkeypatch.setattr(HiggsChainComplex, "verify_chain_property", checked)
        monkeypatch.setattr(higgs, "homology", recorded)
        monkeypatch.setattr(consistency, "homology", recorded)
        full_homology(validate_spec(2, (1, 1)))
        assert consistency.check_oracle_equivalence(SweepBounds(2, 1)).ok
        # 5 slices of m = (1, 1), then 5 at n = 1 and 16 at n = 2 of the sweep
        assert len(events) == 2 * (5 + 21)
        for (first, cx), (then, same) in zip(events[::2], events[1::2]):
            assert (first, then) == ("check", "homology") and cx is same

    def corrupted_block_fails_the_chain_check(self, monkeypatch, corrupt, swept):
        """``corrupt`` changes the entries of block (0, 0) of m = (1, 1) at
        P = 2, which has 2 free factors; ``swept`` starts the sweep's message."""
        build, homologies = build_log_higgs_complex, []

        def corrupted(spec, P, koszul=None):
            cx = build(spec, P, koszul)
            if spec.m == (1, 1) and P == 2:
                corrupt(cx.differentials[[s for s, _ in cx.blocks].index((0, 0))])
            return cx

        def recorded(cx, *ranks):
            homologies.append((cx.spec.m, cx.P))
            return homology(cx, *ranks)

        for module in (higgs, consistency):
            monkeypatch.setattr(module, "build_log_higgs_complex", corrupted)
            monkeypatch.setattr(module, "homology", recorded)
        with pytest.raises(
            AssertionError, match=r"^d o d != 0 in block s=\(0, 0\) for P=2:"
        ):
            full_homology(validate_spec(2, (1, 1)))
        assert homologies == [((1, 1), 0), ((1, 1), 1)]
        report = consistency.check_oracle_equivalence(SweepBounds(2, 1))
        failed = [r for r in report.results if not r.ok]
        assert [r.name for r in failed] == ["chain_property"]
        assert failed[0].lhs.startswith(swept)
        assert not any(
            r.params == failed[0].params
            for r in report.results if r.name == "oracle_equivalence"
        )
        assert ((1, 1), 2) not in homologies[2:]

    def test_a_negated_entry_fails_the_chain_check_not_homology(self, monkeypatch):
        def negate(d):
            d[next(iter(d))] *= -1

        self.corrupted_block_fails_the_chain_check(
            monkeypatch, negate, "d o d != 0 in block s=(0, 0) for P=2"
        )

    def test_an_extra_entry_fails_the_chain_check_not_homology(self, monkeypatch):
        def extend(d):  # d_1 from the first element of degree 1 to a second
            d[1, 1, 0] = 1  # target: a key sequence no other block has

        # full_homology checks no index range; the sweep's grading check, run
        # before the chain check, finds the target outside the block
        self.corrupted_block_fails_the_chain_check(
            monkeypatch, extend, "differential entry (1, 1, 0) leaves block s=(0, 0)"
        )

    def test_a_negative_dimension_names_its_block_degree_and_ranks(self, monkeypatch):
        def over_reported(rows, pivots=None):
            return integer_matrix_rank(rows, pivots) + 1

        monkeypatch.setattr(higgs, "integer_matrix_rank", over_reported)
        cx = build_log_higgs_complex(validate_spec(2, (1, 1)), 2)
        with pytest.raises(
            AssertionError,
            match=r"^negative dimension in block s=\(0, 0\) for P=2: degree 0, "
            r"rank d_\{0\} = 2, rank d_\{-1\} = 0$",
        ):
            homology(cx)
        # the block before, s = (-1, 1), has no entry and is stored; the block
        # that raises stores nothing, so no later call is told its dimensions
        ranks = {}
        with pytest.raises(AssertionError, match=r"^negative dimension in block"):
            homology(cx, ranks)
        assert ranks == {(): {((0, 1, 0), ()): ((1, 1),)}}


def hand_built(n, sizes, d):
    """A one-block complex of ``n`` factors, its block and entries given by
    hand rather than by the Koszul template."""
    s = (0,) * n
    return HiggsChainComplex(validate_spec(n, (1,) * n), n, ((s, sizes),), (d,))


class TestChainCheckReadsTheEntries:
    """The chain check reads the dicts it is given, whatever their shape."""

    def test_non_koszul_paths_that_cancel(self):
        # 1 -> 3 -> 1 elements: two paths 2*3 and 3*(-2) cancel, the third
        # middle element is a dead end; no Koszul block has these sizes
        d = {(0, 0, 0): 2, (0, 1, 0): 3, (0, 2, 0): 5, (1, 0, 0): 3, (1, 0, 1): -2}
        hand_built(2, (1, 3, 1), d).verify_chain_property()
        d[1, 0, 1] = -3
        with pytest.raises(
            AssertionError, match=r"degree 0, source 0, composite \{0: -3\}$"
        ):
            hand_built(2, (1, 3, 1), d).verify_chain_property()

    def test_blocks_with_one_entry_or_none_pass(self):
        hand_built(2, (1, 1, 0), {(0, 0, 0): 7}).verify_chain_property()
        hand_built(2, (1, 0, 0), {}).verify_chain_property()
        # two entries are the fewest that compose, and are read
        with pytest.raises(AssertionError, match=r"composite \{0: 6\}$"):
            hand_built(2, (1, 1, 1), {(0, 0, 0): 2, (1, 0, 0): 3}).verify_chain_property()

    def test_a_corrupted_top_degree_entry_is_read(self):
        # degrees 1 -> 2 -> 3 of n = 3: d_1 = (2, 3), d_2 = (3, -2); only an
        # entry of the top differential d_{n-1} = d_2 is changed
        d = {(1, 0, 0): 2, (1, 1, 0): 3, (2, 0, 0): 3, (2, 0, 1): -2}
        hand_built(3, (0, 1, 2, 1), d).verify_chain_property()
        d[2, 0, 1] = 2
        with pytest.raises(
            AssertionError,
            match=r"block s=\(0, 0, 0\) for P=3: degree 1, source 0, "
            r"composite \{0: 12\}$",
        ):
            hand_built(3, (0, 1, 2, 1), d).verify_chain_property()


def chain_verdict(cx, plans=None):
    """The message ``verify_chain_property`` raises on ``cx``, or ``None``."""
    try:
        cx.verify_chain_property(plans)
    except AssertionError as exc:
        return str(exc)
    return None


def first_blocks(spec):
    """Free-factor count -> the one-block complex of its first block in
    ``spec``, over every slice."""
    first = {}
    for P in range(spec.weight + spec.n + 1):
        cx = build_log_higgs_complex(spec, P)
        for block, d in zip(cx.blocks, cx.differentials):
            k = sum(-1 < si < mi for si, mi in zip(block[0], spec.m))
            first.setdefault(k, replace(cx, blocks=(block,), differentials=(d,)))
    return first


class TestChainPlans:
    """The chain check derives each key sequence's composition paths once,
    judges each block by its own coefficients, and gives the verdict and the
    message of the per-source reference (``higgs_reference.chain_failure``)."""

    def test_the_reference_verdict_on_the_sweep(self):
        # every slice as built, then with the first entry of its last block of
        # two entries or more negated, all on one plan store as in a sweep
        koszul, plans, failures = {}, {}, 0
        for spec in sweep_specs(4, 3):
            for P in range(spec.weight + spec.n + 1):
                cx = build_log_higgs_complex(spec, P, koszul)
                assert chain_verdict(cx, plans) is None is chain_failure(cx)
                if composing := [d for d in cx.differentials if len(d) > 1]:
                    d = composing[-1]
                    d[next(iter(d))] *= -1
                    want = chain_failure(cx)
                    assert want is not None and chain_verdict(cx, plans) == want
                    failures += 1
        assert failures == 2_052

    def test_the_reference_message_on_every_single_entry_change(self):
        # each negation, removal and addition of one entry in the first block
        # of every free-factor count 0..7; the negations share the block's plan
        first = first_blocks(validate_spec(7, (1,) * 7))
        assert sorted(first) == list(range(8))
        failures = 0
        for cx in first.values():
            (_, sizes), d = cx.blocks[0], cx.differentials[0]
            plans = {}
            changed = [({**d, key: -c}, plans) for key, c in d.items()]
            changed += [({k: c for k, c in d.items() if k != key}, None) for key in d]
            changed += [
                ({**d, key: 1}, None)
                for l in range(7)
                for key in product([l], range(sizes[l + 1]), range(sizes[l]))
                if key not in d
            ]
            for entries, store in changed:
                one = replace(cx, differentials=(entries,))
                want = chain_failure(one)
                assert chain_verdict(one, store) == want, entries
                failures += want is not None
            assert list(plans) == ([tuple(d)] if len(d) > 1 else [])
        # every changed entry of a block of two free factors or more lies on a
        # path; only the negation and the removal of the one-factor block pass
        assert failures == 4_848

    def test_the_reference_message_on_hand_built_blocks(self):
        # paths that cancel past a dead end, a pair with one path, and a
        # corrupted top degree, each as built and with one entry negated
        blocks = [
            (2, (1, 3, 1), {(0, 0, 0): 2, (0, 1, 0): 3, (0, 2, 0): 5,
                            (1, 0, 0): 3, (1, 0, 1): -2}),
            (2, (1, 1, 1), {(0, 0, 0): 2, (1, 0, 0): 3}),
            (3, (0, 1, 2, 1), {(1, 0, 0): 2, (1, 1, 0): 3, (2, 0, 0): 3, (2, 0, 1): 2}),
        ]
        plans, verdicts = {}, []
        for n, sizes, d in blocks:
            for key in [None, *d]:
                entries = {k: -c if k == key else c for k, c in d.items()}
                cx = hand_built(n, sizes, entries)
                verdicts.append(chain_failure(cx))
                assert chain_verdict(cx, plans) == verdicts[-1]
        # the dead end (0, 2, 0) lies on no path; in the top degree, negating
        # any entry of d_1 = (2, 3) or d_2 = (3, 2) makes 2*3 + 3*2 cancel
        assert [v is not None for v in verdicts] == [
            0, 1, 1, 0, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0
        ]
        assert verdicts[6] == (
            "d o d != 0 in block s=(0, 0) for P=2: degree 0, source 0, composite {0: 6}"
        )

    def test_blocks_of_one_key_sequence_share_a_plan_and_keep_their_coefficients(self):
        spec = validate_spec(5, (3,) * 5)
        cx, plans = build_log_higgs_complex(spec, 10), {}
        cx.verify_chain_property(plans)
        keys = [tuple(d) for d in cx.differentials]
        composing = {k for k in keys if len(k) > 1}  # blocks of one entry compose none
        assert len(plans) == len(composing) < sum(len(k) > 1 for k in keys)
        shared = max(composing, key=keys.count)
        early, later = [b for b, k in enumerate(keys) if k == shared][:2]
        plan = plans[shared]
        for b in (later, early):  # negate one entry of one block only
            d, key = cx.differentials[b], shared[0]
            d[key] *= -1
            s = re.escape(str(cx.blocks[b][0]))
            with pytest.raises(AssertionError, match=rf"^d o d != 0 in block s={s} "):
                cx.verify_chain_property(plans)
            assert chain_verdict(cx, plans) == chain_failure(cx)
            d[key] *= -1
        assert len(plans) == len(composing) and plans[shared] is plan

    def test_a_block_whose_keys_differ_gets_its_own_plan(self):
        cx, plans = build_log_higgs_complex(validate_spec(5, (3,) * 5), 10), {}
        cx.verify_chain_property(plans)
        before = dict(plans)
        b = max(range(len(cx.blocks)), key=lambda b: len(cx.differentials[b]))
        block, d = cx.blocks[b], cx.differentials[b]
        (l, tgt, src), *_ = d
        moved = (l, block[1][l + 1], src)  # a target past the block's last
        variants = [
            {moved if k == (l, tgt, src) else k: c for k, c in d.items()},  # one key
            dict(reversed(d.items())),  # the same keys in another order
        ]
        verdicts = []
        for entries in variants:
            one = replace(cx, blocks=(block,), differentials=(entries,))
            verdicts.append(chain_failure(one))
            assert chain_verdict(one, plans) == verdicts[-1]
            assert tuple(entries) in plans and len(plans) == len(before) + 1
            before[tuple(entries)] = plans[tuple(entries)]
        assert verdicts[0] is not None and verdicts[1] is None
        assert plans == before

    def test_no_plan_holds_a_coefficient(self):
        # a plan made on one block's coefficients judges another of the same
        # shape on its own, and plans made on other coefficients are equal
        spec = validate_spec(5, (3,) * 5)
        cx, plans = build_log_higgs_complex(spec, 10), {}
        cx.verify_chain_property(plans)
        keys = [tuple(d) for d in cx.differentials]
        shared = max({k for k in keys if len(k) > 1}, key=keys.count)
        early, later, *_ = [b for b, k in enumerate(keys) if k == shared]
        for key in cx.differentials[early]:
            cx.differentials[early][key] *= 7 if key[0] % 2 else -5
        one = replace(
            cx, blocks=(cx.blocks[later],), differentials=(cx.differentials[later],)
        )
        one.verify_chain_property(plans)
        assert chain_failure(one) is None
        fresh = {}
        cx.verify_chain_property(fresh)  # d o d = 0 still: each d_l scaled
        assert fresh == plans
        for key in cx.differentials[early]:
            cx.differentials[early][key] = 1
        assert chain_verdict(cx, plans) == chain_failure(cx) is not None
        one.verify_chain_property(plans)


class TestBlockPass:
    def test_cell_totals_match_unblocked_ranks(self):
        # whole, unblocked d_l from the definition, ranked without the builder
        for spec in sweep_specs(3, 2):
            for P, (elements, entries) in defining_complex(spec).items():
                basis = [{el: i for i, el in enumerate(sorted(t))} for t in elements]
                rows = [
                    [[0] * len(basis[l]) for _ in basis[l + 1]] for l in range(spec.n)
                ]
                for (source, target), coeff in entries.items():
                    l = len(source.wedge)
                    rows[l][basis[l + 1][target]][basis[l][source]] = coeff
                ranks = [0, *map(integer_matrix_rank, rows), 0]
                want = {
                    (P, l): len(term) - ranks[l + 1] - ranks[l]
                    for l, term in enumerate(basis)
                }
                got = homology(build_log_higgs_complex(spec, P))
                have = {key: sum(got.cells.get(key, {}).values()) for key in want}
                assert have == want, (spec.m, P)

