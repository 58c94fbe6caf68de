"""Acceptance suite: every criterion prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  All tolerances are exact (integer equality); there are no
floats anywhere in the package.
"""

import json
import os
import random
import subprocess
import sys
from contextlib import contextmanager
from itertools import product
from math import comb
from pathlib import Path

import pytest

from hilbert_hodge import (
    VarietyInvariants,
    build_log_higgs_complex,
    check_euler_ih,
    check_hrr,
    cohomology_sheaf_closed_form,
    count_N,
    eisenstein_data,
    homology,
    ih_table,
    mhs_table,
    validate_spec,
    weight_counts,
)
from kunneth_reference import kunneth_product, single_factor_matrix, unit_matrix

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {title}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {title}: PASS")


def oracle_sweep():
    for n in (1, 2, 3):
        for m in product(range(3), repeat=n):
            yield validate_spec(n, m)


@pytest.fixture(scope="module")
def oracle_run():
    """One shared run over the criterion-1 sweep, reused by criterion 2."""
    matches = []
    chain_failures = []
    for spec in oracle_sweep():
        closed = cohomology_sheaf_closed_form(spec)
        merged = {}
        for P in range(spec.weight + spec.n + 1):
            cx = build_log_higgs_complex(spec, P)
            try:
                cx.verify_chain_property()
                cx.verify_monomial_grading()
            except AssertionError as exc:
                chain_failures.append((spec, P, str(exc)))
            for key, monos in homology(cx).sorted_cells():
                merged[key] = monos
        matches.append((spec, merged, dict(closed.sorted_cells())))
    return matches, chain_failures


def test_criterion_1_oracle_equivalence(oracle_run):
    with criterion(1, "oracle equals closed form (n<=3, m_i<=2, every P)"):
        matches, _ = oracle_run
        assert len(matches) == 3 + 9 + 27
        for spec, merged, want in matches:
            assert merged == want, spec


def test_criterion_2_chain_property_and_grading(oracle_run):
    with criterion(2, "d o d = 0 and monomial grading on the same sweep"):
        _, chain_failures = oracle_run
        assert chain_failures == []


def test_criterion_3_kunneth_factorization():
    # closed_form(m) equals the n-fold product of single-factor matrices
    # for n <= 6, m_i <= 4; the product is accumulated along the prefix
    # tree, so every intermediate vector is checked too
    with criterion(3, "Kunneth factorization n<=6 m_i<=4"):
        singles = {mi: single_factor_matrix(mi) for mi in range(5)}

        def dfs(depth_left, acc, prefix):
            for mi in range(5):
                m = prefix + (mi,)
                step = kunneth_product(acc, singles[mi])
                direct = cohomology_sheaf_closed_form(validate_spec(len(m), m))
                assert step == direct, m
                if depth_left > 1:
                    dfs(depth_left - 1, step, m)

        dfs(6, unit_matrix(), ())


def test_criterion_4_subset_count_identities():
    with criterion(4, "subset counts: sum 2^n, complement symmetry"):
        rng = random.Random(0xC0FFEE)
        for _ in range(200):
            n = rng.randint(1, 12)
            m = tuple(rng.randint(0, 6) for _ in range(n))
            counts = weight_counts(m)
            assert sum(counts) == 2**n
            top = sum(m) + n
            assert all(counts[P] == counts[top - P] for P in range(top + 1))
            P = rng.randint(0, top)
            assert count_N(m, P) == counts[P]


def test_criterion_5_dimension_formulas():
    # hand-substituted values; the (1,0) family is pinned at genus 0,
    # where the stated numbers (total 8 spread as 2 per position) hold,
    # and additionally at genus 1 with the doubled values
    with criterion(5, "dimension formulas reproduce hand values"):
        table = mhs_table(validate_spec(2, (1, 1)), VarietyInvariants(2, 1, 1))
        row = table.rows[2]
        assert row.dim == 33
        assert row.hodge == {(0, 4): 8, (2, 2): 16, (4, 0): 8, (4, 4): 1}
        assert table.rows[3].dim == 1
        assert table.rows[3].hodge == {(4, 4): 1}

        table = mhs_table(validate_spec(2, (1, 0)), VarietyInvariants(2, 1, 0))
        row = table.rows[2]
        assert row.dim == 8
        assert row.hodge == {(0, 3): 2, (1, 2): 2, (2, 1): 2, (3, 0): 2}
        assert table.rows[3].dim == 0

        table = mhs_table(validate_spec(2, (1, 0)), VarietyInvariants(2, 1, 1))
        assert table.rows[2].dim == 16
        assert table.rows[2].hodge == {(0, 3): 4, (1, 2): 4, (2, 1): 4, (3, 0): 4}

        table = mhs_table(
            validate_spec(4, (1, 1, 1, 1)), VarietyInvariants(4, 2, 0)
        )
        assert table.rows[5].dim == 6
        assert table.rows[5].hodge == {(8, 8): 6}


def table_sweep(ns=(2, 3), max_m=2, genera=(0, 1, 2, 3), cusps=(1,)):
    for n in ns:
        for m in product(range(max_m + 1), repeat=n):
            if all(mi == 0 for mi in m):
                continue
            for g in genera:
                if g + (-1) ** n < 0:
                    continue
                for h in cusps:
                    yield validate_spec(n, m), VarietyInvariants(n, h, g)


def test_criterion_6_euler_ih_crosscheck():
    with criterion(6, "Euler characteristic of IH vs constant-coefficient table"):
        ran = 0
        for spec, inv in table_sweep():
            report = check_euler_ih(ih_table(spec, inv))
            assert report.ok, (spec, inv)
            ran += 1
        assert ran > 50


def test_criterion_7_hrr_identity():
    with criterion(7, "Riemann-Roch route equals direct formula"):
        for spec, inv in table_sweep():
            assert check_hrr(spec, inv).ok
            assert (-1) ** spec.n * inv.chi_O * spec.rank == inv.l2_dim(spec)


def test_criterion_8_mhs_shape():
    with criterion(8, "Hodge symmetry, weight structure, splitting"):
        for spec, inv in table_sweep(cusps=(1, 2, 5)):
            table = mhs_table(spec, inv)
            n, w = spec.n, spec.weight + spec.n
            for row in table.rows.values():
                for (p, q), d in row.hodge.items():
                    assert row.hodge.get((q, p)) == d
                assert sum(d for _, d in row.weights) == row.dim
                assert sum(row.hodge.values()) == row.dim
            # splitting of the middle degree
            middle = table.rows[n]
            assert middle.dim == ih_table(spec, inv).dims[n] + (
                inv.cusps if spec.is_parallel else 0
            )
            assert middle.splitting[1] == eisenstein_data(spec, inv, n).dim
            # only the two admissible weight levels may appear at k = n
            assert all(wt in (w, 2 * w) for wt, _ in middle.weights)
            for k in range(n + 1, 2 * n):
                row = table.rows[k]
                assert all(wt == 2 * w for wt, _ in row.weights)
                assert set(row.hodge) <= {(w, w)}
                expected = comb(n - 1, k - n) * inv.cusps if spec.is_parallel else 0
                assert row.dim == expected
            assert table.rows[2 * n].dim == 0
            for k in range(n):
                assert table.rows[k].dim == 0


def run_cli(args, hashseed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    proc = subprocess.run(
        [sys.executable, "-m", "hilbert_hodge.cli", *args],
        capture_output=True,
        env=env,
    )
    return proc


def test_criterion_9_cli_golden_files():
    with criterion(9, "CLI golden files byte-identical, verify exits 0"):
        cases = [
            (
                ["table", "--n", "2", "--m", "1,1", "--cusps", "1",
                 "--genus", "1", "--format", "json"],
                GOLDEN / "table_n2_m11_h1_g1.json",
            ),
            (
                ["sheaf-matrix", "--n", "2", "--m", "1,0", "--format", "json"],
                GOLDEN / "sheaf_matrix_n2_m10.json",
            ),
        ]
        for args, golden in cases:
            first = run_cli(args, "0")
            second = run_cli(args, "42")
            assert first.returncode == second.returncode == 0
            assert first.stdout == second.stdout
            assert first.stdout == golden.read_bytes()

        # golden content is also checked semantically, not only byte-wise
        doc = json.loads((GOLDEN / "table_n2_m11_h1_g1.json").read_text())
        rows = {row["k"]: row for row in doc["tables"]["H"]}
        assert rows[2]["dim"] == 33
        hodge = {(h["p"], h["q"]): h["dim"] for h in rows[2]["hodge"]}
        assert hodge == {(0, 4): 8, (2, 2): 16, (4, 0): 8, (4, 4): 1}
        doc = json.loads((GOLDEN / "sheaf_matrix_n2_m10.json").read_text())
        assert [(r["p"], r["l"]) for r in doc["tables"]["C"]] == [
            (0, 0), (1, 1), (2, 1), (3, 2),
        ]

        verify_a = run_cli(
            ["verify", "--max-n", "3", "--max-m", "2", "--format", "json"], "0"
        )
        verify_b = run_cli(
            ["verify", "--max-n", "3", "--max-m", "2", "--format", "json"], "7"
        )
        assert verify_a.returncode == 0
        assert verify_a.stdout == verify_b.stdout
        summary = json.loads(verify_a.stdout)["summary"]
        assert summary["ok"] is True and summary["failed"] == 0
