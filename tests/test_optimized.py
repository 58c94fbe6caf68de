"""Library checks that must hold under ``python -O``, which strips every
bare ``assert``: each case runs in a fresh optimized interpreter."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_optimized(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
    )


def test_full_homology_checks_the_chain_property():
    done = run_optimized(
        "from hilbert_hodge import higgs, validate_spec\n"
        "def broken(self):\n"
        "    raise AssertionError('forced chain failure')\n"
        "higgs.HiggsChainComplex.verify_chain_property = broken\n"
        "higgs.full_homology(validate_spec(2, (1, 1)))\n"
    )
    assert done.returncode != 0
    assert "forced chain failure" in done.stderr


def test_mhs_table_checks_the_dimension_dictionary():
    # H^0(Xbar, L1^3 L2^3) is the whole of Gr_F^4 H^2; one more than its
    # true dimension must not go unnoticed
    done = run_optimized(
        "from hilbert_hodge import VarietyInvariants, tables, validate_spec\n"
        "original = tables.sheaf_cohomology_dim\n"
        "def off_by_one(label, spec, inv):\n"
        "    d = original(label, spec, inv)\n"
        "    hit = label.degree == 0 and label.monomial.exponents == (3, 3)\n"
        "    return d + 1 if hit else d\n"
        "tables.sheaf_cohomology_dim = off_by_one\n"
        "tables.mhs_table(validate_spec(2, (1, 1)), VarietyInvariants(2, 1, 1))\n"
    )
    assert done.returncode != 0
    assert "Gr_F^4 of H^2 resolves to 10 but the Hodge numbers give 9" in done.stderr
