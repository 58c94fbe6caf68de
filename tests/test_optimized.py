"""``python -O`` changes nothing in ``src``.  It changes a compiled program
only by dropping ``assert`` statements, making ``__debug__`` false and
setting ``sys.flags.optimize``; the first test parses every module of
``src/hilbert_hodge`` and finds none of the three, so every check there is
an explicit raise and every output (the pins of ``test_pins`` included) is
the same with and without ``-O``.  The other cases run the library's checks
in a fresh interpreter, optimized or, beside it, plain."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# H^0(Xbar, L1^3 L2^3) is the whole of Gr_F^4 H^2 for n = 2, m = (1, 1); one
# more than its true dimension must not go unnoticed
BREAK_ONE_DICTIONARY_ENTRY = (
    "from hilbert_hodge import tables\n"
    "original = tables.sheaf_cohomology_dim\n"
    "def off_by_one(label, spec, inv):\n"
    "    d = original(label, spec, inv)\n"
    "    hit = label[0] == 0 and label[1].exponents == (3, 3)\n"
    "    return d + 1 if hit else d\n"
    "tables.sheaf_cohomology_dim = off_by_one\n"
)


def test_src_has_nothing_that_python_O_changes():
    found = []
    paths = sorted((SRC / "hilbert_hodge").glob("*.py"))
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Assert)
                or isinstance(node, ast.Name) and node.id == "__debug__"
                or isinstance(node, ast.Attribute) and node.attr == "optimize"
            ):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert paths and found == []


def run_python(code: str, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *flags, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
    )


def run_optimized(code: str) -> subprocess.CompletedProcess:
    return run_python(code, "-O")


def test_full_homology_checks_the_chain_property():
    done = run_optimized(
        "from hilbert_hodge import higgs, validate_spec\n"
        "def broken(self, plans=None):\n"
        "    raise AssertionError('forced chain failure')\n"
        "higgs.HiggsChainComplex.verify_chain_property = broken\n"
        "higgs.full_homology(validate_spec(2, (1, 1)))\n"
    )
    assert done.returncode != 0
    assert "forced chain failure" in done.stderr


def test_chain_check_raises_on_a_negated_entry():
    # block s = (0, 0) of n = 2, m = (1, 1) at P = 2 has two free factors
    done = run_optimized(
        "from hilbert_hodge import higgs, validate_spec\n"
        "cx = higgs.build_log_higgs_complex(validate_spec(2, (1, 1)), 2)\n"
        "cx.verify_chain_property()\n"
        "d = cx.differentials[[s for s, _ in cx.blocks].index((0, 0))]\n"
        "key = next(iter(d))\n"
        "d[key] *= -1\n"
        "cx.verify_chain_property()\n"
    )
    assert done.returncode != 0
    assert "AssertionError: d o d != 0 in block s=(0, 0) for P=2:" in done.stderr


def test_mhs_table_checks_the_dimension_dictionary():
    done = run_optimized(
        BREAK_ONE_DICTIONARY_ENTRY
        + "from hilbert_hodge import VarietyInvariants, validate_spec\n"
        "tables.mhs_table(validate_spec(2, (1, 1)), VarietyInvariants(2, 1, 1))\n"
    )
    assert done.returncode != 0
    assert "Gr_F^4 of H^2 resolves to 10 but the Hodge numbers give 9" in done.stderr


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimized"])
def test_verify_records_a_broken_dimension_dictionary(flags):
    done = run_python(
        BREAK_ONE_DICTIONARY_ENTRY
        + "import sys\n"
        "from hilbert_hodge import cli\n"
        "sys.exit(cli.main(['verify', '--max-n', '2', '--max-m', '1']))\n",
        *flags,
    )
    assert done.returncode == 2, done.stderr
    assert done.stderr == ""
    failures = [line for line in done.stdout.splitlines() if line.startswith("FAIL ")]
    # every genus and cusp count of n = 2, m = (1, 1), and nothing else
    assert len(failures) == 12
    assert all(
        line.startswith("FAIL table_assembly [n=2 m=(1, 1) ") for line in failures
    )
    assert (
        "FAIL table_assembly [n=2 m=(1, 1) g=1 h=1]: lhs=Gr_F^4 of H^2 resolves "
        "to 10 but the Hodge numbers give 9 rhs=" in failures
    )


# a miss inside a piece the dictionary covers is a failure, not a skip
MISS_ONE_DICTIONARY_ENTRY = (
    "from hilbert_hodge import tables\n"
    "from hilbert_hodge.errors import DictionaryMiss\n"
    "from hilbert_hodge.model import label_text\n"
    "original = tables.sheaf_cohomology_dim\n"
    "def missing(label, spec, inv):\n"
    "    if label[0] == 0 and label[1].exponents == (3, 3):\n"
    "        raise DictionaryMiss(f'forced miss for {label_text(*label)}')\n"
    "    return original(label, spec, inv)\n"
    "tables.sheaf_cohomology_dim = missing\n"
)


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimized"])
def test_verify_records_a_miss_in_a_covered_piece(flags):
    done = run_python(
        MISS_ONE_DICTIONARY_ENTRY
        + "import sys\n"
        "from hilbert_hodge import cli\n"
        "sys.exit(cli.main(['verify', '--max-n', '2', '--max-m', '1']))\n",
        *flags,
    )
    assert done.returncode == 2, done.stderr
    assert done.stderr == ""
    failures = [line for line in done.stdout.splitlines() if line.startswith("FAIL ")]
    assert len(failures) == 12
    assert all(
        line.startswith("FAIL table_assembly [n=2 m=(1, 1) ") for line in failures
    )
    assert (
        "FAIL table_assembly [n=2 m=(1, 1) g=1 h=1]: lhs=Gr_F^4 of H^2 is outside "
        "the dimension dictionary: forced miss for H^0(Xbar, L1^3 L2^3) rhs="
        in failures
    )


# one subset too many at P = 0: the middle Hodge numbers of every n = 2
# table then sum to (2^n + 1) * D, not dim IH^n = 2^n * D
BREAK_THE_IH_SUM = (
    "from hilbert_hodge import tables\n"
    "original = tables.weight_counts\n"
    "def one_too_many(m):\n"
    "    counts = original(m)\n"
    "    return (counts[0] + 1,) + tuple(counts[1:])\n"
    "tables.weight_counts = one_too_many\n"
)


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimized"])
def test_verify_records_a_broken_ih_sum(flags):
    done = run_python(
        BREAK_THE_IH_SUM
        + "import sys\n"
        "from hilbert_hodge import cli\n"
        "sys.exit(cli.main(['verify', '--max-n', '2', '--max-m', '1', "
        "'--format', 'json']))\n",
        *flags,
    )
    assert done.returncode == 2, done.stderr
    assert done.stderr == ""
    checks = json.loads(done.stdout)["checks"]
    failures = [c for c in checks if c["status"] == "fail"]
    # m in {(0, 1), (1, 0), (1, 1)}, four genera, three cusp counts
    assert len(failures) == 36
    assert {(c["name"], c["lhs"]) for c in failures} == {
        ("table_assembly", "middle Hodge numbers do not sum to dim IH^n")
    }
    # a pair whose table fails records hrr and that failure, nothing else
    assert {c["name"] for c in checks if "g=" in c["params"]} == {
        "hrr", "table_assembly"
    }
    subset_counts = [c for c in checks if c["name"].startswith("subset_count")]
    assert len(subset_counts) == 9
    assert all(c["status"] == "pass" for c in subset_counts)
