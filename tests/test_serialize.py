"""Documents round-trip through the package's own deserializer, and the
package's encoder writes exactly what the stdlib's ``json.dumps`` writes."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from hilbert_hodge import (
    VarietyInvariants,
    cohomology_sheaf_closed_form,
    eisenstein_data,
    ih_table,
    mhs_table,
    validate_spec,
)
from hilbert_hodge.consistency import SweepBounds, run_verification
from hilbert_hodge.serialize import (
    dump_json,
    report_from_document,
    sheaf_matrix_document,
    sheaf_matrix_from_document,
    table_document,
    tables_from_document,
    verify_document,
)


def build_table_doc(n=2, m=(1, 1), h=1, g=1):
    spec = validate_spec(n, m, table=True)
    inv = VarietyInvariants(n, h, g)
    mhs = mhs_table(spec, inv)
    ih = ih_table(spec, inv)
    eis = [eisenstein_data(spec, inv, k) for k in range(n, 2 * n)]
    return spec, inv, mhs, ih, eis, table_document(spec, inv, mhs, ih, eis)


def test_table_document_round_trip():
    spec, inv, mhs, ih, eis, doc = build_table_doc()
    # through actual JSON text, not just the dict
    reloaded = json.loads(dump_json(doc))
    spec2, inv2, mhs2, ih2, eis2 = tables_from_document(reloaded)
    assert spec2 == spec
    assert inv2 == inv
    assert mhs2 == mhs
    assert ih2 == ih
    assert eis2 == eis


def test_table_document_round_trip_non_parallel():
    _, _, mhs, ih, eis, doc = build_table_doc(m=(2, 1), g=0, h=3)
    spec2, inv2, mhs2, ih2, eis2 = tables_from_document(json.loads(dump_json(doc)))
    assert mhs2 == mhs and ih2 == ih and eis2 == eis


def test_sheaf_matrix_round_trip():
    spec = validate_spec(3, (1, 0, 2))
    matrix = cohomology_sheaf_closed_form(spec)
    doc = json.loads(dump_json(sheaf_matrix_document(spec, matrix)))
    assert sheaf_matrix_from_document(doc) == matrix


def test_report_round_trip():
    report = run_verification(SweepBounds(max_n=2, max_m=1))
    doc = json.loads(dump_json(verify_document(report, {"max_n": 2, "max_m": 1})))
    reloaded = report_from_document(doc)
    assert reloaded.sorted_results() == report.sorted_results()
    assert doc["summary"]["ok"] is True


def test_dump_json_is_deterministic():
    *_, doc = build_table_doc()
    assert dump_json(doc) == dump_json(json.loads(dump_json(doc)))
    assert dump_json(doc).endswith("\n")


# quotes, backslashes, control characters, non-ASCII, astral and a lone surrogate
_TRICKY = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f",
                           "\u00e9", "\u2028", "\U0001f600", "\ud800"])
_TEXT = st.text(st.characters() | _TRICKY, max_size=8)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**70), -(2**64)) | st.integers(2**64, 2**70)
    | _TEXT
)
_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda inner: (
        st.lists(inner, max_size=5) | st.dictionaries(_TEXT, inner, max_size=5)
    ),
    max_leaves=40,
)


@settings(max_examples=150, deadline=None)
@given(_DOCUMENTS)
def test_dump_json_is_the_stdlib_format(doc):
    assert dump_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_dump_json_matches_the_stdlib_on_real_documents():
    *_, doc = build_table_doc(n=3, m=(2, 0, 1), h=3, g=2)
    report = run_verification(SweepBounds(max_n=2, max_m=1))
    for d in (doc, verify_document(report, {"max_n": 2, "max_m": 1})):
        assert dump_json(d) == json.dumps(d, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "doc",
    [{"x": 1.5}, {"x": (1, 2)}, {1: "a"}, [{"a": 1, 2: "b"}]],
    ids=["float", "tuple", "int-key", "mixed-keys"],
)
def test_dump_json_refuses_what_documents_never_hold(doc):
    with pytest.raises(TypeError):
        dump_json(doc)


def test_dump_json_refuses_str_and_int_subclasses():
    class Name(str):
        pass

    class Count(int):
        pass

    for value in (Name("a"), Count(1)):
        with pytest.raises(TypeError):
            dump_json({"x": value})
