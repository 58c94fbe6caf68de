"""Table documents round-trip through the package's own deserializer, and the
package's encoder writes exactly what the stdlib's ``json.dumps`` writes."""

import json
import re
import reprlib
import tracemalloc
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hilbert_hodge import (
    BadDegree,
    InconsistentInvariants,
    VarietyInvariants,
    cli,
    eisenstein_data,
    ih_table,
    mhs_table,
    serialize,
    validate_spec,
)
from hilbert_hodge.serialize import (
    dump_json,
    table_document,
    tables_from_document,
)

GOLDEN = Path(__file__).parent / "golden"


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


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("table_*.json")))
def test_golden_tables_read_back_as_built(name):
    doc = json.loads((GOLDEN / name).read_text())
    spec, inv, mhs, ih, eis = tables_from_document(doc)
    assert mhs == mhs_table(spec, inv)
    assert table_document(spec, inv, mhs, ih, eis) == doc


@pytest.mark.parametrize(
    "key, value",
    [
        ("restricted_to_s", True),
        ("minus_s", True),
        ("degree", -1),
        ("degree", 1.5),
        ("degree", True),
        ("degree", "2"),
        ("exponents", [3.0, 3]),
    ],
)
def test_reader_refuses_labels_no_table_makes(capsys, key, value):
    code = cli.main(["table", "--n", "2", "--m", "1,1", "--cusps", "1",
                     "--genus", "1", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    tables_from_document(doc)  # as written, the document is read back
    record = doc["tables"]["H"][2]["grF"][0]["labels"][0]
    record[key] = value
    with pytest.raises(ValueError, match=re.escape(reprlib.repr(record))):
        tables_from_document(doc)


MISSING = object()  # the key is deleted rather than set


@pytest.mark.parametrize(
    "path, value, error, message",
    [
        (("spec", "m"), [1.0, 1], BadDegree, "n and m must be ints"),
        (("invariants", "cusps"), True, InconsistentInvariants, "must be ints"),
        (("tables", "H", 2, "k"), 2.7, ValueError, None),
        (("tables", "IH", "rows", 2, "dim"), "4", ValueError, None),
        (("tables", "IH", "hodge", 0, "p"), 1.0, ValueError, None),
        (("tables", "H", 2, "weights", 0, "weight"), True, ValueError, None),
        (("tables", "H", 2, "splitting", "ih"), 1.5, ValueError, None),
        (("tables", "H", 2, "grF", 0, "p"), 1.0, ValueError, None),
        (("tables", "Eis", 0, "k"), 2.0, ValueError, None),
        (("tables", "Eis", 0, "basis", 0, "alpha"), [3.0, 3], ValueError, None),
        (("tables", "mhs_field"), "C", ValueError, "mhs_field is 'C', not 'Q'"),
        # an int list where an int belongs, and an int where a list belongs
        (("tables", "H", 2, "splitting", "ih"), [32], ValueError, None),
        (("tables", "Eis", 0, "basis", 0, "alpha"), 3, ValueError, None),
        # rows that do not hold each k in 0..2n once
        (("tables", "IH", "rows", 2, "k"), -1, ValueError,
         "k IH^2 is -1, not 2, in {'dim': 32, 'k': -1}"),
        (("tables", "H", 0, "k"), 1, ValueError, "k H^0 is 1, not 0"),
        # a repeated key, which a dict would keep only once
        (("tables", "H", 2, "grF", 1, "p"), 0, ValueError, None),
        (("tables", "H", 2, "hodge", 3, "q"), 0, ValueError, None),
        (("tables", "IH", "hodge", 2), {"dim": 8, "p": 0, "q": 4}, ValueError,
         "p IH is 0, not 4, in {'dim': 8, 'p': 0, 'q': 4}"),
        (("tables", "H", 2, "weights", 1, "weight"), 4, ValueError, None),
        (("tables", "Eis", 1, "k"), 2, ValueError, "k Eis^3 is 2, not 3"),
        # an Eisenstein dim other than len(basis) * cusps, and an unknown note
        (("tables", "Eis", 0, "dim"), 99, ValueError, None),
        (("tables", "Eis", 0, "dim"), "x", ValueError, None),
        (("tables", "H", 2, "note"), 5, ValueError, None),
        # numbers that disagree with the splitting H^2 = IH^2 + Eis^2 = 32 + 1
        (("tables", "H", 2, "dim"), 99, ValueError, "dim H^2 is 99, not 33"),
        (("tables", "H", 2, "splitting", "ih"), 7, ValueError, "ih H^2 is 7, not 32"),
        (("tables", "IH", "rows", 2, "dim"), 5, ValueError, "dim IH^2 is 5, not 32"),
        # a key, a section or a Hodge number more or less than the table has
        (("tables", "H", 2, "grF", 0, "labels", 0, "extra"), 0, ValueError, None),
        (("tables", "C"), [], ValueError, None),
        (("tables", "H", 2, "hodge"), [{"dim": 8, "p": 0, "q": 4},
         {"dim": 16, "p": 2, "q": 2}, {"dim": 8, "p": 4, "q": 0}], ValueError, None),
        # a missing key, or a number where a list belongs, read before the build
        (("tables", "H", 2, "grF"), MISSING, ValueError,
         "not a table document: KeyError('grF')"),
        (("invariants",), MISSING, ValueError,
         "not a table document: KeyError('invariants')"),
        (("tables", "H"), 5, ValueError, "not a table document: TypeError("),
        (("tables", "H", 2, "grF", 0, "labels"), 7, ValueError,
         "not a table document: TypeError("),
    ],
)
def test_reader_refuses_values_no_table_makes(capsys, path, value, error, message):
    code = cli.main(["table", "--n", "2", "--m", "1,1", "--cusps", "1",
                     "--genus", "1", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    tables_from_document(doc)  # as written, the document is read back
    *parents, key = path
    record = reduce(getitem, parents, doc)
    if value is MISSING:
        del record[key]
    else:
        record[key] = value
    # a refused record is named, abbreviated as its values are
    with pytest.raises(error, match=re.escape(message or reprlib.repr(record))):
        tables_from_document(doc)


def test_reader_counts_labels_before_building(monkeypatch):
    # the n = 2 rows hold 16 labels; a table with n = 40 holds 6.7e13
    *_, doc = build_table_doc()
    doc["spec"] = {"n": 40, "m": [1] * 40}

    def unbuilt(spec, inv):
        pytest.fail("the table was built")

    monkeypatch.setattr(serialize, "mhs_table", unbuilt)
    with pytest.raises(ValueError, match="H rows hold 16 labels, not "):
        tables_from_document(doc)


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
_KEYS = (
    st.sampled_from(["%", "%s", "%%d", "{", "{0}", '"', "\u00e9", "\U0001f600"])
    | _TEXT
)
_INT_LISTS = st.lists(
    st.integers() | st.integers(-(2**70), -(2**64)) | st.integers(2**64, 2**70),
    max_size=4,
)
# one kind per key: the record path's columns, a column mixing int and bool,
# and columns it must leave to the item-by-item path
_COLUMN_KINDS = st.sampled_from(
    [_TEXT, st.integers(), st.booleans() | st.none(), st.integers() | st.booleans(),
     _INT_LISTS, _SCALARS, _INT_LISTS | st.none(), _DOCUMENTS]
)


@st.composite
def _record_lists(draw):
    """Records with the same keys: a few distinct ones repeated up to past
    one slice, sharing their int-list objects, maybe one record with a key
    renamed (as many keys, not the same), added or removed, and the whole
    list at two depths."""
    keys = draw(st.lists(_KEYS, min_size=1, max_size=4, unique=True))
    kinds = [draw(_COLUMN_KINDS) for _ in keys]
    base = [
        {k: draw(kind) for k, kind in zip(keys, kinds)}
        for _ in range(draw(st.integers(1, 4)))
    ]
    count = draw(st.sampled_from([1, 2, 255, 256, 257, 600]))
    records = [dict(base[i % len(base)]) for i in range(count)]
    odd = records[draw(st.integers(0, count - 1))]
    change = draw(st.sampled_from(["none", "rename", "add", "remove"]))
    if change != "none":
        value = odd.pop(keys[0]) if change != "add" else None
        if change != "remove":
            odd[draw(_KEYS.filter(lambda k: k not in keys))] = value
    return {"flat": records, "nested": [[records]]}


@settings(max_examples=200, deadline=None)
@given(_DOCUMENTS | _record_lists())
def test_dump_json_is_the_stdlib_format(doc):
    assert dump_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_dump_json_encodes_a_shared_int_list_per_depth():
    shared = [1, -2]
    doc = {"a": [{"x": shared}], "b": [[{"x": shared}, {"x": shared}]]}
    assert dump_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("depth", [1, 3])
def test_dump_json_joins_slices_that_took_different_paths(depth):
    # slices of 256 items: records, item by item, records, item by item
    flat = [{"k": i, "xs": [i, -i], "on": i % 2 == 0} for i in range(256)]
    nested = [{"k": i, "sub": {"xs": [i]}} for i in range(256)]
    value = flat + nested + flat + nested[:40]
    doc = {"list": value}
    for _ in range(depth - 1):
        doc = {"list": [doc["list"]]}
    assert dump_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_dump_json_writes_records_whose_columns_vary_by_slice():
    # slices of 256 records: "on" is true throughout the first and mixes
    # true, false and null in the second; "off" is null everywhere; "k",
    # "%s" and "%%" repeat their values; "xs" shares three list objects
    shared = [[1, -2], [], [2**70]]
    records = [
        {"on": True if i < 256 else (True, False, None)[i % 3], "off": None,
         "k": i % 7 - 3, "%s": "ab"[i % 2] * (i % 5), "%%": "same",
         "xs": shared[i % 3]}
        for i in range(600)
    ]
    for doc in (records, {"depth": [records]}):
        assert dump_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_dump_json_holds_little_beyond_its_output():
    # the record path shares its texts instead of copying them per record
    # and per slice: at the n = 10 table the peak was twice the output
    *_, doc = build_table_doc(n=10, m=(3,) * 10, h=5, g=3)
    tracemalloc.start()
    try:
        text = dump_json(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * len(text)


def _exponent_lists(value):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from [item] if key == "exponents" else _exponent_lists(item)
    elif isinstance(value, list):
        for item in value:
            yield from _exponent_lists(item)


def test_table_document_shares_exponent_lists():
    n = 4
    *_, doc = build_table_doc(n=n, m=(2, 1, 1, 3), h=2, g=1)
    lists = list(_exponent_lists(doc))
    assert len(lists) > 2**n
    assert len({id(exponents) for exponents in lists}) == 2**n
    assert json.loads(dump_json(doc)) == doc


def test_dump_json_matches_the_stdlib_on_real_documents(capsys):
    # the JSON output of every verb; each table reads back as built
    for argv in (
        ["table", "--n", "3", "--m", "2,0,1", "--cusps", "3", "--genus", "2"],
        ["table", "--n", "8", "--m", "1,1,1,1,1,1,1,1", "--cusps", "2", "--genus", "1"],
        ["sheaf-matrix", "--n", "3", "--m", "2,0,1"],
        ["eisenstein", "--n", "3", "--m", "2,2,2", "--cusps", "1", "--genus", "1"],
        ["verify", "--max-n", "3", "--max-m", "2"],
    ):
        assert cli.main([*argv, "--format", "json"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n", argv
        if argv[0] == "table":
            tables_from_document(doc)


@pytest.mark.parametrize(
    "doc",
    [{"x": 1.5}, {"x": (1, 2)}, {1: "a"}, [{"a": 1, 2: "b"}],
     [{"a": 1}, {"a": 1.5}], [{"a": (1, 2)}], [{"a": [1, 1.5]}]],
    ids=["float", "tuple", "int-key", "mixed-keys",
         "record-float", "record-tuple", "record-float-in-list"],
)
def test_dump_json_refuses_what_documents_never_hold(doc):
    with pytest.raises(TypeError):
        dump_json(doc)


def test_dump_json_refuses_str_and_int_subclasses():
    class Name(str):
        pass

    class Count(int):
        pass

    docs = [{Name("a"): 1}, [{"a": 1}, {Name("a"): 1}]]
    for value in (Name("a"), Count(1)):
        docs += [{"x": value}, [{"x": value}], [{"x": [value]}]]
    for doc in docs:
        with pytest.raises(TypeError):
            dump_json(doc)
