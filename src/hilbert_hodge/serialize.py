"""Canonical JSON documents for tables, matrices and check reports.

One envelope serves every CLI verb:

    {"spec": {"n", "m"},
     "invariants": {"cusps", "genus"},
     "tables": {"H": [...], "IH": {...}, "Eis": [...], "C": [...],
                "mhs_field": ...},
     "checks": [...]}

Only the sections a verb produces are present.  Keys are emitted sorted and
arrays are sorted by (k, p, q), so identical inputs give byte-identical
output everywhere.  :func:`dump_json`, the package's own encoder, writes
exactly what ``json.dumps(doc, sort_keys=True, indent=2)`` writes.  It puts
the texts of a document in one list and joins them once, so no container
copies the text of what it holds.  A list of flat records (same-keyed dicts,
such as a table's graded-piece labels) goes in runs of texts shared between
its records (:func:`_records`).  Documents are read-only: the labels of one
monomial share one ``exponents`` list, and its text is built once.
:func:`tables_from_document` inverts the table part, which is what the
golden-file round-trip tests rely on.  The tables follow from ``spec`` and
``invariants`` alone, so a document is read back only if it is exactly the
table of its ``spec`` and ``invariants``.

The tables make no ``O(-S)`` twist and no restriction to ``S``; the
``"minus_s"`` and ``"restricted_to_s"`` keys are kept, always ``false``, so
that the format and every pinned output stay unchanged.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from reprlib import repr as _brief

from .consistency import CheckReport
from .model import LocalSystemSpec, SheafMatrix, VarietyInvariants, validate_spec
from .tables import EisensteinDatum, IhTable, MhsTable, gr_f_label_count, mhs_table


def spec_section(spec: LocalSystemSpec) -> dict:
    return {"n": spec.n, "m": list(spec.m)}


def invariants_section(inv: VarietyInvariants) -> dict:
    return {"cusps": inv.cusps, "genus": inv.genus}


def mhs_rows(table: MhsTable) -> list[dict]:
    """The ``H`` rows.  The labels of one monomial share one ``exponents``
    list, 2^n lists in all, which must not be mutated."""
    shared: dict[tuple[int, ...], list[int]] = {}
    rows = []
    for k in sorted(table.rows):
        row = table.rows[k]
        rows.append(
            {
                "k": row.k,
                "dim": row.dim,
                "note": row.note,
                "weights": [
                    {"weight": wt, "dim": d} for wt, d in sorted(row.weights)
                ],
                "hodge": [
                    {"p": p, "q": q, "dim": row.hodge[(p, q)]}
                    for p, q in sorted(row.hodge)
                ],
                "splitting": {"ih": row.splitting[0], "eis": row.splitting[1]},
                "grF": [
                    {"p": P, "labels": [
                        {"degree": j,
                         "exponents": shared.get(e) or shared.setdefault(e, list(e)),
                         "minus_s": False,
                         "restricted_to_s": False}
                        for j, (e,) in row.gr_f[P]]}
                    for P in sorted(row.gr_f)
                ],
            }
        )
    return rows


def ih_section(table: IhTable) -> dict:
    return {
        "rows": [{"k": k, "dim": d} for k, d in enumerate(table.dims)],
        "hodge": [
            {"p": p, "q": q, "dim": table.hodge[(p, q)]}
            for p, q in sorted(table.hodge)
        ],
    }


def eis_rows(data: Sequence[EisensteinDatum]) -> list[dict]:
    return [
        {
            "k": d.k,
            "dim": d.dim,
            "cusps": d.cusps,
            "basis": [
                {"a": list(a), "alpha": list(alpha), "beta": list(beta)}
                for a, alpha, beta in d.per_cusp_basis
            ],
        }
        for d in sorted(data, key=lambda d: d.k)
    ]


def sheaf_matrix_rows(matrix: SheafMatrix) -> list[dict]:
    return [
        {
            "p": P,
            "l": l,
            "monomials": [
                {"exponents": list(mono.exponents), "minus_s": False}
                for mono in monos
            ],
        }
        for (P, l), monos in matrix.sorted_cells()
    ]


def checks_section(report: CheckReport) -> list[dict]:
    return [
        {
            "name": r.name,
            "params": r.params,
            "status": r.status,
            "lhs": r.lhs,
            "rhs": r.rhs,
        }
        for r in report.sorted_results()
    ]


def table_document(
    spec: LocalSystemSpec,
    inv: VarietyInvariants,
    mhs: MhsTable,
    ih: IhTable,
    eis: Sequence[EisensteinDatum],
) -> dict:
    return {
        "spec": spec_section(spec),
        "invariants": invariants_section(inv),
        "tables": {
            "H": mhs_rows(mhs),
            "IH": ih_section(ih),
            "Eis": eis_rows(eis),
            "mhs_field": mhs.mhs_field,
        },
    }


def sheaf_matrix_document(spec: LocalSystemSpec, matrix: SheafMatrix) -> dict:
    return {
        "spec": spec_section(spec),
        "tables": {"C": sheaf_matrix_rows(matrix)},
    }


def eisenstein_document(
    spec: LocalSystemSpec, inv: VarietyInvariants, eis: list[EisensteinDatum]
) -> dict:
    return {
        "spec": spec_section(spec),
        "invariants": invariants_section(inv),
        "tables": {"Eis": eis_rows(eis)},
    }


def verify_document(report: CheckReport, bounds_desc: dict) -> dict:
    passed, failed = report.counts()
    return {
        "checks": checks_section(report),
        "summary": {
            "passed": passed,
            "failed": failed,
            "skipped": 0,  # no check skips; the key keeps the format unchanged
            "ok": report.ok,
        },
        "sweep": bounds_desc,
    }


def dump_json(doc: dict) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)`` plus a final newline."""
    pieces: list[str] = []
    _encode(doc, "\n", {}, pieces)
    pieces.append("\n")
    return "".join(pieces)


_LITERALS = {True: "true", False: "false", None: "null"}
_SLICE = 256  # list items per _records call: bounds its transient column lists


def _ints(value: list, newline: str) -> str:
    """An int list whose closing bracket starts at ``newline``."""
    if not value:
        return "[]"
    inner = newline + "  "
    return f"[{inner}{(',' + inner).join(map(int.__repr__, value))}{newline}]"


def _encode(value, newline: str, texts: dict, pieces: list) -> None:
    """Append one value whose closing bracket starts at ``newline`` to
    ``pieces``, joining no container's text; only dicts with str keys, lists,
    str, int, bool and None are accepted.  A list goes by slices of ``_SLICE``
    items, each one run of texts from :func:`_records` if it can, else item
    by item.  ``texts`` is the int-list store of one :func:`dump_json` call."""
    cls = type(value)
    write = pieces.append
    if cls is str:
        write(_quote(value))
    elif cls is int:
        write(int.__repr__(value))
    elif cls is bool or value is None:
        write(_LITERALS[value])
    elif cls is list and (not value or set(map(type, value)) == {int}):
        write(_ints(value, newline))
    elif cls is list:
        inner = newline + "  "
        sep = "[" + inner
        for i in range(0, len(value), _SLICE):
            part = value[i : i + _SLICE]
            run = _records(part, inner, texts)
            if run is not None:
                write(sep)
                pieces.extend(run)
            else:
                for item in part:
                    write(sep)
                    _encode(item, inner, texts, pieces)
                    sep = "," + inner
            sep = "," + inner
        write(newline + "]")
    elif cls is dict and not value:
        write("{}")
    elif cls is dict:
        if set(map(type, value)) != {str}:
            raise TypeError("JSON object keys must be str")
        inner = newline + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            write(f"{sep}{_quote(key)}: ")
            _encode(item, inner, texts, pieces)
            sep = "," + inner
        write(newline + "}")
    else:
        raise TypeError(f"cannot encode {cls.__name__} {value!r} as JSON")


def _records(items: list, newline: str, texts: dict) -> Iterator[str] | None:
    """List items at ``newline`` as a run of texts if all are dicts with the
    same str keys and columns of str, of int, of bool or None, or of int
    lists; else None.  The run interleaves each column's texts with the text
    between columns, built once, into which a column of one value is folded.
    A scalar column encodes each distinct value once, and ``texts[newline]``
    keeps the text of each int list (short, unlike other lists) by ``id``,
    alive while the document is, so no text is built or copied per record."""
    if set(map(type, items)) != {dict} or set(
        map(type, chain.from_iterable(items))
    ) != {str}:
        return None
    keys = sorted(items[0])
    if set(map(len, items)) != {len(keys)}:
        return None
    inner = newline + "  "
    known = texts.setdefault(inner, {})
    const, parts = "", []
    for key, head in zip(keys, chain(["{"], repeat(","))):
        try:
            column = list(map(itemgetter(key), items))
        except KeyError:  # as many keys, but not the same ones
            return None
        const += f"{head}{inner}{_quote(key)}: "
        kinds = set(map(type, column))
        if kinds == {list}:
            fresh = dict(zip(map(id, column), column))
            for i in set(fresh).difference(known):
                if not set(map(type, fresh[i])) <= {int}:
                    return None
                known[i] = _ints(fresh[i], inner)
            column = map(known.__getitem__, map(id, column))
        elif kinds in ({str}, {int}) or kinds <= {bool, type(None)}:
            encode = {str: _quote, int: int.__repr__}.get(kinds.pop(), _LITERALS.get)
            text_of = {value: encode(value) for value in set(column)}
            if len(text_of) == 1:
                const += text_of[column[0]]
                continue
            column = map(text_of.__getitem__, column)
        else:
            return None
        parts += [repeat(const), column]
        const = ""
    close = const + newline + "}"
    lead = next(parts.pop(0)) if parts else ""  # merged into each record's end
    ends = chain(repeat(f"{close},{newline}{lead}", len(items) - 1), [close])
    return chain([lead], chain.from_iterable(zip(*parts, ends)))


def tables_from_document(
    doc: dict,
) -> tuple[LocalSystemSpec, VarietyInvariants, MhsTable, IhTable, list[EisensteinDatum]]:
    """Rebuild the table objects of a document that is exactly the table of
    its ``spec`` and ``invariants``; refuse any other with a ``ValueError``,
    before building the table if its ``H`` rows hold another label count."""
    try:
        spec = validate_spec(doc["spec"]["n"], doc["spec"]["m"], table=True)
        inv = VarietyInvariants(
            spec.n, doc["invariants"]["cusps"], doc["invariants"]["genus"]
        )
        labels = sum(len(g["labels"]) for row in doc["tables"]["H"] for g in row["grF"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"not a table document: {exc!r}") from None
    if labels != gr_f_label_count(spec.n):
        raise ValueError(f"H rows hold {labels} labels, not {gr_f_label_count(spec.n)}")
    mhs = mhs_table(spec, inv)
    want = table_document(spec, inv, mhs, mhs.ih, mhs.eis)
    _compare(doc, want, "document", "", "the document")
    return spec, inv, mhs, mhs.ih, list(mhs.eis)


def _compare(have, want, field: str, row: str, record) -> None:
    """Refuse ``have`` unless it is ``want`` in type, keys, length and value
    (``1.0`` and ``True`` are not ``1``), naming its ``field``, its ``row`` (a
    ``tables`` section, ``^k`` in a degree-``k`` record) and innermost ``record``,
    each value and record abbreviated by ``reprlib.repr``."""
    kind = type(want)
    if kind is dict and type(have) is dict and have.keys() == want.keys():
        row = f"{row}^{want['k']}" if "k" in want else row
        for key, value in want.items():
            _compare(have[key], value, key, key if field == "tables" else row, have)
    elif kind is list and type(have) is list and len(have) == len(want):
        if {*map(type, want), *map(type, have)} <= {int} and have == want:
            return  # a list of ints, equal in one step
        for i, (item, wanted) in enumerate(zip(have, want)):
            _compare(item, wanted, f"{field}[{i}]", row, record)
    elif type(have) is not kind or kind in (dict, list) or have != want:
        name = field if row in ("", field) else f"{field} {row}"
        where = record if type(record) is str else _brief(record)
        raise ValueError(f"{name} is {_brief(have)}, not {_brief(want)}, in {where}")
