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
exactly what ``json.dumps(doc, sort_keys=True, indent=2)`` writes.
:func:`tables_from_document` inverts the table part, which is what the
golden-file round-trip tests rely on.
"""

from __future__ import annotations

from collections.abc import Sequence
from json.encoder import encode_basestring_ascii as _quote

from .consistency import CheckReport, CheckResult
from .model import (
    LineBundleMonomial,
    LocalSystemSpec,
    SheafCohomologyLabel,
    SheafMatrix,
    VarietyInvariants,
)
from .tables import EisensteinDatum, IhTable, MhsRow, MhsTable


def _monomial_obj(mono: LineBundleMonomial) -> dict:
    return {"exponents": list(mono.exponents), "minus_s": mono.minus_S}


def _monomial_from(obj: dict) -> LineBundleMonomial:
    return LineBundleMonomial(tuple(obj["exponents"]), bool(obj["minus_s"]))


def _label_obj(label: SheafCohomologyLabel) -> dict:
    out = _monomial_obj(label.monomial)
    out["degree"] = label.degree
    out["restricted_to_s"] = label.restricted_to_S
    return out


def _label_from(obj: dict) -> SheafCohomologyLabel:
    return SheafCohomologyLabel(
        int(obj["degree"]), _monomial_from(obj), bool(obj["restricted_to_s"])
    )


def spec_section(spec: LocalSystemSpec) -> dict:
    return {"n": spec.n, "m": list(spec.m)}


def invariants_section(inv: VarietyInvariants) -> dict:
    return {"cusps": inv.cusps, "genus": inv.genus}


def mhs_rows(table: MhsTable) -> list[dict]:
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
                    {"p": P, "labels": [_label_obj(lb) for lb in row.gr_f[P]]}
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
            "monomials": [_monomial_obj(mono) for mono in monos],
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
    passed, failed, skipped = report.counts()
    return {
        "checks": checks_section(report),
        "summary": {
            "passed": passed,
            "failed": failed,
            "skipped": skipped,
            "ok": report.ok,
        },
        "sweep": bounds_desc,
    }


def dump_json(doc: dict) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)`` plus a final newline."""
    return _encode(doc, "\n") + "\n"


def _encode(value, newline: str) -> str:
    """One value whose closing bracket starts at ``newline``; only dicts with
    str keys, lists, str, int, bool and None are accepted.  The stdlib builds
    a list of every token when ``indent`` is set; here each container joins
    its items and drops them before adding its brackets, to save time and
    peak memory."""
    cls = type(value)
    if cls is str:
        return _quote(value)
    if cls is int:
        return int.__repr__(value)
    if cls is bool or value is None:
        return "null" if value is None else "true" if value else "false"
    if (cls is list or cls is dict) and not value:
        return "[]" if cls is list else "{}"
    inner = newline + "  "
    sep = "," + inner
    if cls is list:
        if set(map(type, value)) == {int}:
            body = sep.join(map(int.__repr__, value))
        else:
            body = sep.join([_encode(item, inner) for item in value])
        return f"[{inner}{body}{newline}]"
    if cls is dict:
        if set(map(type, value)) != {str}:
            raise TypeError("JSON object keys must be str")
        body = sep.join(
            [f"{_quote(k)}: {_encode(v, inner)}" for k, v in sorted(value.items())]
        )
        return f"{{{inner}{body}{newline}}}"
    raise TypeError(f"cannot encode {cls.__name__} {value!r} as JSON")


def tables_from_document(
    doc: dict,
) -> tuple[LocalSystemSpec, VarietyInvariants, MhsTable, IhTable, list[EisensteinDatum]]:
    """Rebuild the table objects from a table-mode document."""
    spec = LocalSystemSpec(int(doc["spec"]["n"]), tuple(doc["spec"]["m"]))
    inv = VarietyInvariants(
        spec.n, int(doc["invariants"]["cusps"]), int(doc["invariants"]["genus"])
    )
    tables = doc["tables"]

    dims = [0] * len(tables["IH"]["rows"])
    for row in tables["IH"]["rows"]:
        dims[int(row["k"])] = int(row["dim"])
    ih = IhTable(
        spec,
        inv,
        tuple(dims),
        {(h["p"], h["q"]): h["dim"] for h in tables["IH"]["hodge"]},
    )

    eis = [
        EisensteinDatum(
            int(row["k"]),
            int(row["cusps"]),
            tuple(
                (tuple(b["a"]), tuple(b["alpha"]), tuple(b["beta"]))
                for b in row["basis"]
            ),
        )
        for row in tables["Eis"]
    ]
    mhs = MhsTable(spec, inv, ih, tuple(eis), mhs_field=tables["mhs_field"])
    for row in tables["H"]:
        mhs.rows[int(row["k"])] = MhsRow(
            k=int(row["k"]),
            dim=int(row["dim"]),
            weights=tuple((w["weight"], w["dim"]) for w in row["weights"]),
            hodge={(h["p"], h["q"]): h["dim"] for h in row["hodge"]},
            splitting=(row["splitting"]["ih"], row["splitting"]["eis"]),
            gr_f={
                g["p"]: tuple(_label_from(lb) for lb in g["labels"])
                for g in row["grF"]
            },
            note=row["note"],
        )
    return spec, inv, mhs, ih, eis


def sheaf_matrix_from_document(doc: dict) -> SheafMatrix:
    """Rebuild a sheaf matrix from a sheaf-matrix document."""
    from collections import Counter

    spec = LocalSystemSpec(int(doc["spec"]["n"]), tuple(doc["spec"]["m"]))
    cells: dict[tuple[int, int], Counter] = {}
    for row in doc["tables"]["C"]:
        counter = cells.setdefault((int(row["p"]), int(row["l"])), Counter())
        for obj in row["monomials"]:
            counter[_monomial_from(obj)] += 1
    return SheafMatrix(spec.n, spec.m, cells)


def report_from_document(doc: dict) -> CheckReport:
    report = CheckReport()
    for row in doc["checks"]:
        report.results.append(
            CheckResult(
                row["name"], row["params"], row["status"], row["lhs"], row["rhs"]
            )
        )
    return report
