"""Batch front-end: assemble tables or run the verification sweep.

``VERBS`` names each verb with its runner, its help text, the ``SETTINGS``
it reads and whether it requires them; the parser, the config keys each
verb accepts and the dispatch are built from these two tables.  One step,
``resolve_config``, reads flags and a JSON config file (flags win) by one
rule into the output format and the settings, which ``main`` hands to the
runner as keywords.  Output is text, JSON (canonical: sorted keys, sorted
arrays) or a LaTeX tabular fragment.  Exit status: 0 on success, 1 on a
validation/configuration error or an output over ``OUTPUT_BUDGET``, 2 when
a verification check fails.

``main`` pauses the cyclic collector during a verb and then restores it: it
only reclaims reference cycles, no verb makes one (``TestNoCycles`` in
``tests/test_cli.py``), so its passes would traverse live data for nothing.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import re
import sys

from .consistency import SweepBounds, run_verification
from .errors import ConfigError, HilbertHodgeError, OutputTooLarge
from .kunneth import cohomology_sheaf_closed_form
from .model import (
    LineBundleMonomial,
    VarietyInvariants,
    label_text,
    validate_spec,
)
from .serialize import (
    dump_json,
    eisenstein_document,
    sheaf_matrix_document,
    table_document,
    verify_document,
)
from .tables import eisenstein_data, gr_f_label_count, mhs_table

FORMATS = ("text", "json", "latex")
# each setting with its help text, in the order its values are converted
SETTINGS = {
    "n": "number of factors",
    "m": "comma-separated weights, e.g. 1,1",
    "cusps": "number of cusps",
    "genus": "geometric genus",
    "max_n": "sweep bound on n",
    "max_m": "sweep bound on weights",
}
# most labels (table), monomials (sheaf-matrix) or boundary classes
# (eisenstein) one run may emit: this admits n <= 15 for table, n <= 19 for
# sheaf-matrix and n <= 20 for eisenstein
OUTPUT_BUDGET = 10**6
# characters per write to stdout, 1 MiB of the ASCII output: the stream then
# never encodes a second copy of a large output at once
_WRITE_SLICE = 2**20


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    return cfg


def _convert(name: str, value):
    """A setting's value, from a flag's string or a config value alike.  An
    integer is an int or a string of ASCII digits with an optional sign: a
    bool, a float (even ``2.0``) and ``int()``'s other spellings (``1_0``,
    ``" 2"``, non-ASCII digits) are refused.  ``m`` is a list of integers or
    a comma-separated string of them."""
    parts = [value]
    if name == "m":
        parts = value.split(",") if isinstance(value, str) else value
    try:
        if isinstance(parts, list) and all(
            type(x) is int or type(x) is str and re.fullmatch("[+-]?[0-9]+", x)
            for x in parts
        ):
            ints = tuple(map(int, parts))  # ValueError past int()'s digit limit
            return ints if name == "m" else ints[0]
    except ValueError:
        pass
    what = "a comma-separated integer list" if name == "m" else "an integer"
    raise ConfigError(f"setting {name} must be {what}, got {value!r}")


def resolve_config(args, verb: str) -> tuple[str, dict]:
    """Merge flags over the optional config file, which may name ``format``
    and the verb's settings only, into the format (text if unset or null) and
    the converted settings; a required setting left unset is refused here."""
    _, _, names, required = VERBS[verb]
    keys = ("format", *names)
    given = _load_config(getattr(args, "config", None))
    unknown = ", ".join(repr(key) for key in sorted(set(given) - set(keys)))
    if unknown:
        raise ConfigError(f"config file names no setting {unknown} of {verb}")
    for key in keys:
        if (flag := getattr(args, key, None)) is not None:
            given[key] = flag
    given = {key: value for key, value in given.items() if value is not None}
    settings = {name: _convert(name, given[name]) for name in names if name in given}
    fmt = given.get("format", "text")
    if fmt not in FORMATS:
        raise ConfigError(f"unknown format {fmt!r}")
    if required and (unset := [name for name in names if name not in settings]):
        raise ConfigError(f"missing required setting --{unset[0]}")
    return fmt, settings


def _check_output_size(count: int, what: str) -> None:
    """Refuse, before anything is built, an output larger than the budget."""
    if count > OUTPUT_BUDGET:
        raise OutputTooLarge(
            f"output would hold {count} {what}, over the budget of {OUTPUT_BUDGET}"
        )


def _emit(doc: dict, fmt: str, text_renderer, latex_renderer) -> None:
    render = {"json": dump_json, "latex": latex_renderer}.get(fmt, text_renderer)
    text = render(doc)
    for start in range(0, len(text), _WRITE_SLICE):
        sys.stdout.write(text[start : start + _WRITE_SLICE])


# ---------------------------------------------------------------- rendering


def _header_text(doc: dict) -> list[str]:
    lines = []
    if "spec" in doc:
        s = doc["spec"]
        lines.append(f"local system: n={s['n']} m={tuple(s['m'])}")
    if "invariants" in doc:
        i = doc["invariants"]
        lines.append(f"variety: cusps={i['cusps']} genus={i['genus']}")
    return lines


def _eis_text(rows: list[dict]) -> list[str]:
    lines = []
    for row in rows:
        lines.append(f"eisenstein k={row['k']}: dim {row['dim']}")
        for b in row["basis"]:
            lines.append(
                f"  a={set(b['a']) or '{}'} alpha={tuple(b['alpha'])} "
                f"beta={tuple(b['beta'])}"
            )
    return lines


def render_table_text(doc: dict) -> str:
    lines = _header_text(doc)
    tables = doc["tables"]
    lines.append(f"mhs defined over: {tables['mhs_field']}")
    lines.append("")
    lines.append("H^k  dim  weight levels      hodge numbers")
    for row in tables["H"]:
        weights = " ".join(f"{w['weight']}:{w['dim']}" for w in row["weights"]) or "-"
        hodge = (
            " ".join(f"({h['p']},{h['q']}):{h['dim']}" for h in row["hodge"]) or "-"
        )
        note = f"  ({row['note']})" if row["note"] else ""
        lines.append(f"k={row['k']:<3} {row['dim']:<4} {weights:<18} {hodge}{note}")
    lines.append("")
    ih = tables["IH"]
    nonzero = [r for r in ih["rows"] if r["dim"]]
    ih_txt = " ".join(f"IH^{r['k']}={r['dim']}" for r in nonzero) or "all zero"
    lines.append(f"intersection cohomology: {ih_txt}")
    hodge = " ".join(f"({h['p']},{h['q']}):{h['dim']}" for h in ih["hodge"])
    if hodge:
        lines.append(f"  middle hodge numbers: {hodge}")
    lines.append("")
    lines.extend(_eis_text(tables["Eis"]))
    lines.append("")
    lines.append("graded pieces of the Hodge filtration (middle and boundary):")
    n = doc["spec"]["n"]
    for row in tables["H"]:
        if not n <= row["k"] <= 2 * n - 1:
            continue
        for g in row["grF"]:
            labels = ", ".join(
                label_text(lb["degree"], LineBundleMonomial(tuple(lb["exponents"])))
                for lb in g["labels"]
            )
            lines.append(f"  k={row['k']} Gr_F^{g['p']}: {labels}")
    return "\n".join(lines) + "\n"


def _tabular(columns: str, rows) -> str:
    """A LaTeX tabular with column spec ``columns``, one line per row of cells."""
    lines = "".join(" & ".join(map(str, row)) + " \\\\\n" for row in rows)
    return f"\\begin{{tabular}}{{{columns}}}\n{lines}\\end{{tabular}}\n"


def render_table_latex(doc: dict) -> str:
    out = [["$k$", "$\\dim H^k$", "weights", "Hodge numbers"]]
    for row in doc["tables"]["H"]:
        weights = (
            ", ".join(f"${w['weight']}\\colon {w['dim']}$" for w in row["weights"])
            or "--"
        )
        hodge = (
            ", ".join(
                f"$h^{{{h['p']},{h['q']}}}={h['dim']}$" for h in row["hodge"]
            )
            or "--"
        )
        out.append([f"${row['k']}$", f"${row['dim']}$", weights, hodge])
    return _tabular("rrll", out)


def render_sheaf_text(doc: dict) -> str:
    lines = _header_text(doc)
    lines.append("cohomology sheaves (P, l) -> line bundles:")
    for row in doc["tables"]["C"]:
        monos = ", ".join(
            str(LineBundleMonomial(tuple(obj["exponents"]))) for obj in row["monomials"]
        )
        lines.append(f"  (P={row['p']}, l={row['l']}): {monos}")
    return "\n".join(lines) + "\n"


def render_sheaf_latex(doc: dict) -> str:
    out = [["$P$", "$l$", "$\\mathcal{C}^{P,l}$"]]
    for row in doc["tables"]["C"]:
        monos = " \\oplus ".join(
            f"${LineBundleMonomial(tuple(obj['exponents'])).latex()}$"
            for obj in row["monomials"]
        )
        out.append([f"${row['p']}$", f"${row['l']}$", monos])
    return _tabular("rrl", out)


def render_eis_text(doc: dict) -> str:
    lines = _header_text(doc) + _eis_text(doc["tables"]["Eis"])
    return "\n".join(lines) + "\n"


def render_eis_latex(doc: dict) -> str:
    out = [["$k$", "$\\dim$", "$a$", "$(\\alpha,\\beta)$"]]
    for row in doc["tables"]["Eis"]:
        k, dim = f"${row['k']}$", f"${row['dim']}$"
        if not row["basis"]:
            out.append([k, dim, "--", "--"])
        for b in row["basis"]:
            members = ",".join(str(x) for x in b["a"])
            a = f"\\{{{members}\\}}" if members else "\\emptyset"
            pair = f"$({tuple(b['alpha'])},{tuple(b['beta'])})$"
            out.append([k, dim, f"${a}$", pair])
    return _tabular("rrll", out)


def render_verify_text(doc: dict) -> str:
    s = doc["summary"]
    lines = [
        f"checks: {s['passed']} passed, {s['failed']} failed, "
        f"{s['skipped']} skipped"
    ]
    for row in doc["checks"]:
        if row["status"] == "fail":
            lines.append(
                f"FAIL {row['name']} [{row['params']}]: "
                f"lhs={row['lhs']} rhs={row['rhs']}"
            )
    lines.append("OK" if s["ok"] else "FAILED")
    return "\n".join(lines) + "\n"


def render_verify_latex(doc: dict) -> str:
    s = doc["summary"]
    return _tabular("lr", [[key, s[key]] for key in ("passed", "failed", "skipped")])


# -------------------------------------------------------------------- verbs


def _run_table(fmt: str, n: int, m: tuple[int, ...], cusps: int, genus: int) -> int:
    spec = validate_spec(n, m, table=True)
    inv = VarietyInvariants(n, cusps, genus)
    _check_output_size(gr_f_label_count(n), "Gr_F labels")
    mhs = mhs_table(spec, inv)
    doc = table_document(spec, inv, mhs, mhs.ih, mhs.eis)
    _emit(doc, fmt, render_table_text, render_table_latex)
    return 0


def _run_sheaf_matrix(fmt: str, n: int, m: tuple[int, ...]) -> int:
    spec = validate_spec(n, m, table=False)
    _check_output_size(2**n, "monomials")
    doc = sheaf_matrix_document(spec, cohomology_sheaf_closed_form(spec))
    _emit(doc, fmt, render_sheaf_text, render_sheaf_latex)
    return 0


def _run_eisenstein(
    fmt: str, n: int, m: tuple[int, ...], cusps: int, genus: int
) -> int:
    spec = validate_spec(n, m, table=True)
    inv = VarietyInvariants(n, cusps, genus)
    classes = 2 ** (n - 1) if spec.is_parallel else 0
    _check_output_size(classes, "boundary classes")
    eis = [eisenstein_data(spec, inv, k) for k in range(n, 2 * n)]
    doc = eisenstein_document(spec, inv, eis)
    _emit(doc, fmt, render_eis_text, render_eis_latex)
    return 0


def _run_verify(fmt: str, **given: int) -> int:
    bounds = SweepBounds(**given)  # the only defaults of max_n and max_m
    report = run_verification(bounds)
    doc = verify_document(report, {"max_n": bounds.max_n, "max_m": bounds.max_m})
    _emit(doc, fmt, render_verify_text, render_verify_latex)
    return 0 if report.ok else 2


# the settings of a local system (n, m) on a variety (cusps, genus)
_ON_VARIETY = ("n", "m", "cusps", "genus")
# each verb: its runner, its help text, the settings it reads and whether it
# requires them
VERBS = {
    "table": (_run_table, "full mixed Hodge structure table", _ON_VARIETY, True),
    "sheaf-matrix": (
        _run_sheaf_matrix, "closed-form cohomology sheaves", ("n", "m"), True
    ),
    "eisenstein": (_run_eisenstein, "boundary cohomology data", _ON_VARIETY, True),
    "verify": (
        _run_verify, "run the cross-validation sweep", ("max_n", "max_m"), False
    ),
}


@functools.cache  # a parser is a web of cycles: build it once, on first use
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hilbert-hodge",
        description="Exact mixed-Hodge-structure tables for cohomology of "
        "non-trivial local systems on Hilbert modular varieties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for verb, (_, help_text, names, _) in VERBS.items():
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--format", choices=FORMATS, help="output format")
        for name in names:
            p.add_argument("--" + name.replace("_", "-"), help=SETTINGS[name])
    return parser


def main(argv=None) -> int:
    parser, argv = build_parser(), list(sys.argv[1:] if argv is None else argv)
    flags = {"--" + name.replace("_", "-") for name in SETTINGS}
    for i in reversed(range(len(argv) - 1)):  # "--m -1,1" is read as "--m=-1,1"
        if argv[i] in flags and argv[i + 1].startswith("-"):
            argv[i : i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for failed checks
        return 0 if exc.code in (0, None) else 1
    collecting = gc.isenabled()
    gc.disable()  # no verb makes a reference cycle: see the module docstring
    try:
        fmt, settings = resolve_config(args, args.command)
        return VERBS[args.command][0](fmt, **settings)
    except HilbertHodgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
