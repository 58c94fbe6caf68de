"""CLI behavior: verbs, formats, config handling, exit codes."""

import gc
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from hilbert_hodge import SweepBounds, cli, consistency, higgs, tables
from hilbert_hodge.consistency import CheckReport, iter_table_inputs


GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestTableVerb:
    def test_json_values(self, capsys):
        doc = run_json(
            capsys,
            "table", "--n", "2", "--m", "1,1",
            "--cusps", "1", "--genus", "1", "--format", "json",
        )
        rows = {row["k"]: row for row in doc["tables"]["H"]}
        assert rows[2]["dim"] == 33
        hodge = {(h["p"], h["q"]): h["dim"] for h in rows[2]["hodge"]}
        assert hodge == {(0, 4): 8, (2, 2): 16, (4, 0): 8, (4, 4): 1}
        assert rows[2]["splitting"] == {"eis": 1, "ih": 32}
        assert rows[3]["dim"] == 1
        assert doc["tables"]["mhs_field"] == "Q"
        ih = {r["k"]: r["dim"] for r in doc["tables"]["IH"]["rows"]}
        assert ih == {0: 0, 1: 0, 2: 32, 3: 0, 4: 0}

    def test_byte_identical_across_runs(self, capsys):
        args = (
            "table", "--n", "2", "--m", "1,1",
            "--cusps", "1", "--genus", "1", "--format", "json",
        )
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first.encode() == second.encode()

    def test_text_format_mentions_values(self, capsys):
        code, out, _ = run(
            capsys, "table", "--n", "2", "--m", "2,2", "--cusps", "1", "--genus", "1"
        )
        assert code == 0
        assert "73" in out
        assert "(3,3):36" in out

    def test_latex_balanced(self, capsys):
        code, out, _ = run(
            capsys,
            "table", "--n", "3", "--m", "1,1,1",
            "--cusps", "2", "--genus", "1", "--format", "latex",
        )
        assert code == 0
        assert out.count("\\begin{tabular}") == out.count("\\end{tabular}") == 1

    def test_trivial_system_exits_one(self, capsys):
        code, _, err = run(
            capsys, "table", "--n", "2", "--m", "0,0", "--cusps", "1", "--genus", "1"
        )
        assert code == 1
        assert "trivial" in err

    def test_small_n_exits_one(self, capsys):
        code, _, err = run(
            capsys, "table", "--n", "1", "--m", "2", "--cusps", "1", "--genus", "1"
        )
        assert code == 1
        assert "n >= 2" in err

    def test_inconsistent_invariants_exit_one(self, capsys):
        code, _, err = run(
            capsys, "table", "--n", "3", "--m", "1,1,1", "--cusps", "1", "--genus", "0"
        )
        assert code == 1
        assert "inconsistent" in err

    def test_oversized_table_refused_before_assembly(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("mhs_table called for an oversized table")

        monkeypatch.setattr(cli, "mhs_table", refuse)
        code, out, err = run(
            capsys, "table", "--n", "16", "--m", ",".join(["1"] * 16),
            "--cusps", "1", "--genus", "1", "--format", "json",
        )
        assert code == 1
        assert out == ""
        assert err == (
            "error: output would hold 1638400 Gr_F labels, "
            "over the budget of 1000000\n"
        )

    def test_n12_table_within_budget(self, capsys):
        doc = run_json(
            capsys, "table", "--n", "12", "--m", ",".join(["1"] * 12),
            "--cusps", "1", "--genus", "1", "--format", "json",
        )
        labels = sum(
            len(piece["labels"]) for row in doc["tables"]["H"] for piece in row["grF"]
        )
        assert labels == 77824


class TestSheafMatrixVerb:
    def test_json_entries(self, capsys):
        doc = run_json(capsys, "sheaf-matrix", "--n", "2", "--m", "1,0",
                       "--format", "json")
        cells = {
            (row["p"], row["l"]): [tuple(m["exponents"]) for m in row["monomials"]]
            for row in doc["tables"]["C"]
        }
        assert cells == {
            (0, 0): [(-1, 0)],
            (1, 1): [(-1, 2)],
            (2, 1): [(3, 0)],
            (3, 2): [(3, 2)],
        }

    def test_engine_specs_allowed(self, capsys):
        doc = run_json(capsys, "sheaf-matrix", "--n", "1", "--m", "0",
                       "--format", "json")
        assert len(doc["tables"]["C"]) == 2

    def test_latex_balanced(self, capsys):
        code, out, _ = run(
            capsys, "sheaf-matrix", "--n", "2", "--m", "2,1", "--format", "latex"
        )
        assert code == 0
        assert out.count("\\begin{tabular}") == out.count("\\end{tabular}") == 1

    @pytest.mark.parametrize("fmt, expected", [
        ("text", "local system: n=2 m=(0, 0)\n"
                 "cohomology sheaves (P, l) -> line bundles:\n"
                 "  (P=0, l=0): 1\n"
                 "  (P=1, l=1): L2^2, L1^2\n"
                 "  (P=2, l=2): L1^2 L2^2\n"),
        ("latex", "\\begin{tabular}{rrl}\n"
                  "$P$ & $l$ & $\\mathcal{C}^{P,l}$ \\\\\n"
                  "$0$ & $0$ & $\\mathcal{O}$ \\\\\n"
                  "$1$ & $1$ & $\\mathcal{L}_{2}^{2}$ \\oplus $\\mathcal{L}_{1}^{2}$ \\\\\n"
                  "$2$ & $2$ & $\\mathcal{L}_{1}^{2}\\mathcal{L}_{2}^{2}$ \\\\\n"
                  "\\end{tabular}\n"),
    ])
    def test_empty_monomial(self, capsys, fmt, expected):
        # all weights zero: the P = 0 cell holds the monomial with no factor
        code, out, _ = run(capsys, "sheaf-matrix", "--n", "2", "--m", "0,0",
                           "--format", fmt)
        assert (code, out) == (0, expected)

    def test_oversized_matrix_refused_before_assembly(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("closed form called for an oversized matrix")

        monkeypatch.setattr(cli, "cohomology_sheaf_closed_form", refuse)
        code, out, err = run(
            capsys, "sheaf-matrix", "--n", "20", "--m", ",".join(["0"] * 20)
        )
        assert (code, out) == (1, "")
        assert "1048576 monomials" in err


class TestEisensteinVerb:
    def test_json(self, capsys):
        doc = run_json(
            capsys,
            "eisenstein", "--n", "3", "--m", "2,2,2",
            "--cusps", "1", "--genus", "1", "--format", "json",
        )
        rows = {row["k"]: row for row in doc["tables"]["Eis"]}
        assert rows[4]["dim"] == 2
        assert rows[4]["basis"][0]["alpha"] == [3, 4, 4]
        assert rows[4]["basis"][0]["beta"] == [1, 0, 0]

    def test_non_parallel_zero(self, capsys):
        doc = run_json(
            capsys,
            "eisenstein", "--n", "2", "--m", "1,0",
            "--cusps", "4", "--genus", "1", "--format", "json",
        )
        assert all(row["dim"] == 0 for row in doc["tables"]["Eis"])

    def test_non_parallel_latex_rows_have_no_class(self, capsys):
        code, out, _ = run(
            capsys,
            "eisenstein", "--n", "2", "--m", "1,0",
            "--cusps", "4", "--genus", "1", "--format", "latex",
        )
        assert (code, out) == (0, (
            "\\begin{tabular}{rrll}\n"
            "$k$ & $\\dim$ & $a$ & $(\\alpha,\\beta)$ \\\\\n"
            "$2$ & $0$ & -- & -- \\\\\n"
            "$3$ & $0$ & -- & -- \\\\\n"
            "\\end{tabular}\n"
        ))

    def test_oversized_output_refused_before_assembly(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("eisenstein_data called for an oversized output")

        monkeypatch.setattr(cli, "eisenstein_data", refuse)
        code, out, err = run(
            capsys, "eisenstein", "--n", "21", "--m", ",".join(["1"] * 21),
            "--cusps", "1", "--genus", "1", "--format", "json",
        )
        assert code == 1
        assert out == ""
        assert err == (
            "error: output would hold 1048576 boundary classes, "
            "over the budget of 1000000\n"
        )

    def test_n12_within_budget(self, capsys):
        doc = run_json(
            capsys, "eisenstein", "--n", "12", "--m", ",".join(["1"] * 12),
            "--cusps", "2", "--genus", "1", "--format", "json",
        )
        assert sum(row["dim"] for row in doc["tables"]["Eis"]) == 2**11 * 2


class TestVerifyVerb:
    def test_default_sweep_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", "3", "--max-m", "2")
        assert code == 0
        assert "OK" in out

    def test_json_summary(self, capsys):
        doc = run_json(
            capsys, "verify", "--max-n", "2", "--max-m", "1", "--format", "json"
        )
        assert doc["summary"]["ok"] is True
        assert doc["summary"]["failed"] == 0
        assert doc["sweep"] == {"max_n": 2, "max_m": 1}

    def test_failure_exits_two(self, capsys, monkeypatch):
        broken = CheckReport()
        broken.record("demo", "x=1", 0, 1)
        monkeypatch.setattr(cli, "run_verification", lambda bounds: broken)
        code, out, _ = run(capsys, "verify")
        assert code == 2
        assert "FAILED" in out

    def test_reached_cap_refuses_the_sweep(self, capsys, monkeypatch):
        # the sweep up to n = 2 with weights up to 2 builds 156 basis elements
        monkeypatch.setattr(higgs, "ORACLE_CAP", 155)
        code, out, err = run(capsys, "verify", "--max-n", "2", "--max-m", "2")
        assert (code, out) == (1, "")
        assert "156 basis elements (cap 155)" in err
        monkeypatch.setattr(higgs, "ORACLE_CAP", 156)
        assert run(capsys, "verify", "--max-n", "2", "--max-m", "2")[0] == 0

    @pytest.mark.parametrize(
        "max_n, max_m, sizes",
        [
            ("30", "3", "up to n = 5 it builds 3368420 basis elements (cap 1000000) "
             "in 579194 blocks (budget 200000) "
             "and records 61768 results (budget 100000)"),
            ("1", "998", "up to n = 1 it builds 999000 basis elements (cap 1000000) "
             "in 500499 blocks (budget 200000) "
             "and records 501498 results (budget 100000)"),
            ("17", "0", "up to n = 17 it builds 262142 basis elements (cap 1000000) "
             "in 262142 blocks (budget 200000) "
             "and records 187 results (budget 100000)"),
        ],
        ids=["over-the-cap", "over-the-result-budget", "over-the-block-budget"],
    )
    def test_oversized_sweep_refused_before_any_work(
        self, capsys, monkeypatch, max_n, max_m, sizes
    ):
        def started(bounds):
            pytest.fail("the oracle sweep started")

        monkeypatch.setattr(consistency, "check_oracle_equivalence", started)
        code, out, err = run(capsys, "verify", "--max-n", max_n, "--max-m", max_m)
        assert (code, out, err) == (1, "", f"error: sweep too large: {sizes}\n")

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--max-n", "0"), "max_n must be >= 1"),
            (("--max-m", "-1"), "max_m must be >= 0"),
            # the oracle cap is a constant, with no flag to set it
            (("--oracle-cap", "1"), "unrecognized arguments: --oracle-cap 1"),
        ],
    )
    def test_empty_sweep_or_cap_exits_one(self, capsys, flags, message):
        code, out, err = run(capsys, "verify", *flags)
        assert code == 1
        assert out == ""
        assert message in err

    def test_latex_summary_balanced(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--max-n", "2", "--max-m", "1", "--format", "latex"
        )
        assert code == 0
        assert out.count("\\begin{tabular}") == out.count("\\end{tabular}") == 1


class TestRunConfig:
    """One run's format and settings, resolved by ``cli.main`` from argv."""

    def test_programmatic_run(self, capsys):
        # a runner takes the format and its settings as keywords
        runner = cli.VERBS["table"][0]
        assert runner("json", n=2, m=(1, 1), cusps=1, genus=1) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tables"]["H"][2]["dim"] == 33

    def test_bad_format_rejected(self, capsys):
        code, out, err = run(capsys, "verify", "--format", "yaml")
        assert (code, out) == (1, "")
        assert "invalid choice: 'yaml'" in err

    def test_config_format_validated_from_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"format": "yaml"}))
        code, _, err = run(capsys, "verify", "--config", str(cfg))
        assert code == 1
        assert "format" in err

    def test_null_config_format_means_text(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"format": None, "n": 2, "m": [1, 1]}))
        text = run(capsys, "sheaf-matrix", "--n", "2", "--m", "1,1")
        assert text[0] == 0
        assert run(capsys, "sheaf-matrix", "--config", str(cfg)) == text

    @pytest.mark.parametrize("value", ["", False, 0, "TEXT"])
    def test_other_config_formats_refused(self, capsys, tmp_path, value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"format": value, "n": 2, "m": [1, 1]}))
        code, out, err = run(capsys, "sheaf-matrix", "--config", str(cfg))
        assert (code, out, err) == (1, "", f"error: unknown format {value!r}\n")


class TestConfigFile:
    def test_config_supplies_fields(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps(
                {"n": 2, "m": [1, 1], "cusps": 1, "genus": 1, "format": "json"}
            )
        )
        doc = run_json(capsys, "table", "--config", str(cfg))
        assert doc["spec"]["m"] == [1, 1]

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps(
                {"n": 2, "m": [1, 1], "cusps": 1, "genus": 1, "format": "json"}
            )
        )
        doc = run_json(capsys, "table", "--config", str(cfg), "--m", "1,0")
        assert doc["spec"]["m"] == [1, 0]

    def test_missing_required_field(self, capsys):
        code, _, err = run(capsys, "table", "--n", "2", "--m", "1,1", "--cusps", "1")
        assert code == 1
        assert "--genus" in err

    def test_malformed_m(self, capsys):
        # an empty entry is refused, not dropped
        for m in ("1;1", "1,,0", "1,1,"):
            code, _, err = run(
                capsys, "table", "--n", "2", "--m", m, "--cusps", "1", "--genus", "1"
            )
            assert code == 1, m
            assert "comma-separated" in err

    # int() would also read digit-group underscores, surrounding spaces and
    # non-ASCII digits: " 2", "1_0" and "\u0662" would run as 2, 10 and 2; a
    # flag is refused with the message of the same value in a config file
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["table", "--n", " 2", "--m", "1,1", "--cusps", "1", "--genus", "1"],
             "setting n must be an integer, got ' 2'"),
            (["table", "--n", "2", "--m", " 1,1", "--cusps", "1", "--genus", "1"],
             "setting m must be a comma-separated integer list, got ' 1,1'"),
            (["table", "--n", "2", "--m", "1,1_0", "--cusps", "1", "--genus", "1"],
             "setting m must be a comma-separated integer list, got '1,1_0'"),
            (["table", "--n", "2", "--m", "1,1", "--cusps", "1_0", "--genus", "1"],
             "setting cusps must be an integer, got '1_0'"),
            (["table", "--n", "2", "--m", "1,1", "--cusps", "1", "--genus", "\u0662"],
             "setting genus must be an integer, got '\u0662'"),
            (["verify", "--max-n", "2 ", "--max-m", "1"],
             "setting max_n must be an integer, got '2 '"),
            (["verify", "--max-n", "2", "--max-m", "+\u0661"],
             "setting max_m must be an integer, got '+\u0661'"),
        ],
        ids=["n-space", "m-space", "m-underscore", "cusps-underscore",
             "genus-arabic-indic", "max-n-space", "max-m-arabic-indic"],
    )
    def test_int_spellings_beyond_ascii_digits_refused(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    # argparse alone would read "-1,1" after --m as an option and refuse it
    # with its own usage message; every spelling must reach validate_spec
    @pytest.mark.parametrize("spelling", ["flag", "flag=value", "config"])
    def test_negative_weight_spellings_reach_the_domain_message(
        self, capsys, tmp_path, spelling
    ):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"m": [-1, 1]}))
        m = {"flag": ["--m", "-1,1"], "flag=value": ["--m=-1,1"],
             "config": ["--config", str(cfg)]}[spelling]
        code, out, err = run(
            capsys, "table", *m, "--n", "2", "--cusps", "1", "--genus", "1"
        )
        assert (code, out) == (1, "")
        assert err == "error: all weights must be >= 0, got m = (-1, 1)\n"

    def test_unknown_config_key_refused(self, capsys, tmp_path):
        # a misspelt bound must not fall back to the default sweep
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"max-n": 2, "max_m": 1}))
        code, out, err = run(capsys, "verify", "--config", str(cfg))
        assert (code, out) == (1, "")
        assert "'max-n'" in err

    def test_oracle_cap_key_refused(self, capsys, tmp_path):
        # the oracle cap is a constant, with no setting to change it
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"oracle_cap": 1}))
        code, out, err = run(capsys, "verify", "--config", str(cfg))
        assert (code, out) == (1, "")
        assert "config file names no setting 'oracle_cap'" in err

    # a config file names format and the verb's own settings only, as its
    # flags do; the last two hold a setting of another verb that was once
    # read and ignored (sheaf-matrix ran) or converted (verify refused 'x')
    @pytest.mark.parametrize(
        "verb, settings, key",
        [
            ("table", {"n": 2, "m": [1, 1], "cusps": 1, "genus": 1, "max_n": 2},
             "'max_n'"),
            ("eisenstein", {"n": 2, "m": [1, 1], "cusps": 1, "genus": 1, "max_m": 1},
             "'max_m'"),
            ("sheaf-matrix", {"n": 2, "m": [1, 1], "max_n": 2, "max_m": 1},
             "'max_m', 'max_n'"),
            ("verify", {"max_n": 1, "max_m": 0, "cusps": "x"}, "'cusps'"),
        ],
        ids=["table", "eisenstein", "sheaf-matrix", "verify"],
    )
    def test_setting_of_another_verb_refused(
        self, capsys, tmp_path, verb, settings, key
    ):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(settings))
        code, out, err = run(capsys, verb, "--config", str(cfg))
        assert (code, out, err) == (
            1, "", f"error: config file names no setting {key} of {verb}\n"
        )

    def test_each_verb_accepts_format_and_its_own_settings(
        self, capsys, tmp_path, monkeypatch
    ):
        # a null value leaves its setting unset, which a verb that requires
        # it refuses; only a key the verb does not accept is named foreign
        for verb, (_, *rest) in list(cli.VERBS.items()):
            monkeypatch.setitem(cli.VERBS, verb, (lambda fmt, **settings: 0, *rest))
        cfg = tmp_path / "run.json"
        accepted = {}
        for verb in cli.VERBS:
            for key in ("format", *cli.SETTINGS):
                cfg.write_text(json.dumps({key: None}))
                if "names no setting" not in run(capsys, verb, "--config", str(cfg))[2]:
                    accepted.setdefault(verb, []).append(key)
        assert accepted == {
            "table": ["format", "n", "m", "cusps", "genus"],
            "sheaf-matrix": ["format", "n", "m"],
            "eisenstein": ["format", "n", "m", "cusps", "genus"],
            "verify": ["format", "max_n", "max_m"],
        }

    # a config value may be spelled as its flag is
    VALUES = {"n": "2", "m": "1,1", "cusps": "1", "genus": "1"}
    REQUIRED = [
        (verb, name)
        for verb, (_, _, names, required) in cli.VERBS.items()
        if required
        for name in names
    ]

    @pytest.mark.parametrize("source", ["flags", "config"])
    @pytest.mark.parametrize("verb,name", REQUIRED)
    def test_missing_required_setting_refused(
        self, capsys, tmp_path, verb, name, source
    ):
        given = {key: self.VALUES[key] for key in cli.VERBS[verb][2] if key != name}
        argv = [verb]
        if source == "config":
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps(given))
            argv += ["--config", str(cfg)]
        else:
            for key, value in given.items():
                argv += [f"--{key}", value]
        expected = f"error: missing required setting --{name}\n"
        assert run(capsys, *argv) == (1, "", expected)

    @pytest.mark.parametrize(
        "argv,expected",
        [
            # a missing setting is refused before the domain check of n or m
            ("table --n 1 --m 1", "missing required setting --cusps"),
            ("eisenstein --n 2 --m 0,0 --cusps 1", "missing required setting --genus"),
            # a value is converted, and a bad one refused, before that
            ("table --n x --m 1,1", "setting n must be an integer, got 'x'"),
        ],
    )
    def test_refusal_order(self, capsys, argv, expected):
        assert run(capsys, *argv.split()) == (1, "", f"error: {expected}\n")

    def test_verify_requires_no_setting(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_verification", lambda bounds: CheckReport())
        doc = run_json(capsys, "verify", "--format", "json")
        assert doc["sweep"] == {"max_n": 4, "max_m": 3}

    def test_unreadable_config(self, capsys, tmp_path):
        code, _, err = run(capsys, "table", "--config", str(tmp_path / "absent.json"))
        assert code == 1
        assert "config" in err

    def test_invalid_json_config(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        code, _, err = run(capsys, "table", "--config", str(cfg))
        assert code == 1
        assert "not valid JSON" in err

    def test_non_object_config(self, capsys, tmp_path):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1,2]")
        code, _, err = run(capsys, "table", "--config", str(cfg))
        assert code == 1
        assert "JSON object" in err

    def test_non_integer_config_value(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"n": "two", "m": [1, 1], "cusps": 1, "genus": 1}))
        code, _, err = run(capsys, "table", "--config", str(cfg))
        assert code == 1
        assert "integer" in err

    # a fraction or a bool is refused, not truncated or read as 0 or 1, and a
    # bare number is not read as a weight list
    @pytest.mark.parametrize(
        "setting, value, message",
        [
            ("n", 2.9, "error: setting n must be an integer, got 2.9\n"),
            ("cusps", True, "error: setting cusps must be an integer, got True\n"),
            ("m", [1.7, 1], "error: setting m must be a comma-separated integer "
             "list, got [1.7, 1]\n"),
            ("m", [True, 1], "error: setting m must be a comma-separated integer "
             "list, got [True, 1]\n"),
            ("m", 11, "error: setting m must be a comma-separated integer "
             "list, got 11\n"),
            ("n", " 2", "error: setting n must be an integer, got ' 2'\n"),
            ("genus", "1_0", "error: setting genus must be an integer, got '1_0'\n"),
            ("m", ["1_0", 1], "error: setting m must be a comma-separated integer "
             "list, got ['1_0', 1]\n"),
            ("m", "\u0661,1", "error: setting m must be a comma-separated integer "
             "list, got '\u0661,1'\n"),
            ("n", "9" * 5000,
             f"error: setting n must be an integer, got '{'9' * 5000}'\n"),
        ],
        ids=["n-fraction", "cusps-bool", "m-fraction", "m-bool", "m-number",
             "n-space", "genus-underscore", "m-underscore", "m-arabic-indic",
             "n-past-int-digit-limit"],
    )
    def test_non_integer_json_number_refused(
        self, capsys, tmp_path, setting, value, message
    ):
        settings = {"n": 2, "m": [1, 1], "cusps": 1, "genus": 1, setting: value}
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(settings))
        code, out, err = run(capsys, "table", "--config", str(cfg))
        assert (code, out, err) == (1, "", message)

    def test_integer_strings_accepted(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps(
                {"n": "2", "m": ["1", 1], "cusps": "1", "genus": 1, "format": "json"}
            )
        )
        doc = run_json(capsys, "table", "--config", str(cfg))
        assert doc["spec"] == {"n": 2, "m": [1, 1]}


def count_calls(monkeypatch, *names):
    """Count the calls of the named ``tables`` functions per
    ``(n, m, genus, cusps)``, wrapping each in every package module that
    holds it, so a call counts whichever module its caller looks it up in."""
    counts = {}
    for name in names:
        original = getattr(tables, name)
        counts[name] = counter = Counter()

        def counting(spec, inv, *rest, _original=original, _counter=counter):
            _counter[spec.n, spec.m, inv.genus, inv.cusps] += 1
            return _original(spec, inv, *rest)

        for module_name, module in list(sys.modules.items()):
            if module_name.partition(".")[0] != "hilbert_hodge":
                continue
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    return counts


class TestOneAssemblyPerTable:
    """Each table's IH table and boundary data are built once, by
    ``mhs_table``, and reused by the checks and the document."""

    def test_verify(self, capsys, monkeypatch):
        counts = count_calls(monkeypatch, "ih_table", "eisenstein_data")
        code, _, err = run(capsys, "verify", "--max-n", "3", "--max-m", "1")
        assert code == 0, err
        pairs = [
            (spec.n, spec.m, inv.genus, inv.cusps)
            for spec, inv in iter_table_inputs(SweepBounds(max_n=3, max_m=1))
        ]
        assert counts["ih_table"] == Counter(pairs)
        assert counts["eisenstein_data"] == Counter(
            {pair: pair[0] for pair in pairs}
        )

    def test_table(self, capsys, monkeypatch):
        counts = count_calls(monkeypatch, "ih_table", "eisenstein_data")
        code, _, err = run(
            capsys, "table", "--n", "4", "--m", "2,2,2,2",
            "--cusps", "2", "--genus", "1", "--format", "json",
        )
        assert code == 0, err
        pair = (4, (2, 2, 2, 2), 1, 2)
        assert counts == {
            "ih_table": Counter({pair: 1}),
            "eisenstein_data": Counter({pair: 4}),
        }


class TestSlicedWrite:
    """``_emit`` writes exactly what ``dump_json`` or the renderer returns,
    in slices of at most 1 MiB; this JSON table takes two."""

    class Recorder:
        def __init__(self):
            self.writes = []

        def write(self, text):
            self.writes.append(text)
            return len(text)

    @pytest.mark.parametrize(
        "fmt, renderer",
        [
            ("json", "dump_json"),
            ("text", "render_table_text"),
            ("latex", "render_table_latex"),
        ],
    )
    def test_writes_join_to_the_rendered_output(self, monkeypatch, fmt, renderer):
        rendered = []
        original = getattr(cli, renderer)

        def recording(doc):
            rendered.append(original(doc))
            return rendered[-1]

        monkeypatch.setattr(cli, renderer, recording)
        stream = self.Recorder()
        monkeypatch.setattr(sys, "stdout", stream)
        argv = ["table", "--n", "8", "--m", ",".join(["1"] * 8), "--cusps", "2"]
        assert cli.main(argv + ["--genus", "1", "--format", fmt]) == 0
        assert len(rendered) == 1
        assert "".join(stream.writes) == rendered[0]
        assert max(map(len, stream.writes)) <= 2**20
        if fmt == "json":
            assert len(rendered[0].encode("utf-8")) == 1_270_273
            assert len(stream.writes) == 2


class TestExitCodes:
    def test_usage_error_is_one_not_two(self, capsys):
        assert cli.main(["bogus-verb"]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "{table,sheaf-matrix,eisenstein,verify}" in capsys.readouterr().out
        for verb in ("table", "sheaf-matrix", "eisenstein", "verify"):
            assert cli.main([verb, "--help"]) == 0, verb
            out = capsys.readouterr().out
            assert out.startswith(f"usage: hilbert-hodge {verb} [-h]"), verb
            assert "--format" in out, verb


def break_one_dictionary_entry(monkeypatch):
    """One more than the true dimension of ``H^0(Xbar, L1^3 L2^3)``, so the
    tables of n = 2, m = (1, 1) fail their ``table_assembly`` check."""
    original = tables.sheaf_cohomology_dim

    def off_by_one(label, spec, inv):
        hit = label[0] == 0 and label[1].exponents == (3, 3)
        return original(label, spec, inv) + hit

    monkeypatch.setattr(tables, "sheaf_cohomology_dim", off_by_one)


TABLE_ARGV = ("table", "--n", "3", "--m", "2,0,1", "--cusps", "3", "--genus", "2")
REFUSED_ARGV = ("verify", "--max-n", "18", "--max-m", "0")
FAILED_ARGV = ("verify", "--max-n", "2", "--max-m", "1")


class TestNoCycles:
    """``main`` may pause the cyclic collector only because no verb makes a
    reference cycle: run with the collector off, a verb leaves no cyclic
    garbage.  The parser is built once per process and kept, so no call
    leaves one behind either."""

    @staticmethod
    def cyclic_garbage(call) -> int:
        gc.collect()
        gc.disable()
        try:
            call()
            return gc.collect()
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "argv, code",
        [
            pytest.param(argv + ("--format", fmt), 0, id=f"{argv[0]}-{fmt}")
            for argv in (
                TABLE_ARGV,
                ("sheaf-matrix", "--n", "3", "--m", "2,0,1"),
                ("eisenstein", "--n", "3", "--m", "2,2,2", "--cusps", "1",
                 "--genus", "1"),
                ("verify", "--max-n", "3", "--max-m", "2"),
            )
            for fmt in ("text", "json")
        ]
        + [
            pytest.param(REFUSED_ARGV, 1, id="refused"),
            pytest.param(FAILED_ARGV, 2, id="failed-check"),
        ],
    )
    def test_verb_leaves_no_cyclic_garbage(self, capsys, monkeypatch, argv, code):
        if code == 2:
            break_one_dictionary_entry(monkeypatch)
        cli.build_parser()  # what building it leaves is left once per process
        codes = []
        leftover = self.cyclic_garbage(lambda: codes.append(cli.main(list(argv))))
        assert codes == [code], capsys.readouterr().err
        assert leftover == 0


class TestParserBuiltOnce:
    def test_import_builds_none_and_main_builds_one(self):
        # a fresh interpreter, so no earlier test has built the parser
        code = (
            "import contextlib, io\n"
            "from hilbert_hodge import cli\n"
            "assert cli.build_parser.cache_info().currsize == 0\n"
            "argv = ['sheaf-matrix', '--n', '1', '--m', '1']\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cli.main(list(argv)) for _ in range(3)]\n"
            "info = cli.build_parser.cache_info()\n"
            "assert codes == [0] * 3 and (info.misses, info.hits) == (1, 2), info\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(src)), timeout=120,
        )
        assert done.returncode == 0, done.stderr


class TestCollectorState:
    """``main`` pauses the cyclic collector while a verb runs and leaves it
    as it found it, however the verb ends."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collecting(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize(
        "argv, code",
        [(TABLE_ARGV, 0), (REFUSED_ARGV, 1), (FAILED_ARGV, 2)],
        ids=["ok", "refused", "failed-check"],
    )
    def test_exit_status(self, capsys, monkeypatch, collecting, argv, code):
        if code == 2:
            break_one_dictionary_entry(monkeypatch)
        assert cli.main(list(argv)) == code
        assert gc.isenabled() is collecting

    def test_unexpected_exception_propagates(self, monkeypatch, collecting):
        seen = []

        def broken(spec, inv):
            seen.append(gc.isenabled())
            raise RuntimeError("forced failure")

        monkeypatch.setattr(cli, "mhs_table", broken)
        with pytest.raises(RuntimeError, match="forced failure"):
            cli.main(list(TABLE_ARGV))
        assert seen == [False]
        assert gc.isenabled() is collecting


class TestTextAndLatexGolden:
    """Text and LaTeX renderings, and three JSON tables, pinned byte for byte."""

    CASES = [
        (
            ["table", "--n", "3", "--m", "2,0,1", "--cusps", "3", "--genus", "2"],
            "table_n3_m201_h3_g2",
        ),
        (["sheaf-matrix", "--n", "3", "--m", "2,0,1"], "sheaf_matrix_n3_m201"),
        (
            ["eisenstein", "--n", "3", "--m", "2,2,2", "--cusps", "1", "--genus", "1"],
            "eisenstein_n3_m222_h1_g1",
        ),
    ]

    # n = 4 with m = (2, 1, 1, 3) has Gr_F pieces that mix subset sizes, so
    # this file pins the order of the labels within a piece
    JSON_CASES = [
        (
            ["table", "--n", "4", "--m", "2,1,1,3", "--cusps", "2", "--genus", "1",
             "--format", "json"],
            "table_n4_m2113_h2_g1.json",
        ),
        # D = 0 (odd n, genus 1): H^3 is 0 with note "" when not parallel,
        # and Eisenstein only when parallel
        (
            ["table", "--n", "3", "--m", "2,0,1", "--cusps", "2", "--genus", "1",
             "--format", "json"],
            "table_n3_m201_h2_g1.json",
        ),
        (
            ["table", "--n", "3", "--m", "2,2,2", "--cusps", "4", "--genus", "1",
             "--format", "json"],
            "table_n3_m222_h4_g1.json",
        ),
    ]

    @pytest.mark.parametrize(
        "argv, golden",
        [
            (argv + ["--format", fmt], f"{stem}.{suffix}")
            for argv, stem in CASES
            for fmt, suffix in (("text", "txt"), ("latex", "tex"))
        ]
        + JSON_CASES,
    )
    def test_byte_identical(self, capsys, argv, golden):
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert out.encode("utf-8") == (GOLDEN / golden).read_bytes()
