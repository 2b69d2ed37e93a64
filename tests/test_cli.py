"""Command-line interface: reports, exit codes, determinism."""

import contextlib
import decimal
import enum
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homdual import cli
from homdual.errors import InputError

ROOT = Path(__file__).resolve().parent.parent
INSTANCES = ROOT / "instances"


def child_env(**extra):
    """The environment for a child `python -m homdual`: ROOT/src first on its path."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "-m", "homdual", *args],
        cwd=cwd, env=child_env(), capture_output=True, text=True,
    )


def report(proc):
    return json.loads(proc.stdout)


# ------------------------------------------------------------------ verify


def test_verify_algebra_passes():
    proc = run("verify", "instances/dual_numbers.json")
    assert proc.returncode == 0
    doc = report(proc)
    assert doc["status"] == "pass"
    assert doc["violations"] == []
    assert doc["command"][0] == "verify"


def test_verify_detects_broken_table(tmp_path):
    bad = json.loads((INSTANCES / "dual_numbers.json").read_text())
    bad["mul"][1][2][1] = "2"  # e0*x becomes 2x, so (e0*e0)*x != e0*(e0*x)
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(bad))
    proc = run("verify", str(p))
    assert proc.returncode == 1
    doc = report(proc)
    assert doc["status"] == "fail"
    assert doc["violations"]


def test_verify_all_instances():
    proc = run("verify", "--all", "instances")
    assert proc.returncode == 0
    doc = report(proc)
    assert doc["status"] == "pass"
    names = [entry["file"] for entry in doc["results"]]
    assert names == sorted(names)
    assert len(names) == len(list(INSTANCES.glob("*.json")))
    assert all(entry["status"] == "pass" for entry in doc["results"])


def test_verify_all_worst_exit(tmp_path):
    good = (INSTANCES / "dual_numbers.json").read_text()
    (tmp_path / "a_good.json").write_text(good)
    bad = json.loads(good)
    bad["twist"][1][1] = "2"  # alpha(x)*(e0*e0) no longer matches (x*e0)*alpha(e0)
    (tmp_path / "b_bad.json").write_text(json.dumps(bad))
    proc = run("verify", "--all", str(tmp_path))
    assert proc.returncode == 1


def test_verify_missing_file():
    proc = run("verify", "instances/no_such_file.json")
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    doc = report(proc)
    assert doc["status"] == "error"


def test_malformed_document_names_the_field(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"kind": "hom-algebra", "dim": 2, "twist": [["1", "0"], ["0", "1"]]}))
    proc = run("verify", str(p))
    assert proc.returncode == 2
    assert "mul" in proc.stderr


def test_verify_boundary_table_with_nulls():
    proc = run("verify", "instances/delannoy_boundary_8x8.json")
    assert proc.returncode == 0


@pytest.mark.parametrize("index", [["a", 0], [0, "b"], [1.5, 0], [True, 0], [None, 1]])
@pytest.mark.parametrize("command", ["verify", "seq-gen", "seq-oracle"])
def test_bipoly_index_must_be_an_integer(tmp_path, capsys, command, index):
    h = tmp_path / "h.json"
    h.write_text(json.dumps({"kind": "bipoly", "r": 1, "s": 1, "coeffs": [[*index, "1"]]}))
    argv = {
        "verify": ["verify", str(h)],
        "seq-gen": ["seq-gen", "--h", str(h), "--case", "1", "--q", "1",
                    "--boundary", "ones", "--M", "3", "--N", "3"],
        "seq-oracle": ["seq-oracle", "--table", str(INSTANCES / "ones_6x6.json"),
                       "--h", str(h), "--case", "1", "--q", "1", "--all"],
    }[command]
    assert cli.dispatch(argv) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "error"
    assert "field 'coeffs' indices must be integers" in doc["error"]


def test_tensor_twists_must_be_a_list(tmp_path):
    doc = json.loads((INSTANCES / "tensor_quotient_a2_n2.json").read_text())
    doc["params"]["twists"] = "12"
    p = tmp_path / "q.json"
    p.write_text(json.dumps(doc))
    proc = run("verify", str(p))
    assert proc.returncode == 2
    assert "field 'twists' must be a list" in report(proc)["error"]


# instance, path of the edited entry, its new value, the field the error must name
STRUCTURE_FAULTS = {
    "mul-string-index": ("dual_numbers.json", ("mul", 0, 0), "a", "field 'mul' indices"),
    "mul-half-index": ("dual_numbers.json", ("mul", 1, 1), 0.5, "field 'mul' indices"),
    "mul-bool-index": ("dual_numbers.json", ("mul", 2, 0), True, "field 'mul' indices"),
    "mul-bool-coefficient": (
        "dual_numbers.json", ("mul", 0, 2, 0), True, "field 'mul' entry (0, 0)"),
    "twist-bool": ("dual_numbers.json", ("twist", 1, 1), True, "field 'twist'"),
    "comul-string-index": (
        "divided_power_coalgebra.json", ("comul", 1, 0), "a", "field 'comul' indices"),
    "comul-half-index": (
        "divided_power_coalgebra.json", ("comul", 2, 1, 0, 1), 0.5, "field 'comul' indices"),
    "comul-list-index": (
        "divided_power_coalgebra.json", ("comul", 2, 1, 0, 0), [0], "field 'comul' indices"),
    "comul-list-source": (
        "divided_power_coalgebra.json", ("comul", 0, 0), [0], "field 'comul' indices"),
    "action-string-index": (
        "regular_module_dual_numbers.json", ("action", 1, 1), "a", "field 'action' indices"),
    "action-half-index": (
        "regular_module_dual_numbers.json", ("action", 0, 0), 0.5, "field 'action' indices"),
    "coaction-string-index": (
        "comodule_dual_numbers.json", ("coaction", 1, 1, 0, 1), "a", "field 'coaction' indices"),
    "coaction-half-index": (
        "comodule_dual_numbers.json", ("coaction", 1, 0), 0.5, "field 'coaction' indices"),
    "quotient-k-bool": ("poly_quotient_N3_k2.json", ("params", "k"), True, "field 'k'"),
    "quotient-twists-bool": (
        "tensor_quotient_a2_n2.json", ("params", "twists", 0), True, "field 'twists'"),
}


@pytest.mark.parametrize("fault", sorted(STRUCTURE_FAULTS))
def test_structure_indices_and_scalars_are_checked(tmp_path, capsys, fault):
    name, path, value, field = STRUCTURE_FAULTS[fault]
    doc = json.loads((INSTANCES / name).read_text())
    entry = doc
    for key in path[:-1]:
        entry = entry[key]
    entry[path[-1]] = value
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    assert cli.dispatch(["verify", str(p)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "error"
    assert field in out["error"]

# A string where a document needs a list used to be read one character per
# entry: these documents loaded as structures, and verify answered on them.
STRING_ROWS = {
    "twist": ("dual_numbers.json", ("twist",), ["10", "01"], "field 'twist'"),
    "mul-vector": ("dual_numbers.json", ("mul", 0, 2), "10", "field 'mul' entry (0, 0)"),
    "mtwist": ("regular_module_dual_numbers.json", ("mtwist",), ["10", "01"], "field 'mtwist'"),
    "action-vector": (
        "regular_module_dual_numbers.json", ("action", 1, 2), "01", "field 'action' entry (0, 1)"),
    "comodule-mtwist": ("comodule_dual_numbers.json", ("mtwist",), ["10", "01"], "field 'mtwist'"),
    "coalgebra-twist": (
        "comodule_dual_numbers.json", ("coalgebra", "twist"), ["10", "01"], "field 'twist'"),
    "morphism-matrix": (
        "square_morphism_N6_k1.json", ("matrix",), ["1000000"] + ["0" * 7] * 6, "field 'matrix'"),
}


@pytest.mark.parametrize("fault", sorted(STRING_ROWS))
def test_a_string_where_a_list_belongs_exits_2(tmp_path, capsys, fault):
    name, path, value, field = STRING_ROWS[fault]
    doc = json.loads((INSTANCES / name).read_text())
    entry = doc
    for key in path[:-1]:
        entry = entry[key]
    entry[path[-1]] = value
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    assert cli.dispatch(["verify", str(p)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "error" and field in out["error"]


def test_string_table_rows_exit_2(tmp_path, capsys):
    table = tmp_path / "t.json"
    table.write_text(json.dumps({"kind": "bisequence", "M": 1, "N": 1, "entries": ["12", "34"]}))
    boundary = tmp_path / "b.json"
    boundary.write_text(json.dumps({"kind": "bisequence", "M": 2, "N": 2,
                                    "entries": ["111", [1, None, None], [1, None, None]]}))
    for argv in (
        ["verify", str(table)],
        ["seq-minpoly", "--table", str(table), "--rmax", "0", "--smax", "0"],
        ["seq-gen", "--h", str(INSTANCES / "delannoy.json"), "--case", "1", "--q", "1",
         "--boundary", str(boundary), "--M", "2", "--N", "2"],
    ):
        assert cli.dispatch(argv) == 2, argv
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "error" and "field 'entries'" in out["error"], argv


def _repeat_first(field):
    def edit(doc):
        doc[field].append(doc[field][0])
    return edit


def _repeat_cell(field, source, at):
    def edit(doc):
        doc[field].append([source, [doc[field][source][1][at]]])
    return edit


# A repeated structure constant used to keep the last value, and verify passed on it.
REPEATS = {
    "mul": ("dual_numbers.json", _repeat_first("mul"), "field 'mul' repeats entry (0, 0)"),
    "action": ("regular_module_dual_numbers.json", _repeat_first("action"),
               "field 'action' repeats entry (0, 0)"),
    "comul-other-list": ("divided_power_coalgebra.json", _repeat_cell("comul", 2, 1),
                         "field 'comul' repeats cell (2, 1, 1)"),
    "comul-same-list": ("divided_power_coalgebra.json",
                        lambda doc: doc["comul"][1][1].append([1, 0, "2"]),
                        "field 'comul' repeats cell (1, 1, 0)"),
    "coaction": ("comodule_dual_numbers.json", _repeat_cell("coaction", 1, 0),
                 "field 'coaction' repeats cell (1, 0, 1)"),
}


@pytest.mark.parametrize("fault", sorted(REPEATS))
def test_a_repeated_structure_constant_exits_2(tmp_path, capsys, fault):
    name, edit, message = REPEATS[fault]
    doc = json.loads((INSTANCES / name).read_text())
    edit(doc)
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    assert cli.dispatch(["verify", str(p)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "error" and message in out["error"]


def test_a_repeated_constant_with_another_value_exits_2(tmp_path, capsys):
    p = tmp_path / "a.json"
    p.write_text(json.dumps({"kind": "hom-algebra", "dim": 1, "twist": [["1"]],
                             "mul": [[0, 0, ["1"]], [0, 0, ["2"]]]}))
    assert cli.dispatch(["verify", str(p)]) == 2
    assert "field 'mul' repeats entry (0, 0)" in json.loads(capsys.readouterr().out)["error"]


# ----------------------------------------------------------------- dualize


def test_dualize_round_trip(tmp_path):
    proc = run("dualize", "instances/poly_quotient_N5_k2.json")
    assert proc.returncode == 0
    doc = report(proc)
    assert doc["result"]["kind"] == "hom-coalgebra"
    p = tmp_path / "dual.json"
    p.write_text(json.dumps(doc["result"]))
    check = run("verify", str(p))
    assert check.returncode == 0


def test_dualize_module_gives_comodule(tmp_path):
    proc = run("dualize", "instances/regular_module_dual_numbers.json")
    assert proc.returncode == 0
    doc = report(proc)
    assert doc["result"]["kind"] == "hom-comodule"
    p = tmp_path / "dual.json"
    p.write_text(json.dumps(doc["result"]))
    assert run("verify", str(p)).returncode == 0


# ----------------------------------------------------------- sweedler-delta


def test_sweedler_delta_twisted():
    proc = run("sweedler-delta", "--quotient", "instances/poly_quotient_N3_k2.json",
               "--functional", "0,0,1,0")
    assert proc.returncode == 0
    doc = report(proc)
    assert doc["result"]["terms"] == [[0, 2, "4"], [1, 1, "4"], [2, 0, "4"]]
    assert doc["result"]["labels"][2] == "x^2"


# ------------------------------------------------------------------ expand


def test_expand_normal_order():
    proc = run("expand", "--op", "normal-order", "--word", "yxyx", "--q", "2")
    assert report(proc)["result"]["poly"] == "8*x^2*y^2"


def test_expand_qbinom_formula():
    proc = run("expand", "--op", "qbinom-formula", "--n", "2", "--q", "2", "--k", "3")
    assert report(proc)["result"]["poly"] == "9*x^2 + 27*x*y + 9*y^2"


def test_expand_hom_power_matches_formula():
    a = run("expand", "--op", "hom-power", "--n", "3", "--q", "5/3", "--k", "2")
    b = run("expand", "--op", "qbinom-formula", "--n", "3", "--q", "5/3", "--k", "2")
    assert report(a)["result"]["poly"] == report(b)["result"]["poly"]


def test_expand_prints_coefficients_past_the_int_digit_limit():
    # the x^200 coefficient is k^(n(n+1)/2 - 1) = 3^20099, about 9,600 digits
    proc = run("expand", "--op", "hom-power", "--n", "200", "--q", "2", "--k", "3")
    assert proc.returncode == 0, proc.stderr
    doc = report(proc)
    assert doc["status"] == "pass"
    coeffs = {(m, n): c for m, n, c in doc["result"]["terms"]}
    assert len(coeffs) == 201
    assert int(decimal.Decimal(coeffs[(200, 0)])) == 3 ** 20099


def test_overlong_literal_is_an_input_error(tmp_path):
    doc = json.loads((INSTANCES / "dual_numbers.json").read_text())
    doc["twist"][0][0] = "1" * 5000
    p = tmp_path / "long.json"
    p.write_text(json.dumps(doc))
    proc = run("verify", str(p))
    assert proc.returncode == 2
    assert "twist" in proc.stderr
    assert report(proc)["status"] == "error"
    p.write_text('{"kind": "hom-algebra", "dim": %s}' % ("1" * 5000))
    proc = run("verify", str(p))
    assert proc.returncode == 2
    assert report(proc)["status"] == "error"


def test_expand_rejects_bad_word():
    proc = run("expand", "--op", "normal-order", "--word", "xzy", "--q", "2")
    assert proc.returncode == 2


def test_malformed_table_shapes_exit_2_naming_the_field(tmp_path, capsys):
    # a number where a row, or the whole grid, should be: exit 2, not an internal error
    boundary = tmp_path / "b.json"
    boundary.write_text(json.dumps({"kind": "bisequence", "M": 1, "N": 0, "entries": [1, 2]}))
    bare = tmp_path / "e.json"
    bare.write_text(json.dumps({"kind": "bisequence", "M": 1, "N": 0, "entries": 5}))
    for argv in (
        ["seq-gen", "--h", str(INSTANCES / "delannoy.json"), "--case", "1", "--q", "1",
         "--boundary", str(boundary), "--M", "2", "--N", "2"],
        ["verify", str(bare)],
        ["verify", str(boundary)],
    ):
        assert cli.dispatch(argv) == 2, argv
        out, err = capsys.readouterr()
        assert json.loads(out)["status"] == "error"
        assert "field 'entries'" in json.loads(out)["error"] and "field 'entries'" in err


# ----------------------------------------------------------------- seq-gen


def test_seq_gen_ones_boundary():
    proc = run("seq-gen", "--h", "instances/delannoy.json", "--case", "1",
               "--q", "1", "--boundary", "ones", "--M", "3", "--N", "3")
    assert proc.returncode == 0
    doc = report(proc)
    assert doc["result"]["entries"][3][3] == "63"


def test_seq_gen_boundary_file_reproduces_table():
    proc = run("seq-gen", "--h", "instances/delannoy.json", "--case", "1",
               "--q", "1", "--boundary", "instances/delannoy_boundary_8x8.json",
               "--M", "7", "--N", "7")
    assert proc.returncode == 0
    got = report(proc)["result"]
    want = json.loads((INSTANCES / "delannoy_table_8x8.json").read_text())
    assert got["entries"] == want["entries"]


# -------------------------------------------------------------- seq-oracle


def test_seq_oracle_all_passes():
    proc = run("seq-oracle", "--table", "instances/delannoy_table_8x8.json",
               "--h", "instances/delannoy.json", "--case", "1", "--q", "1",
               "--k", "1", "--all")
    assert proc.returncode == 0
    doc = report(proc)
    assert doc["status"] == "pass"
    assert len(doc["result"]["residuals"]) == 49
    assert all(r == "0" for _, _, r in doc["result"]["residuals"])


def test_seq_oracle_flags_twisted_mismatch():
    proc = run("seq-oracle", "--table", "instances/delannoy_table_8x8.json",
               "--h", "instances/delannoy.json", "--case", "1", "--q", "1",
               "--k", "2", "--at", "1,1")
    assert proc.returncode == 1
    doc = report(proc)
    assert doc["status"] == "fail"
    assert doc["violations"] == [{"at": [1, 1], "residual": "39"}]


@pytest.mark.parametrize("flag", ["--q=0", "--k=0"])
def test_seq_oracle_rejects_a_zero_parameter_without_interior_cells(tmp_path, capsys, flag):
    table = tmp_path / "t.json"
    table.write_text(json.dumps({"kind": "bisequence", "M": 0, "N": 3,
                                 "entries": [["1", "2", "3", "4"]]}))
    argv = ["seq-oracle", "--table", str(table), "--h", str(INSTANCES / "delannoy.json"),
            "--case", "1", "--q=1", flag, "--all"]
    assert cli.dispatch(argv) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "error"
    assert doc["error"] == "%s must be nonzero" % flag[2]


def test_seq_oracle_needs_exactly_one_site():
    proc = run("seq-oracle", "--table", "instances/delannoy_table_8x8.json",
               "--h", "instances/delannoy.json", "--case", "1", "--q", "1", "--k", "1")
    assert proc.returncode == 2


# ------------------------------------------------------------- seq-minpoly


def test_seq_minpoly_recovers_delannoy():
    proc = run("seq-minpoly", "--table", "instances/delannoy_table_8x8.json",
               "--rmax", "3", "--smax", "3")
    assert proc.returncode == 0
    doc = report(proc)
    assert doc["result"]["found"] is True
    assert [doc["result"]["r"], doc["result"]["s"]] == [1, 1]
    assert doc["result"]["bipoly"]["coeffs"] == [[0, 1, "1"], [1, 0, "1"], [1, 1, "1"]]


def test_seq_minpoly_rejects_negative_degree_bounds():
    for rmax, smax in (("-1", "1"), ("1", "-1"), ("-3", "5")):
        proc = run("seq-minpoly", "--table", "instances/ones_6x6.json",
                   "--rmax=" + rmax, "--smax=" + smax)
        assert proc.returncode == 2
        doc = report(proc)
        assert doc["status"] == "error"
        assert "nonnegative" in doc["error"]


# ---------------------------------------------------------------- convolve


def test_convolve_doubles_columns():
    proc = run("convolve", "--f", "instances/ones_12x6.json",
               "--g", "instances/ones_6x6.json", "--q", "1", "--M", "5", "--N", "5")
    assert proc.returncode == 0
    entries = report(proc)["result"]["entries"]
    for row in entries:
        assert row == ["1", "2", "4", "8", "16", "32"]


# ------------------------------------------------------------- determinism


def test_reports_are_byte_identical_across_runs():
    calls = [
        ("verify", "instances/poly_quotient_N5_k2.json"),
        ("seq-gen", "--h", "instances/delannoy.json", "--case", "1", "--q", "1",
         "--boundary", "ones", "--M", "3", "--N", "3"),
        ("seq-oracle", "--table", "instances/delannoy_table_8x8.json",
         "--h", "instances/delannoy.json", "--case", "1", "--q", "1",
         "--k", "1", "--all"),
        ("expand", "--op", "qbinom-formula", "--n", "2", "--q", "2", "--k", "3"),
    ]
    for call in calls:
        first = run(*call)
        second = run(*call)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.endswith("\n")


# ------------------------------------------------------------ parser reuse


ORACLE = ["seq-oracle", "--table", str(INSTANCES / "delannoy_table_8x8.json"),
          "--h", str(INSTANCES / "delannoy.json"), "--q", "1", "--all"]


def test_cli_start_imports_no_dataclass_machinery():
    # dataclasses imports inspect, ast and dis: close to 1 MB and 5 ms on every CLI start
    code = ("import sys; sys.path.insert(0, %r); import homdual.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))" % str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_dispatch_builds_the_parser_once(monkeypatch, capsys):
    built = []

    def counting_build():
        built.append(None)
        return build()

    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counting_build)
    monkeypatch.setattr(cli, "_PARSER", None)
    for _ in range(3):
        assert cli.dispatch(ORACLE + ["--case", "1"]) == 0
        assert cli.dispatch(ORACLE + ["--case", "7"]) == 2
        assert cli.dispatch(["expand", "--op", "hom-power", "--n", "3", "--q", "2"]) == 0
        assert cli.dispatch(["verify"]) == 2
    assert len(built) == 1


def test_reused_parser_answers_like_a_fresh_process(monkeypatch, capsys):
    # an argparse error, help, then a valid run: each as if first in the process
    calls = [ORACLE + ["--case", "7"], ["--help"], ORACLE + ["--case", "1"]]
    env = child_env(COLUMNS="80")
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(cli, "_PARSER", None)
    codes = []
    for argv in calls:
        fresh = subprocess.run([sys.executable, "-m", "homdual", *argv], cwd=ROOT,
                               env=env, capture_output=True, text=True)
        code = cli.dispatch(argv)
        out, err = capsys.readouterr()
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        codes.append(code)
    assert codes == [2, 0, 0]


def test_unexpected_exception_exits_3_with_one_document(monkeypatch, capsys):
    def broken(args, argv):
        raise ZeroDivisionError("boom")

    def bad_input(args, argv):
        raise InputError("field 'n' is bad")

    argv = ["expand", "--op", "hom-power", "--n", "3", "--q", "2"]
    monkeypatch.setattr(cli, "cmd_expand", broken)
    monkeypatch.setattr(cli, "_PARSER", None)  # the next parser binds the patched handler
    assert cli.dispatch(argv) == 3
    out, err = capsys.readouterr()
    want = {"command": argv, "status": "internal-error", "error": "ZeroDivisionError: boom"}
    assert out == json.dumps(want, sort_keys=True, indent=2) + "\n"
    assert err.startswith("Traceback") and err.endswith("ZeroDivisionError: boom\n")
    # an input error raised by a handler still exits 2
    monkeypatch.setattr(cli, "cmd_expand", bad_input)
    monkeypatch.setattr(cli, "_PARSER", None)
    assert cli.dispatch(argv) == 2
    assert json.loads(capsys.readouterr().out)["status"] == "error"


# ------------------------------------------------------------- report writer


class Small(enum.IntEnum):
    TWO = 2


def _written(value):
    out = []
    cli._write_json(value, "\n", out)
    return "".join(out)


_SCALARS = (st.none() | st.booleans() | st.integers() | st.text()
            | st.sampled_from([Small.TWO, 10 ** 4000, -(7 ** 4700)]))
_TREES = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_TREES)
def test_report_writer_matches_json_dumps(tree):
    # past the int->str digit limit both raise the same ValueError
    try:
        want = json.dumps(tree, sort_keys=True, indent=2)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            _written(tree)
        assert str(got.value) == str(exc)
    else:
        assert _written(tree) == want


def test_report_writer_refuses_other_types():
    for value in (1.5, Fraction(1, 2), {1, 2}, b"x", object(), [0, [1.0]], {"a": {"b": 0.5}}):
        with pytest.raises(TypeError):
            _written(value)
    with pytest.raises(TypeError):
        _written({1: "x"})


# ------------------------------------------------------------ routed argv

ROUTED = [
    [], ["-h"], ["--help"], ["bogus"], ["-h", "verify"], ["--", "verify", "x"], ["--q", "1", "expand"],
    ["verify"], ["verify", "a.json"], ["verify", "a.json", "b.json"], ["verify", "--all", "d"],
    ["verify", "-h"], ["dualize", "x.json", "--extra", "1"], ["sweedler-delta", "--quotient", "q"],
    ["expand", "--op", "hom-power", "--n", "2", "--q", "2"],
    ["expand", "--op", "hom-power", "--n", "2", "--q", "2", "--k", "-2/3"],
    ["expand", "--op", "hom-power", "--n", "2", "--q", "-1/2"],
    ["expand", "--op", "bogus", "--q", "2"], ["expand", "--op", "hom-power", "--n", "x", "--q", "2"],
    ["expand", "--op", "hom-power", "--n", "2", "--q", "2", "--bogus", "a"],
    ["expand", "--op", "hom-power", "--n", "2", "--q", "2", "--", "x"],
    ["expand", "--o", "hom-power", "--n", "2", "--q=+1"], ["expand", "--he"],
    ["expand", "--op", "normal-order", "--word", "yx", "--q", "2", "-h"],
    ["seq-oracle"] + ["--table", "t", "--h", "h", "--case", "2", "--q", "5/3", "--at", "3,4"],
    ["seq-oracle", "--table", "t", "--h", "h", "--case", "7", "--q", "1", "--all"],
    ["seq-oracle", "--table", "t", "--h", "h", "--case", "1", "--q", "1", "--a", "1,1"],
    ["seq-gen", "--h", "h", "--case", "3", "--q", "1", "--boundary", "ones", "--M", "4", "--N", "x"],
    ["seq-gen", "--h"], ["seq-minpoly", "--table", "t", "--rmax", "2", "--smax", "2"],
    ["convolve", "--f=a", "--g=b", "--q=1", "--M=1", "--N=1", "--M=2", "extra"],
]


def _parsed(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


def test_routed_argv_parses_like_the_top_parser(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
    for argv in ROUTED:
        assert _parsed(cli._parse_args, argv) == _parsed(cli._PARSER.parse_args, argv), argv
