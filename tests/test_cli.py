import io
import json
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coregular.catalog import filiform, heisenberg, sl2
from coregular.cli import EXIT_BROKEN_PIPE, main
from coregular.invariants import minimal_generators
from coregular.kernel import BUDGET_EXCEEDED, UNKNOWN
from coregular.lie import LieAlgebra
from coregular.report import AnalysisOptions, analyze
from test_invariants import HAND_MADE


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_catalog_lists_builtins(capsys):
    code, out, _ = run_cli(["catalog"], capsys)
    assert code == 0
    for key in ("L:n", "panyushev", "example32", "heisenberg", "sl2",
                "abelian:n"):
        assert key in out
    assert "standard filiform" in out


class ClosedPipe(io.StringIO):
    """Standard output whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("args", [["catalog"],
                                  ["analyze", "--catalog", "L:4"]])
def test_closed_pipe_exits_141_without_a_traceback(monkeypatch, capsys,
                                                   args):
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(args) == EXIT_BROKEN_PIPE == 141
    # the rest of the output, and the flush at exit, go nowhere
    print("more output")
    sys.stdout.close()
    assert capsys.readouterr().err == ""


def test_analyze_filiform5(capsys, tmp_path):
    json_path = tmp_path / "report.json"
    code, out, _ = run_cli(["analyze", "--catalog", "L:5",
                            "--json", str(json_path)], capsys)
    assert code == 0
    data = json.loads(json_path.read_text())
    assert data["schema_version"] == 1
    assert data["index"] == 3
    assert data["d"] == 0
    assert data["singular_codim"] == "3"
    criteria = {v["criterion"]: v["status"] for v in data["criteria"]}
    assert criteria["kernel-freeness"] == "fails"
    assert criteria["index-center-bound"] == "fails"
    # consistency invariants of the report
    assert data["c"] == (data["dim"] + data["index"]) // 2
    assert data["d"] % 2 == 0


def test_analyze_abelian_all_hold(capsys, tmp_path):
    json_path = tmp_path / "a.json"
    code, out, _ = run_cli(["analyze", "--catalog", "abelian:4",
                            "--json", str(json_path)], capsys)
    assert code == 0
    data = json.loads(json_path.read_text())
    assert data["index"] == 4 and data["d"] == 0
    assert data["singular_codim"] == "empty"
    for v in data["criteria"]:
        if v["criterion"] != "singular-locus-purity":
            assert v["status"] == "holds", v["criterion"]


def test_analyze_filiform6_with_degree_six(capsys, tmp_path):
    json_path = tmp_path / "l6.json"
    code, out, _ = run_cli(["analyze", "--catalog", "L:6", "--max-degree", "6",
                            "--json", str(json_path)], capsys)
    assert code == 0
    data = json.loads(json_path.read_text())
    degrees = sorted(e["degree"] for e in data["invariant_generators"])
    assert degrees == [1, 2, 2, 3, 3]
    assert len(data["relations"]) == 1
    assert data["gorenstein"]["value"] == 5
    assert "5" in out and "(1/2)(6+4-0)" in out


def test_report_determinism(capsys, tmp_path):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    run_cli(["analyze", "--catalog", "panyushev", "--json", str(p1)], capsys)
    run_cli(["analyze", "--catalog", "panyushev", "--json", str(p2)], capsys)
    assert p1.read_bytes() == p2.read_bytes()


def test_file_input_round_trip(capsys, tmp_path):
    g = heisenberg([[0, 1], [0, 0]])
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(g.to_json_dict()))
    code, out, _ = run_cli(["invariants", "--file", str(path),
                            "--max-degree", "2"], capsys)
    assert code == 0
    assert "deg 1: c" in out

    reloaded = LieAlgebra.from_json(path.read_text())
    assert reloaded == g


def test_irrational_weights_are_reported_end_to_end(capsys, tmp_path):
    # ad(v1) rotates v2 and v3 (eigenvalues +-i), so in every degree it
    # has an eigenvalue that is not rational
    g = HAND_MADE[1]
    assert g.label == "rotation"
    assert minimal_generators(g, 3)[0].irrational_degrees == (1, 2, 3)
    report = analyze(g, AnalysisOptions(max_degree=3))
    assert report.to_json_dict()["gates"]["irrational_weight_degrees"] == \
        [1, 2, 3]
    assert any("irrational weights may exist in degrees [1, 2, 3]" in note
               for note in report.notes)
    path = tmp_path / "rotation.json"
    path.write_text(json.dumps(g.to_json_dict()))
    code, out, _ = run_cli(["invariants", "--file", str(path),
                            "--max-degree", "3"], capsys)
    assert code == 0
    assert ("(irrational weights possible in degrees [1, 2, 3], "
            "not reported)") in out


def test_a_groebner_capped_codimension_is_unknown():
    # the Pfaffian ideal of L(11) exceeds the Groebner budget
    report = analyze(filiform(11), AnalysisOptions(max_degree=1))
    data = report.to_json_dict()
    assert data["singular_codim"] == "unknown"
    assert data["gates"]["codim_known"] is False
    verdict = report.criterion("singular-codim-bound")
    assert (verdict.status, verdict.certainty) == (UNKNOWN, BUDGET_EXCEEDED)
    assert "non-regular locus codimension = unknown" in report.to_text()


def test_catalog_round_trip_through_files(tmp_path, capsys):
    for entry in ("L:4", "panyushev", "sl2", "example32"):
        from coregular.catalog import build_catalog_algebra
        g = build_catalog_algebra(entry)
        path = tmp_path / "g.json"
        path.write_text(json.dumps(g.to_json_dict()))
        assert LieAlgebra.from_json(path.read_text()) == g


def test_kernel_subcommand(capsys):
    code, out, _ = run_cli(["kernel", "--catalog", "L:5",
                            "--max-degree", "2"], capsys)
    assert code == 0
    assert "4 minimal generators" in out
    assert "freeness: fails" in out
    assert "witness" in out


def test_reduce_example32(capsys):
    code, out, _ = run_cli(["reduce", "--catalog", "example32"], capsys)
    assert code == 0
    assert "chosen branch: k-branch" in out
    assert "[p, h1] = h2" in out


def test_reduce_nothing_to_do(capsys):
    code, out, _ = run_cli(["reduce", "--catalog", "L:4"], capsys)
    assert code == 0
    assert "nothing to reduce" in out


def test_reduce_weight_selector(capsys):
    code, out, _ = run_cli(["reduce", "--catalog", "panyushev",
                            "--weight-of", "v2"], capsys)
    assert code == 0
    assert "c-value: 3 -> 3" in out


def test_reduce_names_the_generators_a_wrong_selector_could_mean(capsys):
    code, out, err = run_cli(["reduce", "--catalog", "panyushev",
                              "--weight-of", "v9"], capsys)
    assert code == 2 and out == ""
    assert err == ("error: 'v9' is not a proper semi-invariant generator "
                   "(available: v4, v2, v3)\n")


def test_no_generator_up_to_the_bound_prints_none(capsys):
    text = analyze(sl2(), AnalysisOptions(max_degree=1)).to_text()
    assert "semi-invariant generators up to degree 1:\n  none\n" in text
    code, out, _ = run_cli(["invariants", "--catalog", "sl2",
                            "--max-degree", "1"], capsys)
    assert code == 0
    assert out == "semi-invariant generators of sl2 up to degree 1:\n  none\n"


def test_a_relation_search_past_its_cap_is_reported_in_the_text():
    # the 16 generators of L(7) have too many formal monomials
    lines = analyze(filiform(7)).to_text().splitlines()
    assert "relations: budget exceeded" in lines


@pytest.mark.parametrize("value", ["0", "-1"])
def test_reduce_rejects_a_compare_degree_below_one(capsys, value):
    code, out, err = run_cli(["reduce", "--catalog", "example32",
                              "--compare-degree", value], capsys)
    assert code == 2
    assert "--compare-degree must be at least 1" in err
    assert out == ""


@pytest.mark.parametrize("command", ["invariants", "kernel", "reduce"])
def test_only_analyze_takes_a_seed(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--catalog", "L:4", "--seed", "7"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_analyze_records_its_seed(capsys, tmp_path):
    json_path = tmp_path / "report.json"
    code, _, _ = run_cli(["analyze", "--catalog", "L:4", "--seed", "7",
                          "--json", str(json_path)], capsys)
    assert code == 0
    assert json.loads(json_path.read_text())["settings"]["seed"] == 7


def test_math_failure_is_exit_zero_but_bad_input_is_not(capsys, tmp_path):
    code, _, _ = run_cli(["analyze", "--catalog", "L:5"], capsys)
    assert code == 0  # criteria fail mathematically, still a result

    code, _, err = run_cli(["analyze", "--catalog", "unknown:3"], capsys)
    assert code == 2 and "unknown" in err

    # an entry without a parameter never ignores one
    for spec in ("sl2:7", "nonabelian2:5", "panyushev:x", "example32:1"):
        code, out, err = run_cli(["analyze", "--catalog", spec], capsys)
        name = spec.partition(":")[0]
        assert code == 2 and f"'{name}' takes no parameter" in err, spec
        assert out == ""

    # a parameter out of range, missing or not plain decimal digits
    for spec, message in (("L:2", "needs n >= 3"),
                          ("L", "needs an integer parameter"),
                          ("L:x", "bad integer parameter 'x'"),
                          ("L:+5", "bad integer parameter '+5'"),
                          ("L: 5", "bad integer parameter ' 5'"),
                          ("L:0_5", "bad integer parameter '0_5'"),
                          ("L:\u0665", "bad integer parameter '\u0665'"),
                          ("abelian:0", "needs n >= 1")):
        code, out, err = run_cli(["analyze", "--catalog", spec], capsys)
        assert code == 2 and message in err, spec
        assert len(err.strip().splitlines()) == 1 and out == ""

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "name": "broken", "basis": ["v1", "v2", "v3"],
        "brackets": [{"i": 1, "j": 2, "coeffs": {"3": "1"}},
                     {"i": 2, "j": 3, "coeffs": {"1": "1"}},
                     {"i": 1, "j": 3, "coeffs": {"1": "1"}}]}))
    code, _, err = run_cli(["analyze", "--file", str(bad)], capsys)
    assert code == 2 and "Jacobi" in err

    code, _, err = run_cli(["analyze", "--file", str(tmp_path / "nope.json")],
                           capsys)
    assert code == 2

    code, _, err = run_cli(["analyze", "--catalog", "L:4",
                            "--file", str(bad)], capsys)
    assert code == 2  # choose exactly one input source


def test_jacobi_residual_is_printed_in_the_report_text_form(capsys,
                                                             tmp_path):
    # [a, b] = b, [a, c] = a/2, [b, c] = c breaks Jacobi by a fraction
    bad = tmp_path / "half.json"
    bad.write_text(json.dumps({
        "name": "half", "basis": ["a", "b", "c"],
        "brackets": [{"i": 1, "j": 2, "coeffs": {"2": "1"}},
                     {"i": 1, "j": 3, "coeffs": {"1": "1/2"}},
                     {"i": 2, "j": 3, "coeffs": {"3": "1"}}]}))
    code, out, err = run_cli(["analyze", "--file", str(bad)], capsys)
    assert code == 2 and out == ""
    assert "residual [1/2, 1/2, -1]" in err
    assert "Fraction(" not in err


def test_console_script_entry_point():
    result = subprocess.run([sys.executable, "-m", "coregular.cli"],
                            capture_output=True, text=True)
    # argparse exits 2 when no subcommand is given
    assert result.returncode == 2


def test_heisenberg_inline_parameter(capsys):
    code, out, _ = run_cli(["invariants", "--catalog", "heisenberg:0,1;0,0",
                            "--max-degree", "2"], capsys)
    assert code == 0 and "deg 1: c" in out

    code, out, _ = run_cli(["invariants", "--catalog", "heisenberg:1,0;0,1",
                            "--max-degree", "2"], capsys)
    assert code == 0 and "deg 2:" in out

    code, _, err = run_cli(["analyze", "--catalog", "heisenberg:1,2;3"],
                           capsys)
    assert code == 2 and "square" in err


@pytest.mark.parametrize("description", [
    {"basis": ["v1", "v2", "v3"],
     "brackets": [{"i": 1, "j": 2, "coeffs": {"3": "x"}}]},
    {"basis": ["v1", "v2", "v3"],
     "brackets": [{"i": 1, "j": 2, "coeffs": {"3": "1/0"}}]},
    {"basis": ["v1", "v2", "v3"],
     "brackets": [{"i": 1, "j": 2, "coeffs": {"q": "1"}}]},
    {"basis": ["v1", "v2", "v3"],
     "brackets": [{"i": 1, "j": 2, "coeffs": ["1"]}]},
    {"basis": "abc", "brackets": []},
    {"basis": ["v1", "v2", "v3"],
     "brackets": [{"i": 1.5, "j": 2, "coeffs": {"3": "1"}}]},
    {"basis": ["v1", "v2", "v3"],
     "brackets": [{"i": True, "j": 2, "coeffs": {"3": "1"}}]},
    {"basis": ["v1", "v2", "v3"],
     "brackets": [{"i": 1, "j": "2", "coeffs": {"3": "1"}}]},
    {"basis": [True, False], "brackets": []},
    {"basis": [None], "brackets": []},
    {"name": 5, "basis": ["v1", "v2"], "brackets": []},
    {"name": ["x"], "basis": ["v1", "v2"], "brackets": []},
    {"basis": ["v1", "v2", "v3"],
     "brackets": [{"i": 1, "j": 3, "coeffs": {" 2": "1"}}]},
    {"basis": ["v1", "v2", "v3"],
     "brackets": [{"i": 1, "j": 3, "coeffs": {"+2": "1"}}]},
], ids=["coefficient-x", "coefficient-1/0", "key-q", "coeffs-list",
        "basis-string", "index-fraction", "index-bool", "index-string",
        "basis-bools", "basis-null", "name-number", "name-list",
        "key-space", "key-plus"])
def test_malformed_file_exits_two_with_a_message(capsys, tmp_path,
                                                 description):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(description))
    code, out, err = run_cli(["analyze", "--file", str(path)], capsys)
    assert code == 2
    assert err.strip() and "Traceback" not in err + out


@pytest.mark.parametrize("case", ["file-is-directory", "file-not-utf8",
                                  "json-directory-missing",
                                  "json-is-directory"])
def test_unreadable_file_or_unwritable_json_exits_two_with_a_message(
        capsys, tmp_path, case):
    if case == "file-is-directory":
        args = ["analyze", "--file", str(tmp_path)]
    elif case == "file-not-utf8":
        path = tmp_path / "latin1.json"
        path.write_bytes('{"name": "\xe9"}'.encode("latin-1"))
        args = ["analyze", "--file", str(path)]
    elif case == "json-is-directory":
        args = ["analyze", "--catalog", "L:4", "--json", str(tmp_path)]
    else:
        args = ["analyze", "--catalog", "L:4",
                "--json", str(tmp_path / "missing" / "report.json")]
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err + out
    # the output directory is checked before the analysis runs
    assert out == ""


def _exponent_file(tmp_path, value, bare=False):
    """A file whose one coefficient is ``value``: a JSON string, or the
    text itself as a bare JSON number."""
    path = tmp_path / "exponent.json"
    path.write_text('{"name": "exponent", "basis": ["v1", "v2", "v3"], '
                    '"brackets": [{"i": 1, "j": 2, "coeffs": {"2": %s}}]}'
                    % (value if bare else json.dumps(value)))
    return ["--file", str(path)]


@pytest.mark.parametrize("value", ["1e5000", "1e10000000", "2E3"])
@pytest.mark.parametrize("source", ["file", "bare-number", "catalog"])
def test_coefficient_with_an_exponent_exits_two_with_one_line(
        capsys, tmp_path, source, value):
    # 1e5000 has more digits than the report may print, and 1e10000000
    # takes seconds to build: any exponent is refused as it is read
    args = (["--catalog", f"heisenberg:{value},0;0,1"] if source == "catalog"
            else _exponent_file(tmp_path, value, source == "bare-number"))
    code, out, err = run_cli(["analyze"] + args, capsys)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err and "not an integer, a decimal or p/q" in err


@pytest.mark.parametrize("literal", ["string", "number"])
def test_literal_past_the_int_digit_limit_exits_two_with_one_line(
        capsys, tmp_path, literal):
    digits = "7" * 5000
    path = tmp_path / "long.json"
    value = json.dumps(digits) if literal == "string" else digits
    path.write_text('{"basis": ["v1", "v2", "v3"], "brackets": '
                    '[{"i": 1, "j": 2, "coeffs": {"2": %s}}]}' % value)
    code, out, err = run_cli(["analyze", "--file", str(path)], capsys)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_integer_decimal_and_ratio_text_are_read_exactly(capsys, tmp_path):
    # a bare JSON number is read as written: 0.00001 is not the float
    # 1e-05, whose text has an exponent
    for value, shown, bare in (("3", "3", False), ("-0.25", "-1/4", False),
                               (" 6/4 ", "3/2", False), ("-0.25", "-1/4", True),
                               ("0.00001", "1/100000", True)):
        code, out, _ = run_cli(
            ["reduce"] + _exponent_file(tmp_path, value, bare), capsys)
        assert code == 0 and f"weight ('{shown}', '0', '0')" in out, value


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats()
    | st.sampled_from([1.5, "1", "1/2", "-3", "x", "v1", "1e5000",
                       "1e10000000", "2E3", "-1.5e-2"])
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)


def _slots(node):
    """Every (container, key) position inside a JSON document."""
    keys = (list(node) if isinstance(node, dict)
            else range(len(node)) if isinstance(node, list) else ())
    for key in keys:
        yield node, key
        yield from _slots(node[key])


@given(st.sampled_from(["L:4", "panyushev", "example32", "heisenberg:1,0;0,1"]),
       st.data())
@settings(max_examples=150, deadline=None)
def test_mutated_file_exits_zero_or_two_without_a_traceback(entry, data):
    from coregular.catalog import build_catalog_algebra
    # wrapped, so that a mutation may also replace the whole document
    doc = {"root": build_catalog_algebra(entry).to_json_dict()}
    for _ in range(data.draw(st.integers(1, 3))):
        container, key = data.draw(st.sampled_from(list(_slots(doc))))
        if container is not doc and data.draw(st.booleans()):
            del container[key]
        else:
            container[key] = data.draw(json_values)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.json"
        path.write_text(json.dumps(doc["root"]))
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["invariants", "--file", str(path),
                         "--max-degree", "2"])
    assert code in (0, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()
