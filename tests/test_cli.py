import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qconic import numberfield
from qconic.arrangement import arrangement_to_document
from qconic.cli import main, EXIT_OK, EXIT_INPUT, EXIT_COMPUTATION


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_analyze_round_trip(tmp_path, capsys):
    out = tmp_path / "pencil3.json"
    code, _, _ = run(capsys, "generate", "--g1", "x^2+y^2-2*z^2",
                     "--g2", "x^2-y^2", "--params", "0,2,3",
                     "--output", str(out))
    assert code == EXIT_OK
    code, text, err = run(capsys, "analyze", str(out))
    assert code == EXIT_OK and not err
    assert "(3; 0, 0, 4, 0)" in text
    assert "NotFree" in text
    assert "Total Tjurina number: 16" in text
    assert "tacnode_inequality: True" in text
    assert "skipped" not in text and "route not applicable" not in text
    code, text, _ = run(capsys, "analyze", str(out), "--no-hilbert-tau")
    assert code == EXIT_OK
    assert "  hilbert route skipped: --no-hilbert-tau\n" in text


def test_analyze_text_names_default_skips(tmp_path, capsys):
    # six pencil members: degree 12, where the Hilbert route still runs by
    # default, and the sextuple points are not among the four Q types
    out = tmp_path / "pencil6.json"
    run(capsys, "generate", "--g1", "x^2+y^2-2*z^2", "--g2", "x^2-y^2",
        "--params", "0,2,3,4,5,6", "--output", str(out))
    code, text, _ = run(capsys, "analyze", str(out))
    assert code == EXIT_OK
    assert "skipped" not in text
    assert "'hilbert': 100" in text
    assert "  combinatorial route not applicable: " in text
    # the four sextuple base points have mu = tau = 25, but q_flag counts
    # only the four types, and the label says so
    assert ("[only nodes, tacnodes and ordinary triple or quadruple points: "
            "False]") in text
    assert "all points quasi-homogeneous" not in text
    assert text.count("quasi-homogeneous=True") == 4


def _pencil(params):
    # (x^2 + y^2 - 2z^2) + t (x^2 - y^2)
    return [(1 + t, 1 - t, -2, 0, 0, 0) for t in params]


# every analyze item of the benchmark workloads with a committed answer
# under benchmarks/expected/, except the slow contact4_k5: name, conics,
# analyze flags.  The files are read, never written.
_NO_HILBERT = ("--no-hilbert-tau",)
_COMMITTED = [
    # five circles through the origin, default options
    ("five_circles", [(1, 1, 0, 0, -6, -8), (1, 1, 0, 0, -8, -6),
                      (1, 1, 0, 0, 6, -8), (1, 1, 0, 0, 8, -6),
                      (1, 1, 0, 0, -10, 0)], ()),
    # the integer Jacobian matrix feeds mdr and the Hilbert route
    ("pencil5", _pencil((0, 2, 3, 4, 5)), ()),
    ("generic_pair", [(1, 1, -2, 0, 0, 0), (1, 2, -3, 0, 0, 0)], ()),
    ("tangent_pair", [(1, 1, -1, 0, 0, 0), (1, 2, -1, 0, 0, 0)], ()),
    ("pencil3", _pencil((0, 2, 3)), ()),
    ("pencil4", _pencil((0, 2, 3, 4)), ()),
    # -x^2 + yz + t xz and -x^2 + yz + t z^2: 3- and 4-fold contact, so
    # the local algebra over Q is truncated deep
    ("contact3_k3", [(-1, 0, 0, 0, t, 1) for t in range(3)], _NO_HILBERT),
    ("contact3_k4", [(-1, 0, 0, 0, t, 1) for t in range(4)], _NO_HILBERT),
    ("contact4_k3", [(-1, 0, t, 0, 0, 1) for t in range(3)], _NO_HILBERT),
    ("contact4_k4", [(-1, 0, t, 0, 0, 1) for t in range(4)], _NO_HILBERT),
    ("pencil6", _pencil((0, 2, 3, 4, 5, 6)), _NO_HILBERT),
    ("pencil7", _pencil((0, 2, 3, 4, 5, 6, 7)), _NO_HILBERT),
    # the fixed k = 5 arrangement of the generic workload: eight quartic
    # orbits, two cubic orbits and two rational nodes
    ("generic_anchor_k5", [(1, 2, -1, 3, -3, 3), (1, 3, 2, 2, 1, 0),
                           (0, -1, -1, -2, 1, -2), (0, 2, 2, 2, -3, 2),
                           (2, -1, -3, -2, 2, -3)], _NO_HILBERT),
]


@pytest.mark.parametrize("name, coeffs, flags", _COMMITTED,
                         ids=[name for name, _, _ in _COMMITTED])
def test_analyze_json_matches_committed_answer(tmp_path, capsys, name, coeffs,
                                               flags):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(
        {"conics": [{"coeffs": [str(c) for c in cs]} for cs in coeffs]}))
    expected = (Path(__file__).resolve().parents[1] / "benchmarks" / "expected"
                / f"{name}.json").read_text(encoding="utf-8")
    code, out, _ = run(capsys, "analyze", "--json", str(path), *flags)
    assert code == EXIT_OK
    assert out == expected  # byte for byte


def test_generate_rejects_singular_parameter(tmp_path, capsys):
    code, _, err = run(capsys, "generate", "--g1", "x^2+y^2-2*z^2",
                       "--g2", "x^2-y^2", "--params", "0,1",
                       "--output", str(tmp_path / "x.json"))
    assert code == EXIT_INPUT
    assert "input error" in err


def test_generate_unwritable_output_is_an_output_error(tmp_path, capsys):
    code, out, err = run(capsys, "generate", "--g1", "x^2+y^2-2*z^2",
                         "--g2", "x^2-y^2", "--params", "0,2,3",
                         "--output", str(tmp_path / "missing" / "x.json"))
    assert code == EXIT_INPUT
    assert err.startswith("output error: ") and "input error" not in err
    assert not out


def test_analyze_json_deterministic(tmp_path, capsys, monkeypatch):
    # cold field cache: the second run must reuse the fields of the first
    # and still print the same isolating boxes
    monkeypatch.setattr(numberfield, "_FIELD_CACHE", {})
    out = tmp_path / "arr.json"
    run(capsys, "generate", "--g1", "x^2+y^2-2*z^2", "--g2", "x^2-y^2",
        "--params", "0,2,3,4", "--output", str(out))
    capsys.readouterr()
    code, first, _ = run(capsys, "analyze", str(out), "--json")
    assert code == EXIT_OK
    code, second, _ = run(capsys, "analyze", str(out), "--json")
    assert first == second  # byte-for-byte
    doc = json.loads(first)
    assert doc["weak_combinatorics"] == {"k": 4, "n2": 0, "t2": 0, "n3": 0,
                                         "n4": 4, "other": 0}
    assert doc["tjurina_total"] == 36
    assert doc["freeness"]["free"] is False
    assert doc["format_version"] == 1
    # x^2 + y^2 - 3z^2 and xy - z^2 meet over Q(sqrt 5), a real field:
    # printing approximate points refines boxes, never the field's own
    irrational = tmp_path / "irrational.json"
    irrational.write_text(json.dumps({"conics": [
        {"coeffs": ["1", "1", "-3", "0", "0", "0"]},
        {"coeffs": ["0", "0", "-1", "1", "0", "0"]}]}))
    code, first, _ = run(capsys, "analyze", str(irrational), "--json")
    assert code == EXIT_OK
    code, second, _ = run(capsys, "analyze", str(irrational), "--json")
    assert first == second  # byte-for-byte
    fields = [r["field"] for r in json.loads(first)["singular_points"]]
    assert [f["minimal_polynomial"] for f in fields] == [["-1", "-1", "1"],
                                                         ["-1", "1", "1"]]


def test_analyze_runs_without_sympy(tmp_path, capsys, five_circles):
    # sympy is a test-only oracle: the package must import and analyze
    # with it unimportable, and print the same answer
    path = tmp_path / "circles.json"
    path.write_text(arrangement_to_document(five_circles))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    script = ("import sys; sys.modules['sympy'] = None; "
              "from qconic.cli import main; sys.exit(main(sys.argv[1:]))")
    for argv in (["analyze", "--json", str(path), "--no-hilbert-tau"],
                 ["freeness", "--json", "(x^2-y*z)*(x^2+y*z)*(x^2+y^2-z^2)"]):
        code, expected, _ = run(capsys, *argv)
        assert code == EXIT_OK
        proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout == expected  # byte for byte


def test_analyze_five_circles(tmp_path, capsys):
    doc = {"conics": [
        {"coeffs": ["1", "1", "0", "0", "-6", "-8"]},
        {"coeffs": ["1", "1", "0", "0", "-8", "-6"]},
        {"coeffs": ["1", "1", "0", "0", "6", "-8"]},
        {"coeffs": ["1", "1", "0", "0", "8", "-6"]},
        {"coeffs": ["1", "1", "0", "0", "-10", "0"]},
    ]}
    path = tmp_path / "circles.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "analyze", str(path), "--json",
                       "--no-hilbert-tau")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["q_flag"] is False
    origin = next(r for r in data["singular_points"]
                  if r["point_approx_display_only"] == ["0", "0", "1"])
    assert origin["milnor"] == 16 and origin["tjurina"] == 15
    assert origin["quasi_homogeneous"] is False


def test_freeness_commands(capsys):
    code, out, _ = run(capsys, "freeness", "x*y*z")
    assert code == EXIT_OK
    assert "Free (criterion_met)" in out
    code, out, _ = run(capsys, "freeness", "x^2+y^2+z^2", "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["free"] is False and doc["tjurina_total"] == 0 and doc["mdr"] == 1
    # the two-conic curve x^4 - y^2 z^2: tacnodes at (0:1:0) and (0:0:1)
    code, out, _ = run(capsys, "freeness", "(x^2-y*z)*(x^2+y*z)")
    assert code == EXIT_OK
    assert "degree 4" in out
    assert "Total Tjurina number: 6" in out
    assert "NotFree" in out


def test_freeness_error_codes(capsys):
    code, _, err = run(capsys, "freeness", "x^2+y")
    assert code == EXIT_INPUT and "mixed degrees" in err
    code, _, err = run(capsys, "freeness", "x^2*y^2")
    assert code == EXIT_INPUT and "repeated factor" in err
    code, _, err = run(capsys, "freeness", "x^2 + $")
    assert code == EXIT_INPUT
    code, _, err = run(capsys, "freeness")
    assert code == EXIT_INPUT and "--file" in err
    code, _, err = run(capsys, "freeness", "x")
    assert code == EXIT_INPUT and "degree at least 2" in err
    code, _, err = run(capsys, "freeness", "0")
    assert code == EXIT_INPUT and "zero polynomial" in err


def test_computation_errors_map_to_exit_3(capsys, monkeypatch):
    from qconic import cli as climod
    from qconic.errors import NonIsolatedError

    def boom(*_args, **_kwargs):
        raise NonIsolatedError("synthetic dimension-cap failure")

    monkeypatch.setattr(climod, "freeness_report", boom)
    code = climod.main(["freeness", "x*y*z"])
    assert code == EXIT_COMPUTATION
    assert "computation error" in capsys.readouterr().err


def test_certification_failure_exits_3(tmp_path, capsys, monkeypatch,
                                       five_circles):
    # the circles meet at the non-real circular points; with no numeric
    # candidates their roots cannot be certified at any precision
    from qconic import roots
    monkeypatch.setattr(numberfield, "_FIELD_CACHE", {})
    monkeypatch.setattr(roots, "_approximate_roots", lambda p, dps: None)
    path = tmp_path / "circles.json"
    path.write_text(arrangement_to_document(five_circles))
    code, _, err = run(capsys, "analyze", str(path), "--no-hilbert-tau")
    assert code == EXIT_COMPUTATION
    assert "computation error" in err and "did not certify" in err


def test_roots_beyond_a_double_certify(tmp_path, capsys, monkeypatch):
    # x^2 + y^2 + 10^400 z^2 and x^2 - y^2 + 3 10^400 z^2 meet in four
    # nodes with coordinates near 10^200: seeds scaled by a power of two
    # reach roots that a cold start at unit size does not
    monkeypatch.setattr(numberfield, "_FIELD_CACHE", {})
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"conics": [
        {"coeffs": ["1", "1", str(10 ** 400), "0", "0", "0"]},
        {"coeffs": ["1", "-1", str(3 * 10 ** 400), "0", "0", "0"]}]}))
    code, out, err = run(capsys, "analyze", str(path), "--no-hilbert-tau",
                         "--json")
    assert code == EXIT_OK and not err
    doc = json.loads(out)
    w = doc["weak_combinatorics"]
    assert (w["n2"], w["t2"], w["n3"], w["n4"]) == (4, 0, 0, 0)
    assert doc["tjurina_total"] == 4


def test_kernel_past_its_prime_budget_exits_3(capsys, monkeypatch):
    # a certificate that never passes ends the prime loop at its budget:
    # a computation error, not a hang
    from qconic import linalg
    monkeypatch.setattr(linalg, "_certified", lambda *_args: False)
    code, _, err = run(capsys, "freeness", "x^2+y^2+z^2")
    assert code == EXIT_COMPUTATION
    assert "computation error" in err and "did not certify" in err


def test_analyze_option_errors(capsys):
    # argparse rejects these before the input file is opened
    for flags in (["--full-tau"], ["--jobs", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "arr.json", *flags])
        assert exc.value.code == EXIT_INPUT
        assert "unrecognized arguments" in capsys.readouterr().err


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "2")
    assert code == EXIT_OK
    assert "4 vectors" in out
    code, out, _ = run(capsys, "enumerate", "5", "--filter",
                       "tacnode-inequality", "--json")
    doc = json.loads(out)
    assert all(row["tacnode_inequality"] is False for row in doc["rows"])
    vectors = {(r["vector"]["n2"], r["vector"]["t2"], r["vector"]["n3"],
                r["vector"]["n4"]) for r in doc["rows"]}
    assert (0, 20, 0, 0) in vectors
    # the spelling alias selects the same rows
    code, alias_out, _ = run(capsys, "enumerate", "5", "--filter",
                             "theorem-b", "--json")
    assert alias_out == out
    code, out, _ = run(capsys, "enumerate", "3", "--filter",
                       "tacnode-inequality")
    assert "0 vectors" in out  # every k = 3 vector satisfies the inequality


def test_verify_commands(capsys, monkeypatch):
    code, out, _ = run(capsys, "verify", "a", "--kmax", "4")
    assert code == EXIT_OK
    assert "0 counterexamples" in out
    # a wall clock stepping back an hour at every reading must not reach
    # elapsed_seconds, which is timed by a monotonic clock
    readings = itertools.count(10 ** 9, -3600)
    monkeypatch.setattr(time, "time", lambda: next(readings))
    code, out, _ = run(capsys, "verify", "a", "--kmax", "2", "--json")
    monkeypatch.undo()
    doc = json.loads(out)
    assert doc["vectors_checked"] == 4 and doc["counterexamples"] == []
    assert doc["elapsed_seconds"] >= 0
    code, out, _ = run(capsys, "verify", "b", "--k", "3")
    assert code == EXIT_OK
    assert "45/8" in out and "117/16" in out
    code, out, _ = run(capsys, "verify", "nonfreeness", "--kmax", "3")
    assert code == EXIT_OK


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_rejects_jobs_below_one(capsys, jobs):
    code, out, err = run(capsys, "verify", "a", "--kmax", "3", "--jobs", jobs)
    assert code == EXIT_INPUT and not out
    assert f"need jobs >= 1, got {jobs}" in err


def test_analyze_error_codes(tmp_path, capsys):
    code, _, err = run(capsys, "analyze", str(tmp_path / "missing.json"))
    assert code == EXIT_INPUT
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == EXIT_INPUT and "invalid JSON" in err
    singular = tmp_path / "singular.json"
    singular.write_text(json.dumps({"conics": [
        {"coeffs": ["1", "0", "-1", "0", "0", "0"]},
        {"coeffs": ["0", "1", "-1", "0", "0", "0"]}]}))
    code, _, err = run(capsys, "analyze", str(singular))
    assert code == EXIT_INPUT and "SingularMember" in err


def test_zero_denominator_literals_are_input_errors(tmp_path, capsys):
    document = tmp_path / "zero.json"
    document.write_text(json.dumps({"conics": [
        {"coeffs": ["1", "1/0", "-2", "0", "0", "0"]},
        {"coeffs": ["1", "-1", "0", "0", "0", "0"]}]}))
    for argv in (["freeness", "x^2 + 1/0*y^2 + z^2"],
                 ["analyze", str(document)],
                 ["generate", "--g1", "x^2+y^2-2*z^2", "--g2", "x^2-1/0*y^2",
                  "--params", "0,2"]):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_INPUT and "input error" in err
        assert "zero denominator" in err


def test_boolean_coefficients_are_input_errors(tmp_path, capsys):
    # JSON true is not the coefficient 1
    document = tmp_path / "bool.json"
    document.write_text(json.dumps({"conics": [
        {"coeffs": [True, 1, -1, 0, 0, 0]},
        {"coeffs": ["1", "2", "-3", "0", "0", "0"]}]}))
    code, _, err = run(capsys, "analyze", str(document))
    assert code == EXIT_INPUT and "input error" in err
    assert "conic #0: " in err and "bool" in err


def test_unreadable_paths_are_input_errors(tmp_path, capsys):
    for argv in (["analyze", str(tmp_path)], ["freeness", "--file", str(tmp_path)]):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_INPUT and "input error" in err
