import json
import os

import pytest

from qtrin import verify
from qtrin.cli import run
from qtrin.verify import REGISTRY


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_T_worked_example(capsys):
    code, out, _ = _capture(capsys, ["compute", "T", "4", "2"])
    assert code == 0
    assert out == "1 + q + 2*q^2 + 2*q^3 + 2*q^4 + q^5 + q^6\n"


def test_compute_qbin_and_rT(capsys):
    code, out, _ = _capture(capsys, ["compute", "qbin", "4", "2"])
    assert code == 0 and out.strip() == "1 + q + 2*q^2 + q^3 + q^4"
    code, out, _ = _capture(capsys, ["compute", "rT", "2", "2", "0", "2"])
    assert code == 0 and out.strip() == "1 + q + 2*q^2 + q^3 + q^4"


def test_mn_solve_eleven_lines(capsys):
    code, out, _ = _capture(capsys, ["mn-solve", "E7", "6", "1"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11
    assert "m=5e1+4e2+3e3+2e4+e7 n=e5" in lines


def test_mn_solve_parity_flag(capsys):
    code, out, _ = _capture(capsys, ["mn-solve", "E7", "6", "1",
                                     "--parity", "n1+n3+n7"])
    assert code == 0
    assert len(out.strip().splitlines()) == 5
    code, out, _ = _capture(capsys, ["mn-solve", "E7", "6", "1",
                                     "--parity", "n1+n3+n7+1"])
    assert code == 0
    assert len(out.strip().splitlines()) == 6


def test_mn_solve_without_solutions_prints_nothing(capsys):
    code, out, err = _capture(capsys, ["mn-solve", "E7", "5", "1",
                                       "--mod3", "n1"])
    assert (code, out, err) == (0, "", "")


def test_usage_errors_exit_2(capsys):
    code, _, err = _capture(capsys, ["mn-solve", "E7", "6", "9"])
    assert code == 2 and "vertex" in err
    code, _, err = _capture(capsys, ["mn-solve", "Q9", "6", "1"])
    assert code == 2
    code, _, _ = _capture(capsys, ["compute", "T", "4"])
    assert code == 2
    code, _, err = _capture(capsys, ["verify", "thm1", "--grid", "L=bad"])
    assert code == 2
    code, _, err = _capture(capsys, ["verify", "no-such-identity"])
    assert code == 2


# Refused input of every kind: a label or name outside the paper's ranges
# (refused by the library), and a flag or form the CLI alone can judge.
REFUSED = [
    ["mn-solve", "Q9", "6", "1"], ["algebra", "show", "Q9"],
    ["mn-solve", "E7", "4", "9"], ["mn-solve", "E7", "-1", "1"],
    ["compute", "chi", "2", "4", "1", "1"],
    ["compute", "rhs", "flower", "--k", "0", "--L", "1", "--M", "1"],
    ["compute", "rhs", "conj1", "--k", "2", "--L", "1", "--M", "1"],
    ["verify", "nope"], ["verify", "dual", "--grid", "Q=0..1"],
    ["verify", "dual", "--order", "5"], ["verify", "abp", "--grid=", "--order", "2"],
    ["compute", "ferm", "E8", "--order", "6", "--sigma", "1"],
    ["mn-solve", "E7", "6", "1", "--parity", "n9-n9"],
]


@pytest.mark.parametrize("argv", REFUSED, ids=" ".join)
def test_refused_input_is_one_error_line(capsys, argv):
    code, out, err = _capture(capsys, argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and err.endswith("\n")


def test_verify_single_identity(capsys):
    code, out, _ = _capture(capsys, ["verify", "mTtoT", "--level", "quick"])
    assert code == 0
    assert "mTtoT" in out and "PASS" in out


def test_verify_grid_override_and_json(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = _capture(
        capsys,
        ["verify", "thm1", "--grid", "L=0..2,M=0..2", "--json", str(path)])
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc[0]["identity"] == "thm1"
    assert doc[0]["failures"] == []
    assert doc[0]["grid"]["L"] == [0, 1, 2]
    assert set(doc[0]) >= {"identity", "status", "kind", "grid",
                           "points", "failures", "millis"}


def _no_evaluation(monkeypatch):
    # a usage error must be caught before any identity is evaluated
    def refuse(*args, **kwargs):
        raise AssertionError("an identity was evaluated")
    monkeypatch.setattr(verify, "verify_identity", refuse)
    monkeypatch.setattr(verify, "verify_all", refuse)


def test_verify_json_path_that_cannot_be_written(tmp_path, monkeypatch, capsys):
    _no_evaluation(monkeypatch)
    for path in (tmp_path / "missing" / "x.json", tmp_path):
        for name in ("vanish", "all"):
            code, out, err = _capture(capsys, ["verify", name, "--json", str(path)])
            assert code == 2 and out == ""
            assert err.startswith("error: ") and len(err.splitlines()) == 1
            assert str(path) in err
    assert list(tmp_path.iterdir()) == []


def test_verify_usage_error_leaves_the_report_path_alone(tmp_path, capsys):
    kept, absent = tmp_path / "kept.json", tmp_path / "absent.json"
    kept.write_text("kept\n")
    for argv in (["no-such-identity"], ["dual", "--grid", "x=0..1"],
                 ["dual", "--order", "0"], ["all", "--order", "3"]):
        for path in (kept, absent):
            code, _, _ = _capture(capsys, ["verify", *argv, "--json", str(path)])
            assert code == 2
    assert kept.read_text() == "kept\n" and not absent.exists()


def test_verify_all_takes_no_grid_or_order(monkeypatch, capsys):
    # both would apply to one identity only; "all" runs each registered one
    _no_evaluation(monkeypatch)
    for flag, value in (("--grid", "L=0..1"), ("--order", "3")):
        code, out, err = _capture(capsys, ["verify", "all", flag, value])
        assert code == 2 and out == ""
        assert err == f"error: {flag} applies to a single identity, not 'all'\n"


def test_verify_grid_variable_given_twice_is_a_usage_error(monkeypatch, capsys):
    _no_evaluation(monkeypatch)
    for spec in ("L=1..2,L=3..3", "L=0..1,M=0..1, L=2..2"):
        code, out, err = _capture(capsys, ["verify", "dual", "--grid", spec])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "'L' given twice" in err
    # an empty spec names no variable at all: one error line, for a single
    # identity and for "all" alike
    for argv in (["abp", "--grid=", "--order", "2"], ["all", "--grid", ""]):
        code, out, err = _capture(capsys, ["verify", *argv])
        assert code == 2 and out == ""
        assert err == "error: bad grid component '', want var=lo..hi\n"


def test_verify_grid_with_no_point_is_one_error_line(tmp_path, capsys):
    # a grid whose every point the identity's filter drops compares nothing,
    # which is not a PASS: exit 2, one error line and no report
    report = tmp_path / "report.json"
    for argv in (["vanish", "--grid", "L=0..0,M=0..0,a=0..0,b=0..0"],
                 ["con10", "--grid", "L=0..1,b=5..6"],
                 ["mTtoT", "--grid", "L=0..1,a=3..4"]):
        for extra in ([], ["--json", str(report)]):
            code, out, err = _capture(capsys, ["verify", *argv, *extra])
            assert (code, out) == (2, "")
            assert err == f"error: no point of this grid lies in the domain of {argv[0]!r}\n"
    assert not report.exists()


def test_verify_failure_exit_code(monkeypatch, capsys):
    import dataclasses
    from fractions import Fraction
    from qtrin import verify as v
    from qtrin.qpoly import QPoly

    orig = v.REGISTRY["con10"]

    def broken(params, order):
        lhs, rhs = orig.evaluate(params, order)
        return lhs + QPoly({Fraction(0): 1}), rhs

    monkeypatch.setitem(v.REGISTRY, "con10",
                        dataclasses.replace(orig, evaluate=broken))
    code, out, _ = _capture(capsys, ["verify", "con10"])
    assert code == 1
    assert "FAIL" in out
    # con10 fails at all 81 of its points, and the first five are printed
    mismatches = [line for line in out.splitlines() if "mismatch" in line]
    assert len(mismatches) == 5
    assert mismatches[0] == "  mismatch at {'L': 0, 'b': 0}: q^0 lhs=2 rhs=1"


def test_verify_refused_inside_the_grid_is_one_error_line(tmp_path, capsys):
    # an evaluator that refuses a grid point stops the run with exit 2, not
    # a traceback or the exit 1 of a failed identity, and leaves no report
    report = tmp_path / "report.json"
    code, out, err = _capture(capsys, ["verify", "dual", "--grid", "L=-1..0",
                                       "--json", str(report)])
    assert code == 2 and out == ""
    assert err == "error: L and M must be nonnegative\n"
    assert not report.exists()


def test_no_strict_conjectures_softens_failures(monkeypatch, capsys):
    import dataclasses
    from fractions import Fraction
    from qtrin import verify as v
    from qtrin.qpoly import QPoly

    orig = v.REGISTRY["conj1"]

    def broken(params, order):
        lhs, rhs = orig.evaluate(params, order)
        return lhs + QPoly({Fraction(0): 1}), rhs

    monkeypatch.setitem(v.REGISTRY, "conj1",
                        dataclasses.replace(orig, evaluate=broken))
    code, _, _ = _capture(capsys, ["verify", "conj1"])
    assert code == 1
    code, _, err = _capture(capsys,
                            ["verify", "conj1", "--no-strict-conjectures"])
    assert code == 0
    assert "reportable finding" in err


def test_compute_series_output(capsys):
    code, out, _ = _capture(capsys, ["compute", "chi", "3", "4", "1", "1",
                                     "--order", "6"])
    assert code == 0
    assert out.strip() == "1 + q^2 + q^3 + 2*q^4 + 2*q^5 + O(q^6)"
    code, out, _ = _capture(capsys, ["compute", "c", "1", "--order", "3"])
    assert code == 0
    assert "O(q^3)" in out


def test_algebra_show(capsys):
    code, out, _ = _capture(capsys, ["algebra", "show", "E7"])
    assert code == 0
    assert "rank 7" in out and "inverse cartan" in out
    code, _, _ = _capture(capsys, ["algebra", "show", "F4"])
    assert code == 2


def test_determinism(capsys):
    a = _capture(capsys, ["compute", "ferm", "E7", "--order", "8"])
    b = _capture(capsys, ["compute", "ferm", "E7", "--order", "8"])
    assert a == b
    assert a[0] == 0


def test_compute_F_negative_M_names_M(capsys):
    code, out, err = _capture(capsys, ["compute", "F", "A5", "-1", "0"])
    assert code == 2 and out == ""
    assert err == "error: M must be nonnegative\n"


@pytest.mark.parametrize("bounds", [("-1", "2"), ("2", "-1")])
def test_compute_rT_negative_bound_is_a_usage_error(capsys, bounds):
    code, out, err = _capture(capsys, ["compute", "rT", *bounds, "0", "0"])
    assert (code, out, err) == (2, "", "error: L and M must be nonnegative\n")


def test_compute_lhs_rhs_agree(capsys):
    code, lhs, _ = _capture(capsys, ["compute", "lhs", "conj1",
                                     "--L", "3", "--M", "3"])
    assert code == 0
    code, rhs, _ = _capture(capsys, ["compute", "rhs", "conj1",
                                     "--L", "3", "--M", "3"])
    assert code == 0
    assert lhs == rhs
    code, lhs, _ = _capture(capsys, ["compute", "lhs", "flower",
                                     "--k", "2", "--L", "2", "--M", "2"])
    code2, rhs, _ = _capture(capsys, ["compute", "rhs", "flower",
                                      "--k", "2", "--L", "2", "--M", "2"])
    assert code == code2 == 0
    assert lhs == rhs


@pytest.mark.parametrize("side", ["lhs", "rhs"])
def test_compute_conjecture_with_a_depth_is_a_usage_error(capsys, side):
    # a conjecture has no depth: --k is refused, not ignored
    for k in ("-3", "1", "2"):
        code, out, err = _capture(capsys, ["compute", side, "conj1", "--k", k,
                                           "--L", "2", "--M", "1"])
        assert code == 2 and out == ""
        assert err == "error: --k applies to a k-series family, not conj1\n"
    # without it the conjecture's side, and a k-series family takes depth 1
    code, out, _ = _capture(capsys, ["compute", side, "conj1", "--L", "2", "--M", "1"])
    assert (code, out) == (0, "1 + q + q^2\n")
    code, out, _ = _capture(capsys, ["compute", side, "flower", "--L", "2", "--M", "1"])
    code1, out1, _ = _capture(capsys, ["compute", side, "flower", "--k", "1",
                                       "--L", "2", "--M", "1"])
    assert code == code1 == 0 and out == out1


@pytest.mark.parametrize("sigma", ["0", "1"])
def test_compute_string_function_order_zero(capsys, sigma):
    code, out, _ = _capture(capsys, ["compute", "c", sigma, "--order", "0"])
    assert code == 0
    assert out == "0 + O(q^0)\n"


def test_mn_solve_signed_mod3_form(capsys):
    from qtrin.liealg import algebra
    from qtrin.mnsys import basis_lines, linear_filter, solve_mn

    g = algebra("A5")
    expect = basis_lines(solve_mn(g, 6, 3, linear_filter({1: 1, 2: -1}, 3)))
    code, out, _ = _capture(capsys, ["mn-solve", "A5", "6", "3",
                                     "--mod3", "n1-n2"])
    assert code == 0 and expect
    assert out.splitlines() == expect
    # the form drops solutions: it is applied, not passed over
    code, unfiltered, _ = _capture(capsys, ["mn-solve", "A5", "6", "3"])
    assert code == 0 and len(expect) < len(unfiltered.splitlines())
    # the parsed form is applied, not a fixed one
    code, out, _ = _capture(capsys, ["mn-solve", "A5", "6", "3",
                                     "--mod3", "n1+n2+1"])
    assert code == 0
    assert out.splitlines() == basis_lines(
        [s for s in solve_mn(g, 6, 3) if (s.n[0] + s.n[1] + 1) % 3 == 0])


def test_mn_solve_signed_form_as_separate_argument(capsys):
    for flag, expr in (("--parity", "-n1+n3"), ("--mod3", "-n1+n2-n4+n5")):
        code, joined, _ = _capture(capsys, ["mn-solve", "A5", "6", "3",
                                            f"{flag}={expr}"])
        assert code == 0 and joined
        code, separate, _ = _capture(capsys, ["mn-solve", "A5", "6", "3",
                                              flag, expr])
        assert code == 0 and separate == joined


def test_mn_solve_applies_every_repeated_form(capsys):
    from qtrin.liealg import algebra
    from qtrin.mnsys import basis_lines, linear_filter, parity_filter, solve_mn

    g = algebra("E7")
    code, out, _ = _capture(capsys, ["mn-solve", "E7", "6", "1",
                                     "--parity", "n1+n3+n7", "--parity", "n2"])
    assert code == 0
    both = basis_lines(solve_mn(g, 6, 1, parity_filter((1, 3, 7)), parity_filter((2,))))
    assert out.splitlines() == both and len(both) == 4
    # a signed mod-3 form beside two parity forms, one of them signed, in
    # any order
    g = algebra("A5")
    mod3 = linear_filter({1: -1, 2: 1, 4: -1, 5: 1}, 3)
    expect = basis_lines(solve_mn(g, 6, 3, mod3, parity_filter((1, 3, 5)),
                                  linear_filter({1: -1, 2: 1}, 2)))
    assert len(expect) == 2
    assert len(solve_mn(g, 6, 3, mod3, parity_filter((1, 3, 5)))) == 4
    for argv in (["--mod3", "-n1+n2-n4+n5", "--parity", "n1+n3+n5", "--parity", "-n1+n2"],
                 ["--parity", "-n1+n2", "--mod3", "-n1+n2-n4+n5", "--parity", "n1+n3+n5"]):
        code, out, _ = _capture(capsys, ["mn-solve", "A5", "6", "3", *argv])
        assert code == 0 and out.splitlines() == expect
    # the forms of one call do not stay on the parser for the next
    code, out, _ = _capture(capsys, ["mn-solve", "A5", "6", "3"])
    assert code == 0 and out.splitlines() == basis_lines(solve_mn(g, 6, 3))


def test_verify_order_below_one_is_a_usage_error(capsys):
    for order in ("0", "-3"):
        code, out, err = _capture(capsys, ["verify", "abp", "--order", order])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_verify_order_on_an_exact_identity_is_a_usage_error(capsys):
    # an exact polynomial identity has no truncation order: an order given
    # to one is refused, not ignored, and a series identity still takes one
    exact = [n for n, d in REGISTRY.items() if d.kind == "polynomial-exact"]
    assert len(exact) == 16
    for name in exact:
        with pytest.raises(ValueError, match="takes no order"):
            verify.verify_identity(name, order=5)
    for name in ("dual", "conj1"):
        code, out, err = _capture(capsys, ["verify", name, "--order", "5"])
        assert code == 2 and out == ""
        assert err == (f"error: identity {name!r} is an exact polynomial identity "
                       "and takes no order\n")
    code, out, _ = _capture(capsys, ["verify", "E8", "--order", "5"])
    assert code == 0 and "PASS" in out


@pytest.mark.parametrize(
    "name", [n for n, d in REGISTRY.items() if d.kind == "series-truncated"])
def test_verify_series_identity_at_order_one(capsys, name):
    # Order 1 cuts some inner series at an order <= 0 (B46-simplification-s1
    # shifts a product at order -1/2 by q^(3/2)); nothing is known there, and
    # the side is the empty series at the asked order.
    code, out, _ = _capture(capsys, ["verify", name, "--order", "1"])
    assert code == 0 and "PASS" in out


@pytest.mark.parametrize("name, spec", [
    ("limit-mTlim", "point=0..5"), ("E8", "form=0..3"),
    ("B46-simplification-s1", "form=5..5"), ("E6", "point=3..4"),
    ("limit-mTlim", "point=-1..-1"), ("fam1-k1", "sigma=2..3"),
    ("thm1", "s=2..2")])
def test_verify_grid_choice_outside_registry_is_a_usage_error(capsys, name, spec):
    code, out, err = _capture(capsys, ["verify", name, "--grid", spec])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert spec.split("=")[0] in err


def test_mn_solve_index_out_of_range(capsys):
    for flag, expr in (("--mod3", "n7+n9"), ("--parity", "n7")):
        code, out, err = _capture(capsys, ["mn-solve", "A5", "6", "3",
                                           flag, expr])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "n7" in err.splitlines()[0]


@pytest.mark.parametrize("flag", ["--parity", "--mod3"])
def test_mn_solve_empty_form_is_a_usage_error(capsys, flag):
    # an empty form is the same error as a blank one, not "no filter"
    for expr in ("", " "):
        code, out, err = _capture(capsys, ["mn-solve", "E7", "4", "1", flag, expr])
        assert code == 2 and out == ""
        assert err == f"error: empty term in linear form {expr!r}\n"


def test_compute_ferm_sigma_without_a_sigma_filter_is_a_usage_error(capsys):
    # the E8 and E6 cones have no sigma-dependent filter, so a --sigma there
    # would print the sigma = 0 series; the other families take it
    from qtrin import fermionic

    for family in ("E8", "E6"):
        for sigma in ("0", "1"):
            code, out, err = _capture(capsys, ["compute", "ferm", family, "--order", "6",
                                               "--sigma", sigma])
            assert code == 2 and out == ""
            assert err == ("error: --sigma applies to a family whose cone depends on it, "
                           f"not {family}\n")
        code, out, _ = _capture(capsys, ["compute", "ferm", family, "--order", "6"])
        assert (code, out) == (0, f"{fermionic.fermionic_char_sum(family, 6)}\n")
    for family in ("E7", "D6-B46", "A5-B68"):
        code, out, _ = _capture(capsys, ["compute", "ferm", family, "--order", "6", "--sigma", "1"])
        assert (code, out) == (0, f"{fermionic.fermionic_char_sum(family, 6, 1)}\n")


def test_parses_are_independent(capsys):
    from qtrin import bosonic, fermionic

    # defaults come back after a call that overrode them
    _capture(capsys, ["compute", "ferm", "E7", "--order", "5", "--sigma", "1"])
    _, out, _ = _capture(capsys, ["compute", "ferm", "E7", "--order", "5"])
    assert out == f"{fermionic.fermionic_char_sum('E7', 5)}\n"
    _capture(capsys, ["compute", "lhs", "flower", "--k", "2",
                      "--L", "1", "--M", "1"])
    _, out, _ = _capture(capsys, ["compute", "lhs", "flower",
                                  "--L", "1", "--M", "1"])
    assert out == f"{bosonic.kseries_lhs(1, 1, 1, 1)}\n"


def test_import_qtrin_leaves_cli_unloaded():
    import subprocess
    import sys
    from pathlib import Path

    import qtrin

    src = str(Path(qtrin.__file__).resolve().parents[1])
    code = "import sys, qtrin; print('qtrin.cli' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], cwd=src,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def test_python_dash_m_runs_the_cli():
    import subprocess
    import sys
    from pathlib import Path

    import qtrin

    src = str(Path(qtrin.__file__).resolve().parents[1])

    def qtrin_m(*argv):
        return subprocess.run([sys.executable, "-m", "qtrin", *argv], cwd=src,
                              capture_output=True, text=True)

    done = qtrin_m("compute", "T", "4", "2")
    assert done.returncode == 0
    assert done.stdout == "1 + q + 2*q^2 + 2*q^3 + 2*q^4 + q^5 + q^6\n"
    done = qtrin_m("verify", "abp")
    assert done.returncode == 0 and done.stdout.split()[:2] == ["abp", "PASS"]
    done = qtrin_m("verify", "no-such-identity")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ")


@pytest.mark.parametrize("argv", [["mn-solve", "E8", "29", "1"],
                                  ["compute", "qbin", "200", "100"]])
def test_closed_pipe_ends_quietly(argv):
    # each output is larger than a pipe's buffer, so the command is still
    # writing when the reader goes away after the first few bytes
    import subprocess
    import sys
    from pathlib import Path

    import qtrin

    src = str(Path(qtrin.__file__).resolve().parents[1])
    with subprocess.Popen([sys.executable, "-m", "qtrin", *argv], cwd=src, bufsize=0,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert "Traceback" not in err and "BrokenPipeError" not in err
    assert (code, err) == (1, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["compute", "T", "4", "2"],
                                  ["compute", "qbin", "200", "100"]])
def test_full_stdout_is_one_error_line(argv):
    # every write to /dev/full fails with ENOSPC: a short output at the last
    # flush, a long one while it is printed
    import subprocess
    import sys
    from pathlib import Path

    import qtrin

    src = str(Path(qtrin.__file__).resolve().parents[1])
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "qtrin", *argv], cwd=src,
                              stdout=full, stderr=subprocess.PIPE, text=True, timeout=60)
    assert done.returncode == 1
    assert done.stderr == "error: cannot write output: No space left on device\n"


def test_readme_command_examples(monkeypatch, tmp_path, capsys):
    import shlex
    from pathlib import Path

    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("qtrin ")]
    assert len(commands) >= 8
    monkeypatch.chdir(tmp_path)  # the verify example writes report.json
    for argv in commands:
        code, _, err = _capture(capsys, argv)
        assert code == 0, (argv, err)
