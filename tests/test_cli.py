import json

import pytest

from qtrin.cli import run


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
    assert "FAIL" in out and "mismatch" in out


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


def test_threads_flag_accepted(capsys):
    code, out, _ = _capture(capsys, ["--threads", "4", "compute", "T", "2", "0"])
    assert code == 0


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


@pytest.mark.parametrize("sigma", ["0", "1"])
def test_compute_string_function_order_zero(capsys, sigma):
    code, out, _ = _capture(capsys, ["compute", "c", sigma, "--order", "0"])
    assert code == 0
    assert out == "0 + O(q^0)\n"


def test_mn_solve_signed_mod3_form(capsys):
    from qtrin.liealg import algebra
    from qtrin.mnsys import mod3_filter, solve_mn_filtered

    g = algebra("A5")
    expect = [s.basis_str() for s in solve_mn_filtered(g, 6, 3, mod3_filter())]
    code, out, _ = _capture(capsys, ["mn-solve", "A5", "6", "3",
                                     "--mod3", "n1-n2+n4-n5"])
    assert code == 0 and expect
    assert out.splitlines() == expect
    # the parsed form is applied, not a fixed one
    code, out, _ = _capture(capsys, ["mn-solve", "A5", "6", "3",
                                     "--mod3", "n1+n2+1"])
    assert code == 0
    assert out.splitlines() == [
        s.basis_str() for s in solve_mn_filtered(g, 6, 3)
        if (s.n[0] + s.n[1] + 1) % 3 == 0]


def test_mn_solve_index_out_of_range(capsys):
    for flag, expr in (("--mod3", "n7+n9"), ("--parity", "n7")):
        code, out, err = _capture(capsys, ["mn-solve", "A5", "6", "3",
                                           flag, expr])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "n7" in err.splitlines()[0]


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
    assert out == f"{bosonic.kseries_lhs('E8-flower', 1, 1, 1)}\n"


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
