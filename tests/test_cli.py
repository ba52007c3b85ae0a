import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nullsol.cli import (
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_UNKNOWN,
    build_arg_parser,
    console_main,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_all_text(capsys):
    code, out, err = run(capsys, "classify", "T - (X1^2+X2^2+X3^2)", "--no-timing")
    assert code == EXIT_OK
    assert "smooth" in out and "NONTRIVIAL" in out and "TRIVIAL" in out


def test_classify_single_space_json(capsys):
    code, out, _ = run(capsys, "classify", "X1*X2*T", "--space", "tempered",
                       "--output", "json", "--no-timing")
    assert code == EXIT_OK
    report = json.loads(out)
    [v] = report["verdicts"]
    assert v["space"] == "tempered"
    assert v["status"] == "NONTRIVIAL"
    assert v["witness"]["exact_certificate_ok"] is True
    assert v["witness"]["sampled_residual_max"] < 1e-12


def test_parse_error_exit_code_and_caret(capsys):
    code, out, err = run(capsys, "classify", "T^^2")
    assert code == EXIT_INPUT_ERROR
    assert "BadExponent" in err
    assert "^" in err.splitlines()[-1]


@pytest.mark.parametrize("argv, caret_at", [
    (("periodic", "X1^2*T + Y", "--lattice", "1"), 11),
    (("content", "T - X0"), 6),
    (("witness", "X1*T +", "--freq", "1"), 8),
    (("classify", "X1\u00b2*T"), 4),
    (("classify", "(X1+X2+1)^100000"), 11),
    (("classify", "X\u0660*T"), 2),
], ids=["periodic", "content", "witness", "superscript", "expansion-limit", "arabic-indic-index"])
def test_parse_error_caret_for_every_subcommand(capsys, argv, caret_at):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INPUT_ERROR and out == ""
    assert err.startswith("error: ")
    assert err.splitlines()[-1] == " " * caret_at + "^"


def test_parse_error_caret_from_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("T - X1^^2"))
    code, out, err = run(capsys, "content", "-")
    assert code == EXIT_INPUT_ERROR and out == ""
    assert "BadExponent" in err
    assert err.splitlines()[-1] == " " * 9 + "^"


@pytest.mark.parametrize("text, line, caret_at", [
    ("T^^2\n", "T^^2", 2),
    ("T -\n X1^^2\n", " X1^^2", 4),
    ("T -\n\n", "T -", 3),
], ids=["trailing-newline", "second-line", "end-of-input"])
def test_parse_error_caret_under_its_line(capsys, monkeypatch, text, line, caret_at):
    # stdin text keeps its newlines: the echo is the line that holds the
    # position, the caret sits at its column in that line
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, "content", "-")
    assert code == EXIT_INPUT_ERROR and out == ""
    assert err.splitlines()[1:] == ["  " + line, "  " + " " * caret_at + "^"]


def test_periodic_rejects_bad_lattice_before_expression(capsys):
    code, _, err = run(capsys, "periodic", "T + Y", "--lattice", "1,2;2,4")
    assert code == EXIT_INPUT_ERROR
    assert err.startswith("error: invalid lattice")


def test_in_process_calls_do_not_share_options(capsys):
    # one argument parser serves every call; an option of one call must not
    # become the default of the next
    assert build_arg_parser() is build_arg_parser()
    argv = ("periodic", "(X1^2 - X2^2 + PI^2)*T", "--lattice", "1,0;0,1",
            "--output", "json", "--no-timing")
    outputs = []
    for extra in ((), ("--lattice-radius", "3"), (), ("--lattice-radius", "3")):
        code, out, _ = run(capsys, *argv, *extra)
        assert code == EXIT_UNKNOWN
        [verdict] = json.loads(out)["verdicts"]
        assert verdict["evidence"]["searched_radius"] == (3 if extra else 16)
        outputs.append(out)
    assert outputs[0] == outputs[2] and outputs[1] == outputs[3]


def test_unknown_space_rejected(capsys):
    code, _, err = run(capsys, "classify", "T", "--space", "banach")
    assert code == EXIT_INPUT_ERROR
    assert "unknown space" in err


def test_periodic_space_redirected(capsys):
    code, _, err = run(capsys, "classify", "T", "--space", "periodic")
    assert code == EXIT_INPUT_ERROR
    assert "periodic" in err


def test_zero_denominator_box_halfwidth_is_an_input_error(capsys):
    code, out, err = run(capsys, "classify", "X1*T", "--space", "tempered",
                         "--box-halfwidth", "1/0")
    assert code == EXIT_INPUT_ERROR
    assert err.startswith("error:")
    assert out == ""


@pytest.mark.parametrize("argv, named", [
    (("classify", "T", "--dim", "-1"), "error: --dim must be nonnegative, got -1\n"),
    (("content", "T", "--dim", "-2"), "error: --dim must be nonnegative, got -2\n"),
    (("classify", "T", "--dim", "33"), "error: --dim must be at most 32, got 33\n"),
    (("witness", "X1*T", "--freq", "1/0"), "--freq"),
    # --max-depth 0 is admitted, so the bound is nonnegative
    (("classify", "X1*T", "--max-depth", "-1"), "error: --max-depth must be nonnegative\n"),
    (("classify", "X1*T", "--box-halfwidth", "0"), "error: --box-halfwidth must be positive\n"),
    (("periodic", "X1*T", "--lattice", "1", "--groebner-cap", "0"),
     "error: --groebner-cap must be positive\n"),
    (("periodic", "X1*T", "--lattice", "1", "--lattice-radius", "0"),
     "error: --lattice-radius must be positive\n"),
    # numbers in flags follow the grammar's rational: no exponent or decimal form
    (("periodic", "X1*T", "--lattice", "1e1000000"), "invalid lattice: --lattice: "),
    (("classify", "X1*T", "--space", "tempered", "--box-halfwidth", "1e30000000"),
     "--box-halfwidth: Invalid literal for Fraction: '1e30000000'"),
    (("witness", "T-X1^2", "--freq", "1e30000000"), "--freq"),
    (("periodic", "X1*T", "--lattice", "1.5"), "invalid lattice"),
    (("periodic", "X1*T", "--lattice", "\u0661"), "invalid lattice"),
    (("classify", "X1*T", "--box-halfwidth", "1/0"), "--box-halfwidth: zero denominator in '1/0'"),
    (("periodic", "X1*T", "--lattice", "1/0"), "--lattice: zero denominator in '1/0'"),
], ids=["classify-dim", "content-dim", "classify-dim-max", "witness-freq", "max-depth",
        "box-halfwidth", "groebner-cap", "lattice-radius",
        "lattice-exponent", "box-halfwidth-exponent", "freq-exponent", "lattice-decimal",
        "lattice-arabic-indic", "box-halfwidth-zero-denominator", "lattice-zero-denominator"])
def test_input_error_names_the_flag(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INPUT_ERROR
    assert err.startswith("error:") and named in err
    assert out == ""


@pytest.mark.parametrize("argv, caret", [
    (("classify", "7" * 4301 + "*T"), 0),
    (("classify", "2^9999*2^9999*T"), 6),
    (("classify", "1/3^6300*T + 1/5^4300*T", "--space", "tempered"), 11),
    (("classify", "X33*T"), 0),
    (("classify", "X1*T", "--dim", "33"), None),
    (("periodic", "X1*T", "--lattice", ";".join(",".join(str(int(i == j)) for j in range(33))
                                                for i in range(33))), None),
    # a flag's literal is held to the parser's digit limit
    (("periodic", "X1^2*T+4*PI^2*T", "--lattice", "9" * 4300, "--output", "json"), None),
    # a failed certificate whose value has too many digits to print
    (("witness", "T-X1^2", "--freq", "1/" + "7" * 2200), None),
], ids=["literal", "product", "sum", "variable", "dim", "lattice",
        "lattice-literal", "certificate-value"])
def test_input_limits_exit_1(capsys, argv, caret):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INPUT_ERROR and out == ""
    assert err.startswith("error:")
    assert "set_int_max_str_digits" not in err  # no digit-limit error from str()
    if caret is not None:
        assert err.splitlines()[-1] == "  " + " " * caret + "^"


def test_unknown_exit_code(capsys):
    # unbounded pi-graded zero set: the truncated lattice search stays UNKNOWN
    code, out, _ = run(capsys, "periodic", "(X1^2 - X2^2 + PI^2)*T",
                       "--lattice", "1,0;0,1", "--no-timing")
    assert code == EXIT_UNKNOWN


def test_tempered_unknown_exit_code(capsys):
    code, out, _ = run(capsys, "classify", "X1^2+X2^2-4*X1-2*X2+1", "--space", "tempered",
                       "--output", "json", "--no-timing")
    assert code == EXIT_UNKNOWN
    [v] = json.loads(out)["verdicts"]
    assert v["status"] == "UNKNOWN" and v["rule"] == "content-variety-undecided"
    assert v["evidence"]["emptiness"]["diagnostics"]["reason"] == "depth-cap"


@pytest.mark.parametrize("argv", [
    ("classify", "X1*X2*T", "--space", "tempered"),
    ("periodic", "X1^2*T + 4*PI^2*T", "--lattice", "1"),
], ids=["classify", "periodic"])
def test_timing_only_without_no_timing(capsys, argv):
    code, out, _ = run(capsys, *argv, "--output", "json")
    assert code == EXIT_OK
    timing = json.loads(out)["timing_seconds"]
    assert isinstance(timing, float) and timing >= 0
    code, out, _ = run(capsys, *argv, "--output", "json", "--no-timing")
    assert code == EXIT_OK
    assert "timing_seconds" not in json.loads(out)


def test_periodic_fixture(capsys):
    code, out, _ = run(capsys, "periodic", "X1^2*T + 4*PI^2*T", "--lattice", "1",
                       "--output", "json", "--no-timing")
    assert code == EXIT_OK
    report = json.loads(out)
    [v] = report["verdicts"]
    assert v["status"] == "NONTRIVIAL"
    assert v["evidence"]["lattice_point"] == [1]


def test_invalid_lattice(capsys):
    code, _, err = run(capsys, "periodic", "T", "--lattice", "1,2;2,4")
    assert code == EXIT_INPUT_ERROR
    assert "lattice" in err
    code2, _, err2 = run(capsys, "periodic", "T", "--lattice", "1,0")
    assert code2 == EXIT_INPUT_ERROR


def test_content_command(capsys):
    code, out, _ = run(capsys, "content", "T - (X1^2+X2^2)", "--output", "json",
                       "--no-timing")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["content"]["generators"] == ["-X1^2 - X2^2", "1"]


def test_witness_command(capsys):
    code, out, _ = run(capsys, "witness", "(X1^2+X2^2+1)*(T+1)", "--freq", "1,0",
                       "--output", "json", "--no-timing")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["witness"]["exact_certificate_ok"] is True
    assert report["witness"]["sampled_residual_max"] < 1e-12
    # beyond float range the residual sweep reads null / n/a, and the
    # certified verdicts stand
    big_freq = "9" * 400 + ",0"
    code, out, _ = run(capsys, "witness", "X2*T", "--freq", big_freq,
                       "--output", "json", "--no-timing")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["witness"]["exact_certificate_ok"] is True
    assert report["witness"]["sampled_residual_max"] is None
    assert "NaN" not in out
    code, out, _ = run(capsys, "witness", "X2*T", "--freq", big_freq, "--no-timing")
    assert code == EXIT_OK and "certificate OK, residual max n/a" in out
    code, out, _ = run(capsys, "classify", "2^2000*X1*T", "--output", "json", "--no-timing")
    assert code == EXIT_OK
    verdicts = json.loads(out)["verdicts"]
    assert len(verdicts) == 9
    assert [v["witness"]["sampled_residual_max"] for v in verdicts if "witness" in v] == [None]
    code, out, _ = run(capsys, "periodic", "2^2000*X1*T", "--lattice", "1", "--no-timing")
    assert code == EXIT_OK and out.rstrip().endswith("residual max n/a")


def test_witness_rejects_non_annihilating_freq(capsys):
    code, _, err = run(capsys, "witness", "T - X1^2", "--freq", "1")
    assert code == EXIT_INPUT_ERROR
    assert "a_0" in err or "a_1" in err


def test_witness_auto(capsys):
    code, out, _ = run(capsys, "witness", "X1*X2*T", "--auto",
                       "--output", "json", "--no-timing")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["witness"]["exact_certificate_ok"] is True


def _witness_line_residual(out: str, prefix: str) -> float:
    [line] = [ln for ln in out.splitlines() if ln.startswith(prefix)]
    return float(line[len(prefix):])


def test_text_output_names_the_witness(capsys):
    code, out, _ = run(capsys, "classify", "X1*X2*T", "--no-timing")
    assert code == EXIT_OK
    assert "  tempered         NONTRIVIAL  [content-variety-nonempty]\n" in out
    prefix = "    witness ConstantTensorTheta: frequency (0, 0), residual max "
    assert _witness_line_residual(out, prefix) < 1e-12
    code, out, _ = run(capsys, "periodic", "X1^2*T + 4*PI^2*T", "--lattice", "1",
                       "--no-timing")
    assert code == EXIT_OK
    prefix = "    witness PeriodicExponentialTheta: frequency 2*pi * (1), residual max "
    assert _witness_line_residual(out, prefix) < 1e-9


def test_text_output_lines(capsys):
    code, out, _ = run(capsys, "content", "T - X1^2")
    assert (code, out) == (EXIT_OK, "symbol: -X1^2 + T   (d = 1)\n"
                                     "  generator a_0: -X1^2\n  generator a_1: 1\n")
    # a_j is the coefficient of T^j, also where a power of T is missing
    code, out, _ = run(capsys, "content", "T^2 + X1")
    assert (code, out) == (EXIT_OK, "symbol: T^2 + X1   (d = 1)\n"
                                     "  generator a_0: X1\n  generator a_2: 1\n")
    code, out, _ = run(capsys, "content", "0", "--dim", "1")
    assert (code, out) == (EXIT_OK, "symbol: 0   (d = 1)\n  zero ideal\n")
    code, out, _ = run(capsys, "witness", "(X1^2+X2^2+1)*(T+1)", "--freq", "1,0")
    assert code == EXIT_OK
    assert out.startswith("symbol: X1^2*T + X2^2*T + X1^2 + X2^2 + T + 1   (d = 2)\n")
    assert _witness_line_residual(out, "  certificate OK, residual max ") < 1e-12


@pytest.mark.parametrize("argv, message", [
    (["--auto"], "error: no witness available: verdict is TRIVIAL [content-variety-empty]\n"),
    ([], "error: supply --freq or --auto\n"),
    (["--freq", "1,2"], "error: --freq needs 1 coordinate, got 2\n"),
    (["--freq", "1/0"], "error: --freq: zero denominator in '1/0'\n"),
])
def test_witness_input_errors(capsys, argv, message):
    code, out, err = run(capsys, "witness", "T - X1^2", *argv)
    assert (code, out, err) == (EXIT_INPUT_ERROR, "", message)


def test_witness_auto_exits_2_on_an_unknown_verdict(capsys):
    code, out, err = run(capsys, "witness", "X1^2+X2^2-4*X1-2*X2+1", "--auto")
    assert (code, out) == (EXIT_UNKNOWN, "")
    assert err == ("error: no witness available: verdict is UNKNOWN "
                   "[content-variety-undecided]\n")


def test_stdin_expression(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("T - X1^2"))
    code, out, _ = run(capsys, "classify", "-", "--space", "smooth", "--no-timing")
    assert code == EXIT_OK
    assert "NONTRIVIAL" in out


def test_json_byte_determinism(capsys):
    for argv in (("classify", "(X1^2+X2^2+1)*(T+1)", "--space", "tempered"),
                 ("periodic", "X1^2*T + 4*PI^2*T", "--lattice", "1")):
        outputs = []
        for _ in range(3):
            code, out, _ = run(capsys, *argv, "--output", "json", "--no-timing")
            assert code == EXIT_OK
            # one line of compact JSON
            assert out.endswith("\n") and out.count("\n") == 1
            assert json.loads(out)["verdicts"]
            outputs.append(out)
        assert len(set(outputs)) == 1


def test_closed_stdout_pipe_exits_quietly():
    # the read end is closed before the process starts, so its first write
    # fails; stdout is block-buffered, as in a shell pipeline, so the
    # interpreter's final flush would fail again unless stdout is moved away
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "nullsol.cli", "classify", "X1^2*T+X2+1",
             "--space", "all", "--output", "json"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (EXIT_INPUT_ERROR, b"")


@pytest.mark.parametrize("argv", [
    pytest.param(["classify", "T^100000001 + X1"], id="classify"),
    pytest.param(["content", "T^100000001 + X1"], id="content"),
    pytest.param(["classify", "X1*T^100000001"], id="classify-witness"),
    pytest.param(["classify", "X1*T^3000", "--space", "tempered"], id="tempered-witness"),
    pytest.param(["witness", "X1*T^100000001", "--freq", "0"], id="witness"),
    pytest.param(["periodic", "X1*T^100000001", "--lattice", "1"], id="periodic-witness"),
])
def test_high_power_of_T_with_few_terms_fits_in_memory(argv):
    # T^100000001 + X1 has two nonzero T-coefficients; a list of all 10^8 + 1
    # of them does not fit in the 300 MB address space the child runs in, and
    # neither does a table of Theta derivatives up to the top power
    resource = pytest.importorskip("resource")

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (300 << 20, 300 << 20))

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "nullsol.cli", *argv, "--output", "json", "--no-timing"],
        capture_output=True, env=env, preexec_fn=cap_memory, timeout=60)
    assert proc.returncode == EXIT_OK, proc.stderr.decode()[-500:]
    report = json.loads(proc.stdout)
    if argv[0] == "content":
        assert report["content"]["generators"] == ["X1", "1"]
    elif argv[1] == "T^100000001 + X1":
        assert len(report["verdicts"]) == 9
    else:
        # the residual sweep stops where P_j leaves float range
        witnesses = [v["witness"] for v in report.get("verdicts", []) if "witness" in v]
        for w in witnesses or [report["witness"]]:
            assert w["sampled_residual_max"] is None
            assert w["theta_max_order"] == int(argv[1].rsplit("^", 1)[1])
            assert w["certificate"] == ["0"]


@pytest.mark.parametrize("argv, expected", [
    (["classify"], EXIT_INPUT_ERROR),
    (["bogus"], EXIT_INPUT_ERROR),
    (["classify", "X1*T", "--max-depth", "abc"], EXIT_INPUT_ERROR),
    (["--help"], EXIT_OK),
    (["--version"], EXIT_OK),
    (["classify", "X1*T", "--max-depth", "-1"], EXIT_INPUT_ERROR),
])
def test_usage_error_exit_code(capsys, monkeypatch, argv, expected):
    # argparse's own exit status 2 would read as an UNKNOWN verdict
    monkeypatch.setattr(sys, "argv", ["nullsol"] + argv)
    with pytest.raises(SystemExit) as exit_info:
        console_main()
    assert exit_info.value.code == expected
