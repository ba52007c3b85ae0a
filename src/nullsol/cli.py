"""Command-line front-end.

Subcommands:

  classify  EXPR [--space NAME|all] [--dim D]      triviality per space
  periodic  EXPR --lattice "r1;r2;..."             spatially periodic test
  content   EXPR [--dim D]                         T-coefficient generators
  witness   EXPR (--freq "a,b,..." | --auto)       build + verify a witness

Exit codes: 0 decisive, 1 input/usage error, 2 at least one UNKNOWN verdict.
A JSON report is one line of compact JSON, written by the json module's C
encoder (``python -m json.tool`` pretty-prints it), and byte-identical
across runs for the same input and config when --no-timing is given.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .classifier import (
    UNKNOWN,
    LatticeSpec,
    SolutionSpace,
    Verdict,
    classify,
    periodic_test,
)
from .config import DEFAULT_CONFIG, SolverConfig
from .multipoly import MultiPoly, format_coeff
from .parser import MAX_DIM, ParseError, default_names, parse, parse_rational, print_canonical
from .symbols import t_coefficients
from .variety import EmptinessVerdict
from .witness import CertificateFailure, Witness, build_witness, verify_residual

_ALL_SPACES = [s for s in SolutionSpace if s is not SolutionSpace.PERIODIC]

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_UNKNOWN = 2


def _serialize_emptiness(v: EmptinessVerdict) -> dict:
    return {
        "status": v.status,
        "witness": None if v.witness is None else [str(x) for x in v.witness],
        "certificate": v.certificate,
        "diagnostics": v.diagnostics,
    }


def _serialize_evidence(evidence: dict) -> dict:
    out = {}
    for key in sorted(evidence):
        value = evidence[key]
        if isinstance(value, EmptinessVerdict):
            out[key] = _serialize_emptiness(value)
        else:
            out[key] = value
    return out


def _default_grid(d: int) -> list[tuple[tuple[float, ...], float]]:
    xs = [(0.0,) * d, (1.0,) * d, (-1.0,) * d]
    ts = [0.5, 1.0, 2.0]
    return [(x, t) for x in xs for t in ts]


def _serialize_witness(w: Witness) -> dict:
    report = verify_residual(w, _default_grid(len(w.frequency)))
    return {
        "kind": w.kind,
        "frequency": [str(f) for f in w.frequency],
        "frequency_scale": "2*pi" if w.pi_factor else "1",
        "certificate": [format_coeff(v) for v in w.certificate],
        "theta_max_order": w.theta_max_order,
        "exact_certificate_ok": report.exact_certificate_ok,
        "sampled_residual_max": report.max_numeric_residual,
        "past_ok": report.past_ok,
    }


def _serialize_verdict(space_name: str, v: Verdict) -> dict:
    out = {
        "space": space_name,
        "status": v.status,
        "rule": v.rule,
        "evidence": _serialize_evidence(v.evidence),
    }
    if v.witness is not None:
        out["witness"] = _serialize_witness(v.witness)
    return out


def _residual_text(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.3e}"


def _emit(report: dict, args) -> None:
    if args.output == "json":
        print(json.dumps(report))
        return
    # text rendering
    inp = report.get("input", {})
    print(f"symbol: {inp.get('expression')}   (d = {inp.get('dimension')})")
    for v in report.get("verdicts", []):
        print(f"  {v['space']:<16} {v['status']:<11} [{v['rule']}]")
        w = v.get("witness")
        if w:
            scale = "" if w["frequency_scale"] == "1" else "2*pi * "
            print(f"    witness {w['kind']}: frequency {scale}({', '.join(w['frequency'])}), "
                  f"residual max {_residual_text(w['sampled_residual_max'])}")
    for line in report.get("lines", []):
        print(line)


def _flag_rational(flag: str, text: str) -> Fraction:
    """``parse_rational(text)``, with a ValueError that names ``flag``."""
    try:
        return parse_rational(text)
    except ZeroDivisionError:
        raise ValueError(f"{flag}: zero denominator in {text!r}") from None
    except ValueError as err:
        raise ValueError(f"{flag}: {err}") from None


def _config_from_args(args) -> SolverConfig:
    """DEFAULT_CONFIG with the solver flags this subcommand takes applied;
    a value SolverConfig rejects, or a --dim out of range, is a ValueError
    that names its flag."""
    given = {name: getattr(args, name)
             for name in ("max_depth", "lattice_radius", "groebner_cap")
             if hasattr(args, name)}
    if hasattr(args, "box_halfwidth"):
        given["default_box_halfwidth"] = _flag_rational("--box-halfwidth", args.box_halfwidth)
    dim = getattr(args, "dim", None)
    if dim is not None and not 0 <= dim <= MAX_DIM:
        bound = "nonnegative" if dim < 0 else f"at most {MAX_DIM}"
        raise ValueError(f"--dim must be {bound}, got {dim}")
    try:
        return dataclasses.replace(DEFAULT_CONFIG, **given)
    except ValueError as err:
        # SolverConfig's messages start with the field's name
        name, _, rest = str(err).partition(" ")
        flag = "--" + name.removeprefix("default_").replace("_", "-")
        raise ValueError(f"{flag} {rest}") from None


def _print_parse_error(text: str, err: ParseError) -> None:
    """The error, then the line of ``text`` that holds its position, with a
    caret under it; the end of the input is the end of its last line."""
    pos = min(err.position, len(text.rstrip("\n")))
    start = text.rfind("\n", 0, pos) + 1
    end = text.find("\n", pos)
    line = text[start:] if end < 0 else text[start:end]
    sys.stderr.write(f"error: {err.kind.value}: {err.message}\n")
    sys.stderr.write(f"  {line}\n")
    sys.stderr.write("  " + " " * (pos - start) + "^\n")


def _base_report(p: MultiPoly, d: int, names: list[str]) -> dict:
    return {
        "input": {"expression": print_canonical(p, names), "dimension": d},
        "verdicts": [],
        "diagnostics": {},
        "version": __version__,
    }


def cmd_classify(args, text: str, config: SolverConfig) -> int:
    start = time.perf_counter()
    p, d = parse(text, dim=args.dim)
    if args.space == "all":
        spaces = _ALL_SPACES
    else:
        try:
            spaces = [SolutionSpace(args.space)]
        except ValueError:
            sys.stderr.write(f"error: unknown space {args.space!r}\n")
            return EXIT_INPUT_ERROR
        if spaces[0] is SolutionSpace.PERIODIC:
            sys.stderr.write("error: use the 'periodic' subcommand for periodic spaces\n")
            return EXIT_INPUT_ERROR
    report = _base_report(p, d, default_names(p.nvars))
    any_unknown = False
    for space in spaces:
        verdict = classify(p, space, config)
        any_unknown = any_unknown or verdict.status == UNKNOWN
        report["verdicts"].append(_serialize_verdict(space.value, verdict))
    if not args.no_timing:
        report["timing_seconds"] = time.perf_counter() - start
    _emit(report, args)
    return EXIT_UNKNOWN if any_unknown else EXIT_OK


def _parse_lattice(text: str) -> LatticeSpec:
    rows = []
    for row in text.split(";"):
        entries = [e for chunk in row.split(",") for e in chunk.split()]
        rows.append([_flag_rational("--lattice", e) for e in entries])
    return LatticeSpec.from_rows(rows)


def cmd_periodic(args, text: str, config: SolverConfig) -> int:
    start = time.perf_counter()
    try:
        lattice = _parse_lattice(args.lattice)
    except ValueError as err:
        sys.stderr.write(f"error: invalid lattice: {err}\n")
        return EXIT_INPUT_ERROR
    p, d = parse(text, dim=lattice.dimension, allow_pi=True)
    verdict = periodic_test(p, lattice, config)
    report = _base_report(p, d, default_names(p.nvars, pi_slot=d))
    report["input"]["lattice"] = [[str(x) for x in row] for row in lattice.rows]
    report["verdicts"].append(_serialize_verdict("periodic", verdict))
    if not args.no_timing:
        report["timing_seconds"] = time.perf_counter() - start
    _emit(report, args)
    return EXIT_UNKNOWN if verdict.status == UNKNOWN else EXIT_OK


def cmd_content(args, text: str, config: SolverConfig) -> int:
    p, d = parse(text, dim=args.dim)
    coeffs = t_coefficients(p)
    names = default_names(d, t_last=False)
    gens = [print_canonical(a, names) for _, a in coeffs]
    report = _base_report(p, d, default_names(p.nvars))
    report["content"] = {"dimension": d, "generators": gens}
    report["lines"] = [f"  generator a_{j}: {g}" for (j, _), g in zip(coeffs, gens)] or ["  zero ideal"]
    _emit(report, args)
    return EXIT_OK


def cmd_witness(args, text: str, config: SolverConfig) -> int:
    p, d = parse(text, dim=args.dim)
    if args.auto:
        verdict = classify(p, SolutionSpace.SPATIALLY_TEMPERED, config)
        if verdict.witness is None:
            sys.stderr.write(f"error: no witness available: verdict is {verdict.status} "
                             f"[{verdict.rule}]\n")
            return EXIT_UNKNOWN if verdict.status == UNKNOWN else EXIT_INPUT_ERROR
        witness = verdict.witness
    else:
        if args.freq is None:
            sys.stderr.write("error: supply --freq or --auto\n")
            return EXIT_INPUT_ERROR
        freq = [_flag_rational("--freq", x) for x in args.freq.split(",")]
        if len(freq) != d:
            sys.stderr.write(f"error: --freq needs {d} coordinate{'' if d == 1 else 's'}, "
                             f"got {len(freq)}\n")
            return EXIT_INPUT_ERROR
        try:
            witness = build_witness(p, freq)
        except CertificateFailure as err:
            sys.stderr.write(f"error: {err}\n")
            return EXIT_INPUT_ERROR
    report = _base_report(p, d, default_names(p.nvars))
    report["witness"] = _serialize_witness(witness)
    residual = _residual_text(report["witness"]["sampled_residual_max"])
    report["lines"] = [f"  certificate OK, residual max {residual}"]
    _emit(report, args)
    return EXIT_OK


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nullsol",
        description="Decide whether a linear constant-coefficient PDE admits "
                    "nonzero solutions with zero past, per solution space.",
        epilog='Expression grammar: expr := term ((+|-) term)*; '
               'term := factor (* factor)*; factor := base (^ uint)?; '
               'base := T | Xk | i | PI | uint(/uint)? | (expr) | - factor, '
               'with PI admitted by periodic only. '
               'Use "-" to read the expression from stdin.')
    parser.add_argument("--version", action="version", version=f"nullsol {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    solver_flags = {
        "--max-depth": dict(type=int, default=DEFAULT_CONFIG.max_depth),
        "--box-halfwidth": dict(default=str(DEFAULT_CONFIG.default_box_halfwidth),
                                help="half-width of the fallback search box (rational)"),
        "--lattice-radius": dict(type=int, default=DEFAULT_CONFIG.lattice_radius),
        "--groebner-cap": dict(type=int, default=DEFAULT_CONFIG.groebner_cap),
    }

    def add_common(sp, *flags):
        sp.add_argument("expression", help='polynomial symbol, or "-" for stdin')
        sp.add_argument("--output", choices=("text", "json"), default="text")
        sp.add_argument("--no-timing", action="store_true",
                        help="omit timing fields (byte-determinism for tests)")
        for flag in flags:
            sp.add_argument(flag, **solver_flags[flag])

    search = ("--max-depth", "--box-halfwidth", "--groebner-cap")

    sp = sub.add_parser("classify", help="classify across solution spaces")
    add_common(sp, *search)
    sp.add_argument("--space", default="all",
                    help="one of: " + ", ".join(s.value for s in _ALL_SPACES) + ", all")
    sp.add_argument("--dim", type=int, default=None,
                    help="spatial dimension d (default: inferred from Xk indices)")
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("periodic", help="spatially periodic triviality test")
    add_common(sp, "--lattice-radius", "--groebner-cap")
    sp.add_argument("--lattice", required=True,
                    help='d x d rational period matrix, rows ";"-separated, e.g. "1,0;0,1"')
    sp.set_defaults(func=cmd_periodic)

    sp = sub.add_parser("content", help="print the T-coefficient generators")
    add_common(sp)
    sp.add_argument("--dim", type=int, default=None)
    sp.set_defaults(func=cmd_content)

    sp = sub.add_parser("witness", help="build and verify an explicit null solution")
    add_common(sp, *search)
    sp.add_argument("--dim", type=int, default=None)
    sp.add_argument("--freq", default=None, help='frequency, e.g. "1,0" or "1/2,0"')
    sp.add_argument("--auto", action="store_true",
                    help="search for a frequency via the emptiness engine")
    sp.set_defaults(func=cmd_witness)
    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    text = sys.stdin.read() if args.expression == "-" else args.expression
    try:
        return args.func(args, text, _config_from_args(args))
    except ParseError as err:
        _print_parse_error(text, err)
        return EXIT_INPUT_ERROR
    except (ValueError, ZeroDivisionError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_INPUT_ERROR


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which is the UNKNOWN code here;
        # --help and --version exit 0.
        code = EXIT_INPUT_ERROR if exc.code else EXIT_OK
    except BrokenPipeError:
        # The reader went away; point stdout at devnull so the interpreter's
        # final flush does not fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_INPUT_ERROR
    sys.exit(code)


if __name__ == "__main__":
    console_main()
