"""Independent verdict checker: standard library ``Fraction`` arithmetic only.

The oracle never imports ``nullsol``.  It reads the program's serialized
verdicts and checks them against the truth each input was built with:

* a real point or witness frequency the program returns is re-evaluated
  exactly in the benchmark's own copy of the polynomials;
* a decisive verdict must agree with the truth by construction;
* UNKNOWN is accepted as honest, but does not count as decided.

Any contradiction is reported as a failure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from workloads import (EMPTY, NONEMPTY, NONTRIVIAL, SPACES, TRIVIAL, Case, eval_real,
                       gi_add, gi_mul)

UNKNOWN = "UNKNOWN"
EXIT_OK, EXIT_UNKNOWN = 0, 2


@dataclass(frozen=True)
class Outcome:
    statuses: tuple[str, ...]
    decided: bool
    failure: str | None = None


def _fail(reason: str, statuses=()) -> Outcome:
    return Outcome(tuple(statuses), False, reason)


def _i_power(n: int):
    return ((1, 0), (0, 1), (-1, 0), (0, -1))[n % 4]


def vanishes_on_imaginary_axis(coeffs, xi) -> bool:
    """Every T-coefficient a_j(X) is zero at X = i*xi, exactly."""
    for poly in coeffs:
        acc = (Fraction(0), Fraction(0))
        for exps, c in poly.items():
            mono = Fraction(1)
            for x, e in zip(xi, exps):
                mono *= x ** e
            acc = gi_add(acc, gi_mul(c, gi_mul(_i_power(sum(exps)), (mono, Fraction(0)))))
        if acc != (0, 0):
            return False
    return True


def resonates(coeffs, dim: int, v) -> bool:
    """Every T-coefficient a_j(X, PI) is zero at X = 2*pi*i*v, PI = pi.

    A term c * X^e * PI^m becomes c * (2i)^|e| * v^e * pi^(|e| + m); pi
    is transcendental, so the value is zero iff each pi-grade sums to 0.
    """
    for poly in coeffs:
        grades: dict[int, tuple[Fraction, Fraction]] = {}
        for exps, c in poly.items():
            e, m = exps[:dim], exps[dim]
            mono = Fraction(2 ** sum(e))
            for x, k in zip(v, e):
                mono *= x ** k
            term = gi_mul(c, gi_mul(_i_power(sum(e)), (mono, Fraction(0))))
            g = sum(e) + m
            grades[g] = gi_add(grades.get(g, (Fraction(0), Fraction(0))), term)
        if any(val != (0, 0) for val in grades.values()):
            return False
    return True


def check_emptiness(case: Case, output: str) -> Outcome:
    """find/prove: ``output`` is the JSON the benchmark serialized."""
    try:
        report = json.loads(output)
        status = report["status"]
        point = (None if report["witness"] is None
                 else [Fraction(x) for x in report["witness"]])
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as err:
        return _fail(f"unreadable verdict: {err}")
    if status == UNKNOWN:
        return Outcome((status,), False)
    if status == NONEMPTY:
        if point is None or len(point) != case.dim:
            return _fail("NONEMPTY without a point of the right dimension", (status,))
        if any(eval_real(p, point) != 0 for p in case.polys):
            return _fail(f"NONEMPTY point {report['witness']} is not a common zero",
                         (status,))
    elif status != EMPTY:
        return _fail(f"unexpected status {status!r}", (status,))
    if status != case.truth:
        return _fail(f"{status} contradicts the construction ({case.truth})", (status,))
    return Outcome((status,), True)


def _read_cli(exit_code, stdout: str):
    if exit_code not in (EXIT_OK, EXIT_UNKNOWN):
        raise ValueError(f"exit code {exit_code}")
    report = json.loads(stdout)
    verdicts = report["verdicts"]
    unknown = any(v["status"] == UNKNOWN for v in verdicts)
    if unknown != (exit_code == EXIT_UNKNOWN):
        raise ValueError(f"exit code {exit_code} does not match the verdicts")
    return verdicts


def _witness_frequency(verdict: dict, scale: str):
    w = verdict.get("witness")
    if w is None or w.get("frequency_scale") != scale:
        raise ValueError("NONTRIVIAL without a witness of the expected scale")
    return [Fraction(x) for x in w["frequency"]]


def check_classify(case: Case, exit_code, stdout: str) -> Outcome:
    try:
        verdicts = _read_cli(exit_code, stdout)
    except (ValueError, KeyError, TypeError) as err:
        return _fail(f"unusable CLI result: {err}")
    statuses = tuple(v.get("status") for v in verdicts)
    if sorted(v.get("space") for v in verdicts) != sorted(SPACES):
        return _fail("classify did not report every space", statuses)
    for v in verdicts:
        space, status = v["space"], v["status"]
        if status == UNKNOWN and space == "tempered":
            continue
        if status != case.truth[space]:
            return _fail(f"{space}: {status} contradicts the construction "
                         f"({case.truth[space]})", statuses)
        if space == "tempered" and status == NONTRIVIAL:
            try:
                xi = _witness_frequency(v, "1")
            except (ValueError, ZeroDivisionError) as err:
                return _fail(f"tempered: {err}", statuses)
            if len(xi) != case.dim or not vanishes_on_imaginary_axis(case.polys, xi):
                return _fail(f"tempered witness {v['witness']['frequency']} does not "
                             "annihilate the T-coefficients", statuses)
    return Outcome(statuses, UNKNOWN not in statuses)


def check_periodic(case: Case, exit_code, stdout: str) -> Outcome:
    try:
        verdicts = _read_cli(exit_code, stdout)
        (verdict,) = verdicts
        status = verdict["status"]
    except (ValueError, KeyError, TypeError) as err:
        return _fail(f"unusable CLI result: {err}")
    if status == UNKNOWN:
        return Outcome((status,), False)
    if status == NONTRIVIAL:
        try:
            v = _witness_frequency(verdict, "2*pi")
        except (ValueError, ZeroDivisionError) as err:
            return _fail(str(err), (status,))
        if len(v) != case.dim or not resonates(case.polys, case.dim, v):
            return _fail(f"lattice witness {verdict['witness']['frequency']} does not "
                         "resonate", (status,))
    elif status != TRIVIAL:
        return _fail(f"unexpected status {status!r}", (status,))
    if status != case.truth:
        return _fail(f"{status} contradicts the construction ({case.truth})", (status,))
    return Outcome((status,), True)
