"""nullsol benchmark: time to a checked verdict, per workload and per layer.

Run from the root of a source checkout::

    python3 bench/run.py --workload find --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``find``, ``prove``, ``classify``,
``periodic``.  One process runs one workload as a closed loop with one
client: the next input is sent when the previous verdict is serialized.
The seeded corpus is run in whole passes until the next pass would not
fit in ``--seconds`` (at least one pass).  Every verdict is checked by
the independent oracle in ``oracle.py``, outside the timed region.

An input's latency is its median over passes, and every pass runs the
corpus in a different (seeded) order.  On a shared machine the speed of
the same code drifts by tens of percent, and by up to 2x within minutes.
Before each input the benchmark times a fixed block of pure-Python
``Fraction`` arithmetic that does not touch the program; the reported
times are scaled by ``REFERENCE_S / median(reference times)``, so they
read as times on a machine where that block takes ``REFERENCE_S``.  The
raw times and the reference are printed in the human-readable lines.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of one
traced pass (counts from the first, times as the median over passes)
and the tracing overhead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 1 when the oracle contradicts any verdict, 2 when the checkout has no
program to benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import oracle
import tracing
from workloads import WORKLOADS, Case, make_corpus

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7

# The speed reference: square a small dense polynomial and evaluate it.
REFERENCE_S = 0.0025
_REF_POLY = {(i, j): Fraction(i - 2 * j + 1, 3 + i + j)
             for i in range(4) for j in range(4) if i + j <= 4}
_REF_POINTS = [(Fraction(k, 7), Fraction(-k, 11)) for k in range(1, 8)]

END_TO_END_UNITS = {
    "inputs_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
    "decided_frac": "frac", "setup_s": "s", "peak_rss_mb": "MB",
}

# Layers named in the per-layer metrics, and those whose self time
# shares are reported.
SHARE_LAYERS = ("intervals", "subdivision", "boundedness", "groebner", "emptiness",
                "parser", "symbols", "classifier", "witness", "cli", "lattice",
                tracing.ROOT)
STATUSES = ("EMPTY", "NONEMPTY", "UNKNOWN", "TRIVIAL", "NONTRIVIAL")


def reference_seconds() -> float:
    """Time of the fixed speed-reference block (independent of nullsol)."""
    start = time.perf_counter()
    square: dict = {}
    for (a, ca), (b, cb) in product(_REF_POLY.items(), repeat=2):
        e = (a[0] + b[0], a[1] + b[1])
        square[e] = square.get(e, 0) + ca * cb
    for x, y in _REF_POINTS:
        sum(c * x ** i * y ** j for (i, j), c in _REF_POLY.items())
    return time.perf_counter() - start


def import_seconds() -> float:
    """Wall time of ``import nullsol.cli`` in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import nullsol.cli; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout)


# -- one input -------------------------------------------------------------

def _emptiness_input(nullsol, case: Case):
    dim = case.dim
    return nullsol.RealPolySystem(dim, tuple(nullsol.MultiPoly(dim, p) for p in case.polys))


def _cli_argv(case: Case) -> list[str]:
    # Options first, then "--": an expression may start with "-".
    common = ["--output", "json", "--no-timing", "--", case.expr]
    if case.workload == "classify":
        return ["classify", "--space", "all"] + common
    return ["periodic", "--lattice", case.lattice] + common


def prepare(nullsol, case: Case):
    """The program's input, built before the timer starts."""
    if case.workload in ("find", "prove"):
        return _emptiness_input(nullsol, case)
    return _cli_argv(case)


def call(nullsol, case: Case, program_input):
    """Run one input to a serialized verdict; returns (exit code, text)."""
    if case.workload in ("find", "prove"):
        v = nullsol.decide_emptiness(program_input)
        text = json.dumps({
            "status": v.status,
            "witness": None if v.witness is None else [str(x) for x in v.witness],
            "certificate": v.certificate})
        return 0, text
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = nullsol.cli.main(program_input)
        except SystemExit as exc:  # argparse usage error
            code = exc.code
    return code, out.getvalue()


def check(case: Case, code, text: str) -> oracle.Outcome:
    if case.workload in ("find", "prove"):
        return oracle.check_emptiness(case, text)
    if case.workload == "classify":
        return oracle.check_classify(case, code, text)
    return oracle.check_periodic(case, code, text)


# -- passes ------------------------------------------------------------------

class Run:
    """Latencies and oracle outcomes of every input run so far."""

    def __init__(self, nullsol, corpus: list[Case]):
        self.nullsol = nullsol
        self.corpus = corpus
        self.inputs = [prepare(nullsol, case) for case in corpus]
        self.passes: list[list[float]] = []  # per pass, per input: seconds
        self.references: list[float] = []     # one before every input
        self.outcomes: list[oracle.Outcome] = []
        self.failures: list[str] = []

    def one_pass(self, tracer: tracing.Tracer | None = None) -> float:
        """Run the corpus once, in an order fixed by the pass number (so an
        input does not always follow the same neighbour); returns the
        summed per-input time."""
        order = list(range(len(self.corpus)))
        random.Random(len(self.passes)).shuffle(order)
        latencies = [0.0] * len(order)
        for index in order:
            case, program_input = self.corpus[index], self.inputs[index]
            self.references.append(reference_seconds())
            if tracer is not None:
                tracer.input_id = index
                tracer.open(tracing.ROOT, tracing.ROOT)
            start = time.perf_counter()
            try:
                code, text = call(self.nullsol, case, program_input)
            except Exception as exc:  # the program raised: a failed input
                code, text = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.close()
            latencies[index] = elapsed
            outcome = (check(case, code, text) if code is not None
                       else oracle.Outcome((), False, f"raised {text}"))
            self.outcomes.append(outcome)
            if outcome.failure:
                self.failures.append(f"{case.family} d={case.dim} #{index}: "
                                     f"{outcome.failure}")
        self.passes.append(latencies)
        return sum(latencies)

    def latencies(self) -> list[float]:
        """Each input's median over passes."""
        return [statistics.median(times) for times in zip(*self.passes)]


def _keep_going(started: float, last: float, seconds: float) -> bool:
    """Whether another pass as long as the last one fits in the budget."""
    return time.perf_counter() - started + last <= seconds


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(run: Run, seconds: float) -> dict:
    """Set-up is sampled between passes, so that its median spans the run."""
    import_seconds()  # may compile bytecode; not a sample
    setup = []
    started = time.perf_counter()
    while True:
        setup += [import_seconds(), import_seconds()]
        begin = time.perf_counter()
        run.one_pass()
        if not _keep_going(started, time.perf_counter() - begin, seconds):
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(import_seconds())
    lat = run.latencies()
    reference = statistics.median(run.references)
    raw = {"inputs_per_s": len(lat) / sum(lat),
           "latency_p50_ms": 1000 * percentile(lat, 50),
           "latency_p90_ms": 1000 * percentile(lat, 90),
           "setup_s": statistics.median(setup)}
    print(f"reference block {1000 * reference:.4f} ms (nominal {1000 * REFERENCE_S} ms); "
          "raw: " + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()))
    scale = REFERENCE_S / reference
    return {
        "inputs_per_s": raw["inputs_per_s"] / scale,
        "latency_p50_ms": raw["latency_p50_ms"] * scale,
        "latency_p90_ms": raw["latency_p90_ms"] * scale,
        "decided_frac": sum(o.decided for o in run.outcomes) / len(run.outcomes),
        "setup_s": raw["setup_s"] * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: tracing.Tracer, pass_s: float, outcomes) -> dict:
    """Per-layer metrics of the traced pass currently held by ``tracer``."""
    self_s = tracer.self_seconds()
    calls = tracer.calls()
    sub = [r for r in tracer.results_of("subdivision") if isinstance(r, tuple)]
    boxes = sum(stats.get("boxes_processed", 0) for _, stats in sub)
    discarded = sum(stats.get("boxes_discarded", 0) for _, stats in sub)
    kinds = [kind for kind, _ in sub]
    radii = tracer.results_of("boundedness")
    units = tracer.results_of("groebner")
    statuses = [s for o in outcomes for s in o.statuses]
    points = tracer.leaf_calls["lattice"]
    m = {
        "intervals.enclose_calls": tracer.leaf_calls["intervals"],
        "intervals.enclose_s": self_s["intervals"],
        "subdivision.calls": calls["subdivision"],
        "subdivision.self_s": self_s["subdivision"],
        "subdivision.boxes": boxes,
        "subdivision.boxes_per_s": _frac(boxes, tracer.inclusive_seconds("subdivision")),
        "subdivision.discard_frac": _frac(discarded, boxes),
        "subdivision.exact_zero": kinds.count("ExactZero"),
        "subdivision.no_zero": kinds.count("NoZeroInBox"),
        "subdivision.gave_up": kinds.count("CandidateBoxes"),
        "boundedness.calls": calls["boundedness"],
        "boundedness.self_s": self_s["boundedness"],
        "boundedness.radius_frac": _frac(sum(r is not None for r in radii), len(radii)),
        "groebner.calls": calls["groebner"],
        "groebner.self_s": self_s["groebner"],
        "groebner.unit_frac": _frac(sum(u is True for u in units), len(units)),
        "groebner.cap_frac": _frac(sum(u is None for u in units), len(units)),
        "parser.calls": calls["parser"],
        "parser.self_s": self_s["parser"],
        "symbols.self_s": self_s["symbols"],
        "witness.calls": calls["witness"],
        "witness.self_s": self_s["witness"],
        "cli.self_s": self_s["cli"],
        "lattice.points": points,
        "lattice.self_s": self_s["lattice"],
        "lattice.points_per_s": _frac(points, tracer.inclusive_seconds("lattice")),
    }
    for layer in SHARE_LAYERS:
        m[f"{layer}.self_frac"] = _frac(self_s[layer], pass_s)
    for status in STATUSES:
        m[f"verdicts.{status}"] = statuses.count(status)
    return m


def per_layer(run: Run, seconds: float, tracer: tracing.Tracer) -> tuple[dict, list[str]]:
    """Alternate untraced and traced passes; see the module docstring."""
    started = time.perf_counter()
    plain, traced, passes = [], [], []
    while True:
        begin = time.perf_counter()
        plain.append(run.one_pass())
        tracer.reset()
        first = len(run.outcomes)
        with tracer:
            traced.append(run.one_pass(tracer))
        passes.append(layer_metrics(tracer, traced[-1], run.outcomes[first:]))
        if not _keep_going(started, time.perf_counter() - begin, seconds):
            break
    m = dict(passes[0])
    for name in m:
        if name.endswith(("_s", "_per_s", "_frac")):
            m[name] = statistics.median(p[name] for p in passes)
    m["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    m["failed_frac"] = len(run.failures) / len(run.outcomes)
    return m, tracer.absent


# -- reporting ---------------------------------------------------------------

def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nullsol" / "cli.py").is_file():
        sys.stderr.write(f"error: no nullsol sources under {SRC}; run from a checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    import nullsol
    import nullsol.cli  # noqa: F401  (the CLI workloads call nullsol.cli.main)

    run = Run(nullsol, make_corpus(args.workload, args.seed))
    # The corpus lives as long as the run; keep full collections from
    # rescanning it, as they would not in a one-input CLI process.
    gc.collect()
    gc.freeze()
    if args.trace:
        metrics, absent = per_layer(run, args.seconds, tracing.Tracer())
        if absent:
            print(f"absent layers (reported as 0): {', '.join(absent)}")
    else:
        metrics = end_to_end(run, args.seconds)
        metrics["failed_frac"] = len(run.failures) / len(run.outcomes)

    print(f"workload {args.workload}, seed {args.seed}: {len(run.corpus)} inputs per pass, "
          f"{len(run.passes)} passes, {len(run.failures)} failed")
    for failure in run.failures[:20]:
        print(f"FAILED {failure}")
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit_of(name)}")
    if not args.trace:
        metrics.pop("failed_frac")  # carried by "failed"/"attempted"; usually 0
    print(json.dumps({
        "correct": not run.failures,
        "attempted": len(run.outcomes),
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 1 if run.failures else 0


if __name__ == "__main__":
    sys.exit(main())
