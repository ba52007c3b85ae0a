"""Tests of the benchmark itself: generator, oracle and tracer.

Run with ``PYTHONPATH=src python -m pytest bench`` from the repository root.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import nullsol  # noqa: E402
import nullsol.cli  # noqa: E402,F401

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, make_corpus, mat_inverse, mat_vec  # noqa: E402


def test_seed_reproduces_identical_inputs():
    for workload in WORKLOADS:
        first, again = make_corpus(workload, 7), make_corpus(workload, 7)
        assert first == again
        assert [c.expr for c in first] == [c.expr for c in again]
        assert first != make_corpus(workload, 8)


def test_quotas_do_not_depend_on_the_seed():
    for workload in WORKLOADS:
        mixes = {tuple((c.family, c.dim) for c in make_corpus(workload, seed))
                 for seed in (1, 2)}
        assert len(mixes) == 1


def test_periodic_truth_by_construction():
    for case in make_corpus("periodic", 3):
        if case.family == "resonant":
            rows = [[Fraction(x) for x in row] for row in case.info["lattice"]]
            v = mat_vec(mat_inverse(rows), case.info["k0"])
            assert oracle.resonates(case.polys, case.dim, v)


def _one(workload, family, seed=5):
    return next(c for c in make_corpus(workload, seed) if c.family == family)


def test_oracle_accepts_the_program_and_rejects_injected_wrong_verdicts():
    case = _one("find", "linear-factors")
    system = run.prepare(nullsol, case)
    code, text = run.call(nullsol, case, system)
    assert run.check(case, code, text).failure is None

    report = json.loads(text)
    wrong_status = json.dumps(dict(report, status="EMPTY", witness=None))
    assert "contradicts" in oracle.check_emptiness(case, wrong_status).failure
    shifted = [str(Fraction(x) + 1) for x in case.info["planted"]]
    wrong_point = json.dumps(dict(report, status="NONEMPTY", witness=shifted))
    assert "not a common zero" in oracle.check_emptiness(case, wrong_point).failure

    prove = _one("prove", "posdef")
    claimed = json.dumps({"status": "NONEMPTY", "witness": ["0"] * prove.dim,
                          "certificate": None})
    assert oracle.check_emptiness(prove, claimed).failure


def test_oracle_checks_cli_reports():
    case = _one("classify", "mixed-x1x2t")
    argv = run.prepare(nullsol, case)
    code, text = run.call(nullsol, case, argv)
    assert run.check(case, code, text).failure is None

    report = json.loads(text)
    tempered = next(v for v in report["verdicts"] if v["space"] == "tempered")
    tempered["witness"]["frequency"] = ["1", "1"]
    assert "does not annihilate" in oracle.check_classify(case, code, json.dumps(report)).failure
    tempered["status"] = "TRIVIAL"
    assert "contradicts" in oracle.check_classify(case, code, json.dumps(report)).failure
    assert oracle.check_classify(case, 1, text).failure

    periodic = _one("periodic", "resonant")
    lying = {"verdicts": [{"space": "periodic", "status": "TRIVIAL"}]}
    assert "contradicts" in oracle.check_periodic(periodic, 0, json.dumps(lying)).failure
    lying = {"verdicts": [{"space": "periodic", "status": "NONTRIVIAL", "witness": {
        "frequency": ["1/7"] * periodic.dim, "frequency_scale": "2*pi"}}]}
    assert "does not resonate" in oracle.check_periodic(periodic, 0, json.dumps(lying)).failure


def test_usage_error_counts_as_failure():
    case = _one("classify", "mixed-x1x2t")
    code, text = run.call(nullsol, case, ["classify", "-X1*T"])
    assert code == 2
    assert run.check(case, code, text).failure


def test_traced_run_tolerates_missing_layer_functions():
    ghosts = (tracing.WrapPoint("ghost", "nullsol.variety", "no_such_function"),
              tracing.WrapPoint("phantom", "nullsol.no_such_module", "f"))
    tracer = tracing.Tracer(points=tracing.WRAP_POINTS + ghosts)
    corpus = [c for c in make_corpus("find", 1) if c.dim == 1][:3]
    bench = run.Run(nullsol, corpus)
    original = nullsol.variety.enclose
    with tracer:
        seconds = bench.one_pass(tracer)
    assert nullsol.variety.enclose is original
    assert tracer.absent == ["ghost", "phantom"]
    assert not bench.failures
    metrics = run.layer_metrics(tracer, seconds, bench.outcomes)
    assert metrics["subdivision.calls"] == 3
    assert metrics["intervals.enclose_calls"] > 0
    assert sum(metrics[f"verdicts.{s}"] for s in run.STATUSES) == 3
    roots = [s for s in tracer.spans if s.layer == tracing.ROOT]
    assert sorted(s.input_id for s in roots) == [0, 1, 2]
