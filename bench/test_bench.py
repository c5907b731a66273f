"""Tests of the benchmark itself: every check rejects a perturbed output,
the references agree with each other, and traced counts repeat exactly.

Run from the root of the repository::

    python -m pytest bench
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import cesarops  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _op(name, label):
    return next(op for op in workloads.build(name, 7).ops if op.label == label)


# --------------------------------------------------------------------------
# references


def test_dense_besov_reference_meets_the_p2_closed_form():
    coeffs = ref.test_coefficients(0.75, 2.0, 128)
    assert ref.besov_dense(coeffs, 2.0) == pytest.approx(
        ref.besov_p2(coeffs), rel=1e-12)


def test_power_moments_match_mpmath():
    closed = ref.power_moments(1.0, 0.5, 1000)
    for n in (0, 3, 1000):
        assert closed[n] == pytest.approx(
            ref.powerlog_moment(1.0, 0.5, 0.0, n), rel=1e-12)


def test_lipschitz_bracket_is_ordered_and_holds_the_grid_sup():
    coeffs = ref.image_coefficients(ref.power_moments(1.0, 1.0, 512),
                                    ref.test_coefficients(0.875, 2.0, 512))
    lo, hi = ref.lipschitz_bracket(coeffs, 0.5)
    est = cesarops.mean_lipschitz_norm(cesarops.PowerSeries(coeffs), 2.0, 0.5)
    assert lo <= est.value * (1 + 1e-12) and est.value <= hi * (1 + 1e-12)


@pytest.mark.parametrize("components, s, alpha, expected", [
    ([{"kind": "power_log", "c": 1.0, "gamma": 1.0, "beta": 0.0}], 1.0, 0.0,
     ref.BOUNDED),
    ([{"kind": "power_log", "c": 1.0, "gamma": 1.0, "beta": 1.0}], 1.0, 0.5,
     ref.VANISHING),
    ([{"kind": "power_log", "c": 1.0, "gamma": 0.5, "beta": 0.0}], 1.0, 0.0,
     ref.DIVERGING),
    ([{"kind": "point", "w": 1.0, "t0": 0.9},
      {"kind": "power_log", "c": 0.5, "gamma": 2.0, "beta": 0.0}], 2.0, 0.0,
     ref.BOUNDED),
])
def test_carleson_class(components, s, alpha, expected):
    assert ref.carleson_class(components, s, alpha) == expected


# --------------------------------------------------------------------------
# each check accepts the program's output and rejects a perturbed one


@pytest.fixture(scope="module")
def compactness_output():
    return _op("verify-p2", "compactness/atom09").run()


def _with_report(output, edit):
    code, text, records = output
    report = json.loads(text)
    edit(report)
    return code, json.dumps(report), records


def test_verify_check(compactness_output):
    check = _op("verify-p2", "compactness/atom09").check
    assert check(compactness_output) == []
    code, text, records = compactness_output
    assert records, "the Besov values of the ladder were not recorded"

    def flip(report):
        report["verdict"] = "not compact-consistent"
    assert check(_with_report(compactness_output, flip))

    def inconsistent(report):
        report["consistent"] = False
    assert check(_with_report(compactness_output, inconsistent))

    rungs = workloads.verify_rungs("atom09")
    for side, factor in ((0, 1 - 1e-6), (1, 1 + 1e-6)):
        def off_bracket(report):
            report["ladder"][5]["ratio"] = rungs[5][2][side] * factor
        assert check(_with_report(compactness_output, off_bracket))

    coeffs, p, value = records[3]
    bad = records[:3] + [(coeffs, p, value * (1 + 1e-6))] + records[4:]
    assert check((code, text, bad))
    assert check((3, "", records)) == ["exit code 3"]


def test_route_check():
    op = _op("integral-route", "power_half/test/derivative")
    value = op.run()
    assert op.check(value) == []
    assert op.check(value * (1 + 1e-6))


def test_classify_check():
    op = _op("moments-classify", "lebesgue")
    values, labels = op.run()
    assert op.check((values, labels)) == []
    moved = values.copy()
    moved[1] *= 1 + 1e-6
    assert op.check((moved, labels))
    for cell, label in ((0, "vanishing"), (2, "finite-looking"),
                        (6, "diverging")):
        edited = [dict(row) for row in labels]
        edited[cell]["tail"] = label
        assert op.check((values, edited)), (cell, label)


def test_classify_check_of_a_sampled_measure():
    op = _op("moments-classify", "log_one")
    values, labels = op.run()
    assert op.check((values, labels)) == []
    moved = values.copy()
    moved[1000] *= 1 + 1e-6
    assert op.check((moved, labels))


def test_besov_check():
    op = _op("besov-quad", "p=3/j=1/degree=64")
    value = op.run()
    assert op.check(value) == []
    assert op.check(value * (1 + 1e-6))


# --------------------------------------------------------------------------
# tracing


def _traced_counts(ops):
    tracer = Tracer()
    tracer.install()
    try:
        for op in ops:
            tracer.span("bench.op", op.run)
    finally:
        tracer.uninstall()
    return tracer


def test_traced_counts_repeat_and_tracing_is_removed():
    original = cesarops.series.integrate_adaptive
    ops = [_op("integral-route", "hat_table/log/integral"),
           _op("besov-quad", "p=1.5/j=1/degree=64")]
    first, second = _traced_counts(ops), _traced_counts(ops)
    assert cesarops.series.integrate_adaptive is original
    a, b = first.layer_metrics(), second.layer_metrics()
    for metric, entry in a.items():
        if entry["unit"] == "count":
            assert entry["value"] == b[metric]["value"], metric
    assert a["series.integral_eval.calls"]["value"] == 1
    assert a["norms.besov_norm.calls"]["value"] == 1
    assert a["quadrature.integrand.nodes"]["value"] == 16 * a[
        "quadrature.integrand.calls"]["value"]
    roots = np.frombuffer(first.parent, dtype=np.int32) == -1
    total = float((np.frombuffer(first.end)
                   - np.frombuffer(first.start))[roots].sum())
    shares = first.layer_shares(total)
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares["norms"] > 0 and shares["series"] > 0


# --------------------------------------------------------------------------
# machine speed


def test_speed_samples_are_taken_out_of_the_operations(monkeypatch):
    import run
    import speed
    monkeypatch.setattr(speed, "kernel", lambda: time.sleep(0.02))

    def busy():
        start = time.perf_counter()
        while time.perf_counter() - start < 0.35:
            pass

    sampler = speed.Sampler()
    op = workloads.Op("busy", busy, lambda out: [])
    sampler.start()
    try:
        results, walls, scales = run.run_rounds([op], 0.0, sampler=sampler)
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 2
    assert walls[0] == results[0][1] == pytest.approx(
        0.35 - sampler.stolen, abs=0.01)
    assert scales[0] == results[0][3] == pytest.approx(
        speed.NOMINAL_S / 0.02, rel=0.5)


# --------------------------------------------------------------------------
# the command


def test_command_prints_the_result_line():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "moments-classify", "--seed", "3", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(workloads.CLASSIFY_MEASURES)
    assert sorted(result["metrics"]) == ["op_p50_s", "peak_rss_mb",
                                         "setup_s", "wall_s"]
