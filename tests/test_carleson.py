"""Classification machinery: trend labels, fits, and the disk integrals.

The trend labeler is exercised on hand-built ladders where the correct
answer is a matter of inspection; the quotient and integral conditions
are checked against measures whose tails and integrals have closed
forms, so every label asserted here can be verified by hand.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cesarops import measure
from cesarops.carleson import (
    LABEL_DIVERGING,
    LABEL_FINITE,
    LABEL_INCONCLUSIVE,
    LABEL_VANISHING,
    CarlesonParams,
    CarlesonVerdict,
    CriterionResult,
    _consensus,
    carleson_integral,
    carleson_quotient,
    classify_measure,
    classify_moments,
    classify_tail,
    conclusive_agreement,
    dyadic_t_ladder,
    fit_moment_decay,
    integral_profile,
    trend_label,
)
from cesarops.measure import (
    MomentSequence,
    PointMass,
    PowerLogDensity,
    RadialMeasure,
    measure_from_dict,
    measure_to_dict,
    moments,
)
from cesarops.quadrature import QuadratureError, gauss_rule, integrate_adaptive


# -------------------------------------------------------------- trend label


def test_trend_label_needs_enough_points():
    assert trend_label([1.0, 2.0, 3.0]).label == LABEL_INCONCLUSIVE


def test_trend_label_rejects_nan():
    vals = [1.0, 1.0, 1.0, float("nan"), 1.0, 1.0, 1.0]
    assert trend_label(vals).label == LABEL_INCONCLUSIVE


def test_trend_label_infinity_means_diverging():
    vals = [1.0, 2.0, float("inf"), 4.0, 5.0, 6.0]
    assert trend_label(vals).label == LABEL_DIVERGING


def test_trend_label_all_zero_is_vanishing():
    assert trend_label([0.0] * 8).label == LABEL_VANISHING


def test_trend_label_dead_tail_is_vanishing():
    # Grows, then dies exactly; the dead tail must win over the early
    # growth, which is the situation of an atom past its location.
    vals = [1.0, 2.0, 4.0, 8.0, 0.0, 0.0, 0.0, 0.0]
    assert trend_label(vals).label == LABEL_VANISHING


def test_trend_label_geometric_growth_is_diverging():
    vals = [2.0 ** j for j in range(10)]
    fit = trend_label(vals)
    assert fit.label == LABEL_DIVERGING
    assert fit.slope == pytest.approx(1.0, abs=1e-12)


def test_trend_label_constant_is_finite_looking():
    fit = trend_label([5.0] * 10)
    assert fit.label == LABEL_FINITE
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_trend_label_burn_in_discards_transient():
    # A huge transient in the first two entries must not hide the
    # geometric growth that follows.
    vals = [1e9, 1e9] + [2.0 ** j for j in range(8)]
    assert trend_label(vals).label == LABEL_DIVERGING


def test_trend_label_unsettled_window_is_inconclusive():
    vals = [100.0, 1.0] * 5
    assert trend_label(vals).label == LABEL_INCONCLUSIVE


def test_trend_label_zeros_are_dropped_from_the_fit():
    vals = [0.0, 0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    assert trend_label(vals).label == LABEL_DIVERGING


# ---------------------------------------------------------------- quotient


def test_quotient_for_lebesgue_is_identically_one(catalog):
    params = CarlesonParams(1.0, 0.0)
    for t in dyadic_t_ladder(14):
        got = carleson_quotient(catalog["lebesgue"], t, params)
        assert got == pytest.approx(1.0, rel=1e-12)


def test_quotient_domain_is_half_open(catalog):
    params = CarlesonParams(1.0, 0.0)
    with pytest.raises(ValueError):
        carleson_quotient(catalog["lebesgue"], 1.0, params)
    with pytest.raises(ValueError):
        carleson_quotient(catalog["lebesgue"], -0.1, params)


def test_tail_classification_closed_forms(catalog):
    params = CarlesonParams(1.0, 0.0)
    res = classify_tail(catalog["lebesgue"], params)
    assert res.label == LABEL_FINITE
    assert np.allclose(res.values, 1.0, rtol=1e-12)

    res = classify_tail(catalog["atom09"], params)
    assert res.label == LABEL_VANISHING
    # Up to t = 7/8 the tail is the full mass; past the atom it is zero.
    assert res.values[3] == pytest.approx(8.0)
    assert res.values[4:] == (0.0,) * (len(res.values) - 4)


def test_parameter_validation():
    with pytest.raises(ValueError):
        CarlesonParams(0.0, 0.0)
    with pytest.raises(ValueError):
        CarlesonParams(1.0, -0.5)
    with pytest.raises(ValueError):
        CarlesonParams(1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        CarlesonParams(1.0, 0.0, 1.0, 1.0)  # r_exp must stay below s


# ------------------------------------------------------------- moment fits


def synthetic_moments(shape, n_max=2 ** 13):
    n = np.arange(n_max + 1, dtype=float)
    return MomentSequence(shape(n), n_max, 0.0)


def test_fit_recovers_pure_power_law():
    mu = synthetic_moments(lambda n: (n + 1.0) ** -1.3)
    exponent, log_exponent, resid = fit_moment_decay(mu)
    assert exponent == pytest.approx(-1.3, abs=1e-9)
    assert log_exponent == pytest.approx(0.0, abs=1e-7)
    assert resid < 1e-10


def test_fit_recovers_logarithmic_correction():
    mu = synthetic_moments(
        lambda n: (n + 1.0) ** -1.0 * np.log(n + 2.0) ** -0.8)
    exponent, log_exponent, _ = fit_moment_decay(mu)
    assert exponent == pytest.approx(-1.0, abs=0.01)
    assert log_exponent == pytest.approx(-0.8, abs=0.05)


def test_fit_with_too_few_points_is_nan():
    mu = synthetic_moments(lambda n: (n + 1.0) ** -1.0, n_max=64)
    exponent, log_exponent, resid = fit_moment_decay(mu)
    assert math.isnan(exponent) and math.isnan(log_exponent)
    assert math.isnan(resid)


def test_classify_moments_needs_a_long_ladder(catalog):
    mu = moments(catalog["lebesgue"], 512)
    with pytest.raises(ValueError):
        classify_moments(mu, CarlesonParams(1.0, 0.0))


def test_classify_moments_lebesgue(catalog):
    mu = moments(catalog["lebesgue"], 2 ** 12)
    res = classify_moments(mu, CarlesonParams(1.0, 0.0))
    assert res.label == LABEL_FINITE
    assert res.fitted_exponent == pytest.approx(-1.0, abs=1e-6)


# ----------------------------------------------------------- disk integral


def test_integral_of_origin_atom_is_its_mass():
    m = RadialMeasure((PointMass(1.0, 0.0),))
    for variant in ("ii", "iii", "iv"):
        for params in (CarlesonParams(1.0, 0.0),
                       CarlesonParams(2.0, 1.0, 1.5, 0.5)):
            assert carleson_integral(m, 0.0, params, variant) == pytest.approx(
                1.0, rel=1e-12)


def test_integral_for_lebesgue_is_one_on_the_real_ray(catalog):
    # s = 1, t_exp = 1, r_exp = 0 gives theta = 2 and
    # (1-rho) * int (1-rho x)^-2 dx == 1 for every rho.
    params = CarlesonParams(1.0, 0.0)
    for rho in (0.0, 0.5, 0.999, 1.0 - 2.0 ** -18):
        got = carleson_integral(catalog["lebesgue"], rho, params, "ii")
        assert got == pytest.approx(1.0, rel=1e-9)


def test_integral_variants_are_ordered(catalog):
    params = CarlesonParams(1.0, 0.0)
    a = 0.6 * complex(math.cos(0.7), math.sin(0.7))
    slack = 1.0 + 1e-9
    for m in catalog.values():
        two = carleson_integral(m, abs(a), params, "ii")
        three = carleson_integral(m, a, params, "iii")
        four = carleson_integral(m, a, params, "iv")
        assert four <= three * slack
        assert three <= two * slack


def test_integral_rejects_boundary_point(catalog):
    with pytest.raises(ValueError):
        carleson_integral(catalog["lebesgue"], 1.0, CarlesonParams(1.0, 0.0))


def test_integral_divergence_is_detected_analytically():
    # gamma - r_exp < 0: the endpoint power is non-integrable.
    slow = RadialMeasure((PowerLogDensity(1.0, 0.5, 0.0),))
    params = CarlesonParams(1.0, 0.0, 1.0, 0.75)
    assert carleson_integral(slow, 0.5, params) == float("inf")
    # gamma - r_exp = 0 with no logarithmic help: still divergent.
    params = CarlesonParams(1.0, 0.0, 1.0, 0.5)
    assert carleson_integral(slow, 0.5, params) == float("inf")


def test_integral_borderline_convergence_is_refused():
    # gamma - r_exp = 0 rescued only by log^-2: convergent, but far too
    # slowly for a truncated quadrature to certify.
    slow = RadialMeasure((PowerLogDensity(1.0, 0.5, 2.0),))
    params = CarlesonParams(1.0, 0.0, 1.0, 0.5)
    with pytest.raises(QuadratureError):
        carleson_integral(slow, 0.5, params)


def test_divergence_reads_inf_past_an_underflowing_prefactor():
    # gamma = 0.5 < r_exp = 0.75: the integral diverges, while the
    # prefactor (2**-18)**80 underflows to 0 and the kernel's bound
    # (2**-18)**-80.25 overflows; the product once read nan.
    m = RadialMeasure((PowerLogDensity(1.0, 0.5),))
    params = CarlesonParams(1.0, 0.0, 80.0, 0.75)
    assert carleson_integral(m, 1.0 - 2.0 ** -18, params) == math.inf


def test_kernel_bound_beyond_the_float_range_is_refused():
    # gamma = 0.5 > r_exp = 0.25 converges, but the kernel's bound
    # overflows, so no u-cutoff is safe: the cutoff refuses, and the
    # profile reads the ray as inconclusive with that note.
    m = RadialMeasure((PowerLogDensity(1.0, 0.5),))
    params = CarlesonParams(1.0, 0.0, 80.0, 0.25)
    with pytest.raises(QuadratureError, match="u-cutoff"):
        carleson_integral(m, 1.0 - 2.0 ** -18, params)
    res = integral_profile(m, params)
    assert res.label == LABEL_INCONCLUSIVE
    assert "u-cutoff" in res.note and res.note == res.subresults[0].note


@settings(max_examples=40, deadline=None)
@given(t_exp=st.floats(60.0, 300.0), gamma=st.floats(0.1, 3.0),
       beta=st.floats(0.0, 3.0), r_exp=st.floats(0.0, 1.0,
                                                 exclude_max=True))
def test_overflowing_kernel_bound_reads_inf_or_refuses(t_exp, gamma, beta,
                                                       r_exp):
    # theta = 1 + t_exp - r_exp > 56.9 puts (2**-18)**-theta beyond the
    # float range, so no quadrature runs: a divergent integral reads inf
    # and every other call raises QuadratureError, never nan.
    m = RadialMeasure((PowerLogDensity(1.0, gamma, beta),))
    params = CarlesonParams(1.0, 0.0, t_exp, r_exp)
    if gamma < r_exp or (gamma == r_exp and beta <= 1.0):
        assert carleson_integral(m, 1.0 - 2.0 ** -18, params) == math.inf
    else:
        with pytest.raises(QuadratureError):
            carleson_integral(m, 1.0 - 2.0 ** -18, params)


def test_ladders_overflow_only_past_the_float_range(catalog):
    # At alpha = 400, log(n+1)**400 overflows from n = 2**9 on, although
    # the atom's normalized moment stays finite until its weight flushes,
    # and its tail quotient is zero past the atom, not 0 * inf.
    params = CarlesonParams(1.0, 400.0)
    res = classify_moments(moments(catalog["atom09"], 2 ** 14), params)
    assert all(math.isfinite(v) for v in res.values)
    assert res.values[12] > 1e180 and res.values[-1] == 0.0
    assert res.label == LABEL_VANISHING
    res = classify_tail(catalog["atom09"], params)
    assert res.values[-1] == 0.0 and res.label == LABEL_VANISHING
    res = classify_moments(moments(catalog["lebesgue"], 2 ** 10), params)
    assert math.isinf(res.values[-1]) and res.label == LABEL_DIVERGING


def test_deep_probe_tolerance_follows_the_integral(monkeypatch, catalog):
    # power_two at |a| = 1 - 2**-18 and (s, alpha, t_exp, r_exp) =
    # (2, 0, 1, 0) is (1-rho) int (1-x) (1-rho x)**-3 dx = 1/2 exactly.
    # Its tolerance was once 1e-10 times the mass times the kernel's
    # supremum, up to 2**36 times the integral, which admitted any value.
    # The tolerance in force is 1e-10 times the root estimate, which the
    # spy takes again from the coarse root panels.
    xs, ws = gauss_rule(16)
    in_force = []

    def spy(f, a, b, *, tol, breakpoints=(), **kw):
        cuts = [a] + sorted(x for x in set(breakpoints) if a < x < b) + [b]
        root = sum((hi - lo) * np.dot(ws, f(lo + (hi - lo) * xs))
                   for lo, hi in zip(cuts[:-1], cuts[1:]))
        res = integrate_adaptive(f, a, b, tol=tol, breakpoints=breakpoints,
                                 **kw)
        in_force.append((tol * max(1.0, abs(root)), res.value))
        return res

    monkeypatch.setattr(measure, "integrate_adaptive", spy)
    value = carleson_integral(catalog["power_two"], 1.0 - 2.0 ** -18,
                              CarlesonParams(2.0, 0.0, 1.0, 0.0))
    (tol, integral), = in_force
    # up to the root panels' own error, here 5e-9 relative
    assert tol <= 1e-10 * max(1.0, abs(integral)) * (1.0 + 1e-6)
    assert abs(value - 0.5) <= 1e-10


def test_integral_profile_consensus_and_shape(catalog):
    params = CarlesonParams(1.0, 0.0)
    res = integral_profile(catalog["lebesgue"], params, "ii", depth=10)
    assert res.criterion == "integral"
    assert res.label == LABEL_FINITE
    assert len(res.subresults) == 1  # variant ii runs the real ray only
    assert len(res.grid) == 11

    res = integral_profile(catalog["lebesgue"], params, "iii", depth=8)
    assert len(res.subresults) == 3


def test_integral_profile_reports_quadrature_failures():
    slow = RadialMeasure((PowerLogDensity(1.0, 0.5, 2.0),))
    params = CarlesonParams(1.0, 0.0, 1.0, 0.5)
    res = integral_profile(slow, params, "ii", depth=8)
    assert res.label == LABEL_INCONCLUSIVE
    assert res.note != ""


def test_failed_ray_is_an_empty_inconclusive_ladder():
    slow = RadialMeasure((PowerLogDensity(1.0, 0.5, 2.0),))
    res = integral_profile(slow, CarlesonParams(1.0, 0.0, 1.0, 0.5), "iii",
                           depth=8)
    for ray in res.subresults:
        assert ray.label == LABEL_INCONCLUSIVE and ray.values == ()
        assert ray.note != "" and ray.note in res.note
        assert math.isnan(ray.slope)
    assert res.label == LABEL_INCONCLUSIVE


def test_dyadic_ladder_stops_where_doubles_reach_one():
    assert dyadic_t_ladder(53)[-1] < 1.0
    for depth in (-1, 54):
        with pytest.raises(ValueError, match="ladder depth %d" % depth):
            dyadic_t_ladder(depth)


# ----------------------------------------------------------- full verdicts


def test_three_criteria_agree_for_lebesgue(catalog):
    verdict = classify_measure(catalog["lebesgue"], CarlesonParams(1.0, 0.0),
                               n_max=2 ** 12)
    assert verdict.per_criterion == {
        "tail": LABEL_FINITE,
        "moments": LABEL_FINITE,
        "integral": LABEL_FINITE,
    }
    report = verdict.to_dict()
    assert report["agreement"]
    assert conclusive_agreement(verdict)
    assert report["sup_estimate"] == pytest.approx(1.0)
    assert report["fitted_exponent"] == pytest.approx(-1.0, abs=1e-6)


def test_three_criteria_agree_for_the_atom(catalog):
    verdict = classify_measure(catalog["atom09"], CarlesonParams(1.0, 0.0),
                               n_max=2 ** 12)
    assert set(verdict.per_criterion.values()) == {LABEL_VANISHING}
    assert conclusive_agreement(verdict)


def test_conclusive_agreement_requires_a_conclusive_label(catalog):
    verdict = classify_measure(catalog["lebesgue"], CarlesonParams(1.0, 0.0),
                               n_max=2 ** 12)
    stripped = CarlesonVerdict(verdict.params, tuple(
        replace(crit, label=LABEL_INCONCLUSIVE) for crit in verdict.criteria))
    assert not conclusive_agreement(stripped)


@pytest.mark.parametrize("labels, expected", [
    ([], LABEL_INCONCLUSIVE),
    ([LABEL_INCONCLUSIVE] * 3, LABEL_INCONCLUSIVE),
    ([LABEL_INCONCLUSIVE, LABEL_VANISHING, LABEL_INCONCLUSIVE],
     LABEL_VANISHING),
    ([LABEL_FINITE, LABEL_DIVERGING], LABEL_INCONCLUSIVE),
    ([LABEL_FINITE, LABEL_INCONCLUSIVE, LABEL_DIVERGING], LABEL_INCONCLUSIVE),
    ([LABEL_DIVERGING] * 3, LABEL_DIVERGING),
    ([LABEL_FINITE, LABEL_INCONCLUSIVE, LABEL_FINITE], LABEL_FINITE),
])
def test_consensus_of_conclusive_labels(labels, expected):
    assert _consensus(labels) == expected
    assert _consensus(iter(labels)) == expected
    nan = float("nan")
    verdict = CarlesonVerdict(CarlesonParams(1.0, 0.0), tuple(
        CriterionResult(str(i), label, (), (), nan)
        for i, label in enumerate(labels)))
    assert conclusive_agreement(verdict) == (expected != LABEL_INCONCLUSIVE)


# ------------------------------------------------------------- properties


@settings(max_examples=20, deadline=None)
@given(factor=st.floats(1e-3, 1e3),
       name=st.sampled_from(["atom09", "power_half", "power_two"]))
def test_tail_label_is_scale_invariant(catalog, factor, name):
    params = CarlesonParams(1.0, 0.5)
    base = classify_tail(catalog[name], params)
    spec = measure_to_dict(catalog[name])
    for comp in spec["components"]:
        for key in ("c", "w"):
            if key in comp:
                comp[key] *= factor
    scaled = classify_tail(measure_from_dict(spec), params)
    assert scaled.label == base.label
