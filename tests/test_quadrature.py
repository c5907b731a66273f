import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cesarops import measure, norms
from cesarops.catalog import load_builtin_measure
from cesarops.measure import PowerLogDensity
from cesarops.quadrature import (_BLOCK, QuadratureError, QuadResult,
                                 gauss_rule, integrate_adaptive)
from cesarops.series import (PowerSeries, cesaro_like_derivative_eval,
                             cesaro_like_integral_eval, evaluate)


# The depth-first recursion that integrate_adaptive replaced, kept as the
# oracle for its values and error estimates.  Only the tolerance rule was
# added to it: the coarse panel of each root segment comes first, and
# their sum scales the tolerance to ``tol * max(1, |sum|)``.
def _reference_panel(f, lo, hi, xs, ws):
    y = f(lo + (hi - lo) * xs)
    return (hi - lo) * np.dot(ws, y)


def _reference_integrate_adaptive(f, a, b, *, tol=1e-12, nodes=16,
                                  max_depth=44, breakpoints=()):
    if b < a:
        raise ValueError("integrate_adaptive requires a <= b")
    if b == a:
        return QuadResult(0.0, 0.0)
    xs, ws = gauss_rule(nodes)
    cuts = [a] + sorted(p for p in set(breakpoints) if a < p < b) + [b]
    length = b - a

    def recurse(lo, hi, tol, depth, coarse=None):
        if coarse is None:
            coarse = _reference_panel(f, lo, hi, xs, ws)
        mid = 0.5 * (lo + hi)
        fine = (_reference_panel(f, lo, mid, xs, ws)
                + _reference_panel(f, mid, hi, xs, ws))
        err = abs(fine - coarse)
        if not np.isfinite(err):
            # splitting cannot repair non-finite samples, so fail fast
            raise QuadratureError(
                "integrand produced non-finite values on [%g, %g]"
                % (lo, hi), value=fine, error=float("inf"))
        if err <= tol or depth >= max_depth:
            return fine, err
        lval, lerr = recurse(lo, mid, 0.5 * tol, depth + 1)
        rval, rerr = recurse(mid, hi, 0.5 * tol, depth + 1)
        return lval + rval, lerr + rerr

    segments = list(zip(cuts[:-1], cuts[1:]))
    coarse = [_reference_panel(f, lo, hi, xs, ws) for lo, hi in segments]
    tol = tol * max(1.0, abs(sum(coarse)))
    value = 0.0
    err_total = 0.0
    for (lo, hi), seg_coarse in zip(segments, coarse):
        seg_tol = tol * (hi - lo) / length
        seg_val, seg_err = recurse(lo, hi, seg_tol, 0, seg_coarse)
        value = value + seg_val
        err_total += seg_err

    if not np.isfinite(err_total) or err_total > 8.0 * tol:
        raise QuadratureError(
            "quadrature did not converge: achieved %.3e, requested %.3e"
            % (err_total, tol),
            value=value, error=err_total)
    return QuadResult(value, err_total)


def _outcome(routine, f, a, b, **kw):
    """What a call returns or raises, with the types of its numbers."""
    try:
        res = routine(f, a, b, **kw)
    except QuadratureError as exc:
        return ("raised", str(exc), exc.value, type(exc.value), exc.error)
    return ("returned", res.value, type(res.value), res.error,
            type(res.error))


class _Counting:
    """Integrand wrapper that records the size of every call."""

    def __init__(self, f):
        self.f = f
        self.sizes = []

    def __call__(self, x):
        self.sizes.append(np.size(x))
        return self.f(x)


def _integrand(kind, c, k, gamma, beta, table):
    if kind == "exp":
        return np.exp
    if kind == "kink":
        return lambda x: np.abs(x - c)
    if kind == "wave":
        return lambda x: np.exp(1j * k * x)
    if kind == "power_log":
        comp = PowerLogDensity(1.0, gamma, beta)
        return lambda x: comp._weight(8.0 * x, gamma)
    return lambda x: np.interp(x, [0.0, 0.2, 0.45, 0.7, 1.0], table)


def test_gauss_rule_is_exact_for_polynomials():
    nodes, weights = gauss_rule(8)
    # degree 15 = 2n - 1 is integrated exactly on [0, 1]
    for k in range(16):
        assert weights @ nodes ** k == pytest.approx(1.0 / (k + 1), abs=1e-14)


def test_gauss_rule_cached_identity():
    assert gauss_rule(16) is gauss_rule(16)


def test_adaptive_smooth_integrand():
    res = integrate_adaptive(np.exp, 0.0, 1.0, tol=1e-13)
    assert res.value == pytest.approx(math.e - 1.0, abs=1e-13)
    assert res.error <= 1e-12


def test_adaptive_handles_kink_with_breakpoint():
    res = integrate_adaptive(lambda x: np.abs(x - 1.0 / 3.0), 0.0, 1.0,
                             tol=1e-13, breakpoints=(1.0 / 3.0,))
    exact = (1.0 / 3.0) ** 2 / 2.0 + (2.0 / 3.0) ** 2 / 2.0
    assert res.value == pytest.approx(exact, abs=1e-13)


def test_adaptive_complex_integrand():
    res = integrate_adaptive(lambda x: np.exp(1j * x), 0.0, math.pi,
                             tol=1e-13)
    assert res.value == pytest.approx(2.0j, abs=1e-12)


def test_adaptive_oscillatory():
    res = integrate_adaptive(lambda x: np.cos(40.0 * x), 0.0, 1.0,
                             tol=1e-13)
    assert res.value == pytest.approx(math.sin(40.0) / 40.0, abs=1e-12)


def test_adaptive_raises_on_nonintegrable_singularity():
    with pytest.raises(QuadratureError):
        integrate_adaptive(lambda x: 1.0 / x, 1e-300, 1.0, tol=1e-12)


def test_adaptive_raises_on_nan():
    with pytest.raises(QuadratureError):
        integrate_adaptive(lambda x: np.full_like(x, np.nan), 0.0, 1.0)


def test_adaptive_empty_interval():
    counting = _Counting(np.exp)
    res = integrate_adaptive(counting, 0.5, 0.5)
    assert res == QuadResult(0.0, 0.0)
    assert counting.sizes == []


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["exp", "kink", "wave", "power_log", "table"]),
       ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted),
       c=st.floats(0.0, 1.0), k=st.floats(0.0, 30.0),
       gamma=st.floats(0.1, 5.0), beta=st.floats(0.0, 3.0),
       table=st.lists(st.floats(-1.0, 1.0), min_size=5, max_size=5),
       extra=st.lists(st.floats(-0.5, 1.5), max_size=3),
       picks=st.lists(st.integers(0, 5), max_size=4),
       log_tol=st.floats(-14.0, -6.0), nodes=st.sampled_from([8, 16, 24]),
       log_size=st.floats(0.0, 12.0))
def test_level_order_matches_the_depth_first_recursion_bit_for_bit(
        kind, ends, c, k, gamma, beta, table, extra, picks, log_tol, nodes,
        log_size):
    a, b = ends
    # up to four breakpoints, drawn with repeats from the kink, the ends,
    # and points inside and outside the interval
    pool = [c, a, b] + extra
    breakpoints = [pool[i % len(pool)] for i in picks]
    # integrals up to about 1e12, where the tolerance in force is relative,
    # of the kinds of one sign: a cancelling integral that large would put
    # it below the rounding floor of the integrand's magnitude
    base = _integrand(kind, c, k, gamma, beta, table)
    size = 1.0 if kind in ("wave", "table") else 10.0 ** log_size
    f = lambda x: size * base(x)
    kw = dict(tol=10.0 ** log_tol, nodes=nodes, breakpoints=breakpoints)
    assert (_outcome(integrate_adaptive, f, a, b, **kw)
            == _outcome(_reference_integrate_adaptive, f, a, b, **kw))


def test_a_large_integral_meets_a_relative_tolerance_in_few_nodes():
    # About 5e7: an absolute 1e-12 lies far below its rounding floor, and
    # an absolute rule bisected to 1.5 million nodes there, for an error
    # estimate of 2.5e-15 against a true error near 1e-8.  Relative to the
    # integral, 1e-12 is met on the root level.
    counting = _Counting(lambda x: 1e8 * np.cos(40.0 * x) ** 2)
    res = integrate_adaptive(counting, 0.0, 1.0, tol=1e-12)
    assert sum(counting.sizes) <= 512
    with mpmath.workdps(40):
        exact = 10 ** 8 * (mpmath.mpf(1) / 2 + mpmath.sin(80) / 160)
        true_error = abs(mpmath.mpf(res.value) - exact)
    assert res.error >= true_error
    assert res.error <= 8e-12 * abs(res.value)


def _root_estimate(f, a, b, nodes):
    """The integral's coarse Gauss panel on [a, b], one root segment."""
    xs, ws = gauss_rule(nodes)
    return (b - a) * np.dot(ws, f(a + (b - a) * xs))


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["exp", "kink", "power_log"]),
       ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted),
       c=st.floats(0.0, 1.0), gamma=st.floats(0.1, 5.0),
       beta=st.floats(0.0, 3.0), log_size=st.floats(0.0, 6.0),
       power=st.integers(0, 200), log_tol=st.floats(-14.0, -6.0),
       nodes=st.sampled_from([8, 16, 24]))
def test_a_power_of_two_scales_value_and_error_bit_for_bit(
        kind, ends, c, gamma, beta, log_size, power, log_tol, nodes):
    # Once the root estimate is at least 1 the tolerance in force is
    # relative, and scaling the integrand by 2**power is exact in every
    # panel, sum and comparison.  The integrands keep one sign and take no
    # subnormal values, whose rounding does not scale.
    a, b = ends
    base = _integrand(kind, c, 0.0, gamma, beta, None)
    f = lambda x: 10.0 ** log_size * base(x)
    assume(abs(_root_estimate(f, a, b, nodes)) >= 1.0)
    kw = dict(tol=10.0 ** log_tol, nodes=nodes)

    def value_and_error(g):
        try:
            res = integrate_adaptive(g, a, b, **kw)
        except QuadratureError as exc:
            return exc.value, exc.error
        return res.value, res.error

    value, error = value_and_error(f)
    scale = 2.0 ** power
    assert value_and_error(lambda x: scale * f(x)) == (scale * value,
                                                       scale * error)


def test_depth_cap_accepts_the_panel_bit_for_bit():
    kink = lambda x: np.abs(x - 1.0 / 3.0)
    capped = integrate_adaptive(kink, 0.0, 1.0, tol=2e-5, max_depth=2)
    assert capped == _reference_integrate_adaptive(kink, 0.0, 1.0,
                                                   tol=2e-5, max_depth=2)
    # the cap decided: one more level refines the kink further
    assert capped != integrate_adaptive(kink, 0.0, 1.0, tol=2e-5,
                                        max_depth=3)


def test_one_integrand_call_per_tree_level():
    kink = lambda x: np.abs(x - 1.0 / 3.0)
    xs, _ = gauss_rule(16)
    widths = []

    def recording(x):
        widths.append((x[-1] - x[0]) / (xs[-1] - xs[0]))
        return kink(x)

    # on [0, 1] a node at depth d has halves of width 2**-(d + 1)
    _reference_integrate_adaptive(recording, 0.0, 1.0, tol=1e-13)
    levels = max(round(-math.log2(w)) for w in widths)
    assert levels > 10
    counting = _Counting(kink)
    integrate_adaptive(counting, 0.0, 1.0, tol=1e-13)
    assert len(counting.sizes) == levels
    assert all(size % 16 == 0 for size in counting.sizes)


@pytest.mark.parametrize("nodes", [8, 16, 24])
def test_no_panel_is_evaluated_twice(nodes):
    kink = lambda x: np.abs(x - 1.0 / 3.0) + np.abs(x - 0.8)
    kw = dict(tol=1e-12, nodes=nodes, breakpoints=(0.75,))
    reference = _Counting(kink)
    _reference_integrate_adaptive(reference, 0.0, 1.0, **kw)
    counting = _Counting(kink)
    integrate_adaptive(counting, 0.0, 1.0, **kw)
    segments = 2
    # the recursion samples three panels at each of its tree's nodes
    assert set(reference.sizes) == {nodes}
    splits, rest = divmod(len(reference.sizes) // 3 - segments, 2)
    assert rest == 0 and splits > 10
    assert sum(reference.sizes) == nodes * (3 * segments + 6 * splits)
    assert sum(counting.sizes) == nodes * (3 * segments + 4 * splits)
    assert all(size % nodes == 0 for size in counting.sizes)


def test_wide_levels_are_refined_in_blocks():
    def noise(x):
        # deterministic and elementwise, but never converges: every node
        # splits down to the depth cap
        return np.modf(np.sin(x * 12345.678) * 43758.5453)[0]

    depth = int(math.log2(_BLOCK)) + 1
    kw = dict(tol=1e-12, nodes=8, max_depth=depth)
    counting = _Counting(noise)
    outcome = _outcome(integrate_adaptive, counting, 0.0, 1.0, **kw)
    assert outcome == _outcome(_reference_integrate_adaptive, noise, 0.0,
                               1.0, **kw)
    assert outcome[1].startswith("quadrature did not converge")
    # level `depth` has 2 * _BLOCK nodes, refined in two calls
    assert max(counting.sizes) == 2 * _BLOCK * 8
    assert len(counting.sizes) == depth + 2


def _sliced_like_panels(f, x, width=16):
    """Assert that f gives the same bits on width-node slices of x as on x."""
    whole = np.asarray(f(x))
    for start in (0, width, 4096, 8192 + width, x.size - width):
        part = np.asarray(f(x[start:start + width]))
        assert part.tobytes() == whole[start:start + width].tobytes()


def _captured_integrands(monkeypatch, module, run):
    """Integrands that ``run`` hands to ``module.integrate_adaptive``."""
    seen = []

    def spy(f, a, b, **kw):
        seen.append(f)
        return QuadResult(0.0, 0.0)

    monkeypatch.setattr(module, "integrate_adaptive", spy)
    run()
    return seen


def test_integrands_are_elementwise_across_array_lengths(monkeypatch):
    rng = np.random.default_rng(401)
    coeffs = rng.standard_normal(4097) + 1j * rng.standard_normal(4097)
    coeffs /= np.arange(1, 4098)
    f = PowerSeries(coeffs)
    u = np.sort(rng.uniform(0.0, 40.0, 16384))
    t = np.sort(rng.uniform(0.0, 0.95, 16384))
    theta = np.sort(rng.uniform(0.0, 2.0 * math.pi, 16384))
    z = 0.55 + 0.4j

    _sliced_like_panels(lambda u: -np.expm1(-u), u)
    comp = PowerLogDensity(1.0, 0.5, 2.0)
    _sliced_like_panels(lambda u: comp._weight(u, comp.gamma), u)
    lebesgue = load_builtin_measure("lebesgue")
    hat_table = load_builtin_measure("hat_table")
    for route in (cesaro_like_integral_eval, cesaro_like_derivative_eval):
        # the power-log integrand: the ray-table kernel of the integral
        # route at t = -expm1(-u), times the weight
        kernels = _captured_integrands(
            monkeypatch, measure, lambda: route(lebesgue, f, z))
        assert len(kernels) == 1
        _sliced_like_panels(kernels[0], u)
        # the table integrand: the same kernel times np.interp of the table
        kernels = _captured_integrands(
            monkeypatch, measure, lambda: route(hat_table, f, z))
        assert len(kernels) == 1
        _sliced_like_panels(kernels[0], t)
    # the angular integrand of the p != 2 integral means, which only a
    # kink reaches: shifted to vanish at z = 0.9, |f|**1.5 has one on the
    # circle, and the trapezoid rule on the samples does not settle
    kinked = coeffs.copy()
    kinked[0] -= evaluate(f, 0.9)
    kernels = _captured_integrands(monkeypatch, norms, lambda: (
        norms.integral_mean(PowerSeries(kinked), 0.9, 1.5)))
    assert len(kernels) == 1
    _sliced_like_panels(kernels[0], theta)


def test_nan_seen_only_at_level_two_still_raises():
    xs, _ = gauss_rule(16)
    # a Gauss node of the level-2 panel [1/4, 3/8], which holds the kink
    bad = 0.25 + 0.125 * xs[10]

    def f(x):
        return np.where(x == bad, np.nan, np.abs(x - 1.0 / 3.0))

    # levels 0 and 1 never sample it
    shallow = _outcome(integrate_adaptive, f, 0.0, 1.0, tol=1e-13,
                       max_depth=1)
    assert shallow[0] == "returned" or math.isfinite(shallow[-1])
    for routine in (integrate_adaptive, _reference_integrate_adaptive):
        with pytest.raises(QuadratureError, match="non-finite") as info:
            routine(f, 0.0, 1.0, tol=1e-13)
        assert info.value.error == math.inf


def test_depth_capped_singularity_carries_the_best_value():
    kw = dict(tol=1e-12)
    f = lambda x: 1.0 / x
    outcome = _outcome(integrate_adaptive, f, 1e-300, 1.0, **kw)
    assert outcome == _outcome(_reference_integrate_adaptive, f, 1e-300,
                               1.0, **kw)
    assert outcome[1].startswith("quadrature did not converge")
    assert math.isfinite(outcome[2]) and outcome[4] > 8e-12
