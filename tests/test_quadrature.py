import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cesarops import measure, norms
from cesarops.carleson import CarlesonParams, carleson_integral
from cesarops.catalog import load_builtin_measure
from cesarops.measure import PowerLogDensity
from cesarops.quadrature import (_BLOCK, _BUDGET, _W, _X, QuadratureError,
                                 QuadResult, gauss_rule, integrate_adaptive)
from cesarops.series import (PowerSeries, cesaro_like_derivative_eval,
                             cesaro_like_integral_eval, evaluate)


# The depth-first recursion that the level-order walk of integrate_adaptive
# replaces, kept as the oracle for its values and error estimates.  Each
# panel is sampled once, at the 31 Kronrod nodes; the K31 values of the
# root segments come first, and their sum scales the tolerance to
# ``tol * max(1, |sum|)``.  It has no panel budget: the trees it is
# compared on stay within it.
def _reference_panel(f, lo, hi):
    """K31 value and |K31 - G15| estimate of the panel [lo, hi]."""
    half = 0.5 * (hi - lo)
    y = f(0.5 * (lo + hi) + half * _X)
    k, g = half * np.sum(y * _W, axis=1)
    # np.abs of an array, as on a level of panels: the abs of a complex
    # scalar can differ from it in the last bit
    return k, np.abs([k - g])[0]


def _reference_integrate_adaptive(f, a, b, *, tol=1e-12, max_depth=44,
                                  breakpoints=()):
    if b < a:
        raise ValueError("integrate_adaptive requires a <= b")
    if b == a:
        return QuadResult(0.0, 0.0)
    cuts = [a] + sorted(p for p in set(breakpoints) if a < p < b) + [b]
    length = b - a

    def recurse(lo, hi, tol, depth, panel=None):
        value, err = panel if panel else _reference_panel(f, lo, hi)
        if not np.isfinite(err):
            # splitting cannot repair non-finite samples, so fail fast
            raise QuadratureError(
                "integrand produced non-finite values on [%g, %g]"
                % (lo, hi), value=value, error=float("inf"))
        if err <= tol or depth >= max_depth:
            return value, err
        mid = 0.5 * (lo + hi)
        lval, lerr = recurse(lo, mid, 0.5 * tol, depth + 1)
        rval, rerr = recurse(mid, hi, 0.5 * tol, depth + 1)
        return lval + rval, lerr + rerr

    segments = list(zip(cuts[:-1], cuts[1:]))
    roots = [_reference_panel(f, lo, hi) for lo, hi in segments]
    tol = tol * max(1.0, abs(sum(value for value, _ in roots)))
    value = 0.0
    err_total = 0.0
    for (lo, hi), root in zip(segments, roots):
        seg_tol = tol * (hi - lo) / length
        seg_val, seg_err = recurse(lo, hi, seg_tol, 0, root)
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


def test_kronrod_pair_is_exact_on_its_degrees():
    # K31 integrates x**k exactly on [-1, 1] for k <= 46, G15 for
    # k <= 29, up to the rounding of the literals and of the sums
    k31, g15 = _W
    eps = np.spacing(1.0)
    for k in range(47):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(k31 @ _X ** k - exact) <= 2 * eps
        if k <= 29:
            assert abs(g15 @ _X ** k - exact) <= 2 * eps
    # and G15 is the Gauss-Legendre rule on the odd nodes, not exact one
    # degree further
    x, w = np.polynomial.legendre.leggauss(15)
    assert np.max(np.abs(_X[1::2] - x)) <= 1e-15
    assert np.max(np.abs(g15[1::2] - w)) <= 1e-15
    assert not g15[0::2].any()
    assert abs(g15 @ _X ** 30 - 2.0 / 31) > 1e-10
    # the nodes are symmetric about 0, which is a node of both rules
    assert np.array_equal(_X, -_X[::-1]) and _X[15] == 0.0


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
       log_tol=st.floats(-14.0, -6.0), log_size=st.floats(0.0, 12.0))
def test_level_order_matches_the_depth_first_recursion_bit_for_bit(
        kind, ends, c, k, gamma, beta, table, extra, picks, log_tol,
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
    kw = dict(tol=10.0 ** log_tol, breakpoints=breakpoints)
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


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["exp", "kink", "power_log"]),
       ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted),
       c=st.floats(0.0, 1.0), gamma=st.floats(0.1, 5.0),
       beta=st.floats(0.0, 3.0), log_size=st.floats(0.0, 6.0),
       power=st.integers(0, 200), log_tol=st.floats(-14.0, -6.0))
def test_a_power_of_two_scales_value_and_error_bit_for_bit(
        kind, ends, c, gamma, beta, log_size, power, log_tol):
    # Once the root estimate is at least 1 the tolerance in force is
    # relative, and scaling the integrand by 2**power is exact in every
    # panel, sum and comparison.  The integrands keep one sign and take no
    # subnormal values, whose rounding does not scale.
    a, b = ends
    base = _integrand(kind, c, 0.0, gamma, beta, None)
    f = lambda x: 10.0 ** log_size * base(x)
    # the K31 panel on [a, b], one root segment, is the root estimate
    assume(abs(_reference_panel(f, a, b)[0]) >= 1.0)
    kw = dict(tol=10.0 ** log_tol)

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
    widths = []

    def recording(x):
        widths.append((x[-1] - x[0]) / (_X[-1] - _X[0]))
        return kink(x)

    # on [0, 1] a panel at depth d has half-width 2**-(d + 1)
    _reference_integrate_adaptive(recording, 0.0, 1.0, tol=1e-13)
    levels = max(round(-math.log2(w)) for w in widths)
    assert levels > 10
    counting = _Counting(kink)
    integrate_adaptive(counting, 0.0, 1.0, tol=1e-13)
    assert len(counting.sizes) == levels
    assert all(size % 31 == 0 for size in counting.sizes)


class _Recording(_Counting):
    """Integrand wrapper that also keeps every abscissa it is given."""

    def __init__(self, f):
        super().__init__(f)
        self.points = []

    def __call__(self, x):
        self.points.append(np.array(x))
        return super().__call__(x)


@pytest.mark.parametrize("max_depth", [8, 16, 24])
def test_no_panel_is_evaluated_twice(max_depth):
    # whether or not the depth cap stops the tree
    kink = lambda x: np.abs(x - 1.0 / 3.0) + np.abs(x - 0.8)
    kw = dict(tol=1e-12, max_depth=max_depth, breakpoints=(0.75,))
    reference = _Recording(kink)
    outcome = _outcome(_reference_integrate_adaptive, reference, 0.0, 1.0,
                       **kw)
    counting = _Recording(kink)
    assert _outcome(integrate_adaptive, counting, 0.0, 1.0, **kw) == outcome
    segments = 2
    # the recursion samples one K31 panel at each node of its tree
    assert set(reference.sizes) == {31}
    splits, rest = divmod(len(reference.sizes) - segments, 2)
    assert rest == 0 and splits > 10
    assert sum(counting.sizes) == 31 * (segments + 2 * splits)
    assert all(size % 31 == 0 for size in counting.sizes)
    # and the level order samples the same abscissae, each panel once
    assert (np.sort(np.concatenate(counting.points)).tobytes()
            == np.sort(np.concatenate(reference.points)).tobytes())


def _noise(x):
    # deterministic and elementwise, but never converges: every panel
    # splits down to the depth cap or until the panels run out
    return np.modf(np.sin(x * 12345.678) * 43758.5453)[0]


def test_wide_levels_are_refined_in_blocks():
    depth = int(math.log2(_BLOCK)) + 1
    kw = dict(tol=1e-12, max_depth=depth)
    counting = _Counting(_noise)
    outcome = _outcome(integrate_adaptive, counting, 0.0, 1.0, **kw)
    assert outcome == _outcome(_reference_integrate_adaptive, _noise, 0.0,
                               1.0, **kw)
    assert outcome[1].startswith("quadrature did not converge")
    # level `depth` has 2 * _BLOCK panels, evaluated in two calls
    assert max(counting.sizes) == _BLOCK * 31
    assert len(counting.sizes) == depth + 2
    # the whole tree, 2**(depth + 1) - 1 panels, fits the budget
    assert sum(counting.sizes) == 31 * (2 ** (depth + 1) - 1) <= 31 * _BUDGET


def test_a_tree_past_the_panel_budget_raises_with_the_best_value():
    # Without the depth cap of the blocks test, the noise splits every
    # panel to depth 44.  The budget stops it after the level that fills
    # it, depth 13: the next level would pass 16384 panels.  Those panels
    # are kept as they are, and their values summed.
    counting = _Counting(_noise)
    with pytest.raises(QuadratureError, match="than 16384 panels") as info:
        integrate_adaptive(counting, 0.0, 1.0, tol=1e-12)
    assert sum(counting.sizes) == 31 * (2 ** 14 - 1)
    capped = _outcome(_reference_integrate_adaptive, _noise, 0.0, 1.0,
                      tol=1e-12, max_depth=13)
    assert capped[1].startswith("quadrature did not converge")
    assert (info.value.value, info.value.error) == (capped[2], capped[4])


def test_a_tolerance_below_the_rounding_floor_stops_at_the_budget(
        monkeypatch):
    # The Carleson integrand of lebesgue at s = 30 and rho = 1 - 2**-14
    # peaks near 2e124 at u = 14.1, where its samples jitter by about 5e-11
    # of their size: the panels there cannot meet their shares of 1e-10 of
    # the integral.  Without a budget the tree bisected toward depth 44,
    # and `classify --measure lebesgue --s 30` ran past 150 s.
    sizes = []
    spy_on = measure.integrate_adaptive

    def spy(f, a, b, **kw):
        counted = _Counting(f)
        try:
            return spy_on(counted, a, b, **kw)
        finally:
            sizes.append(sum(counted.sizes))

    monkeypatch.setattr(measure, "integrate_adaptive", spy)
    with pytest.raises(QuadratureError, match="more than 16384 panels"):
        carleson_integral(load_builtin_measure("lebesgue"), 1.0 - 2.0 ** -14,
                          CarlesonParams(30.0, 0.0))
    assert max(sizes) <= 31 * _BUDGET


def _sliced_like_panels(f, x, width=31):
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
    # a Kronrod node of the level-2 panel [1/4, 1/2], which holds the kink
    bad = 0.375 + 0.125 * _X[10]

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
