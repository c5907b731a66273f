"""Coefficient route vs integral route for the measure-induced operator.

The brute-force oracle below recomputes the coefficient route with a
naive O(n^2) double loop so that any indexing or normalization slip in
the production implementation would show up as a mismatch.
"""

import math
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesarops import measure as measure_module
from cesarops.measure import moments
from cesarops.norms import (_half_circle, _mean_squares, besov_norm,
                            bloch_norm, mean_lipschitz_norm)
from cesarops.quadrature import integrate_adaptive
from cesarops.series import (
    MAX_ABS_Z,
    FunctionSpecError,
    PowerSeries,
    cesaro_like,
    cesaro_like_derivative_eval,
    cesaro_like_integral_eval,
    derivative,
    evaluate,
    function_from_dict,
    log_series,
    partial_sums,
)
from cesarops.series import (_BUILTINS, _RAY_BLOCK, _horner_terms,
                             _ray_terms, _ray_values)
from cesarops.series import test_function as make_test_function

from conftest import random_series


def bits(values):
    """The bit patterns of a float array, to compare values and signs."""
    return np.ascontiguousarray(values, dtype=float).view(np.uint64)


def brute_transform(mu_values, coeffs):
    out = []
    for n in range(len(coeffs)):
        s = complex(0.0)
        for k in range(n + 1):
            s += coeffs[k]
        out.append(mu_values[n] * s)
    return np.array(out)


def test_coefficient_route_matches_double_loop(catalog, rng):
    f = random_series(rng, 40)
    for m in catalog.values():
        mu = moments(m, 40)
        got = cesaro_like(mu, f).coeffs
        want = brute_transform(mu.values, f.coeffs)
        assert np.max(np.abs(got - want)) <= 1e-12


def test_lebesgue_reduces_to_classical_averages(catalog, rng):
    f = random_series(rng, 64)
    mu = moments(catalog["lebesgue"], 64)
    got = cesaro_like(mu, f).coeffs
    want = partial_sums(f) / np.arange(1.0, 66.0)
    assert np.max(np.abs(got - want)) <= 1e-12


def _fsum_prefixes(coeffs):
    """Correctly rounded partial sums, real and imaginary parts apart."""
    return np.array([complex(math.fsum(coeffs.real[:n + 1]),
                             math.fsum(coeffs.imag[:n + 1]))
                     for n in range(coeffs.size)])


def test_partial_sums_are_compensated():
    for coeffs in (
        [1.0, -1.0, 1e-18, 1e-18],
        # a plain cumsum loses every small term: 1 + 1e-16 rounds to 1
        [1.0] + [1e-16] * 10,
        # Kahan's loop returns 0 at the end: it rounds its carry away in -1
        [1.0, 1e-18, -1.0],
        np.array([1.0, 1e-18, -1.0]) * (1.0 - 2.0j),
    ):
        f = PowerSeries(coeffs)
        assert np.array_equal(partial_sums(f), _fsum_prefixes(f.coeffs))


@st.composite
def _spread_cancelling_series(draw):
    """Up to 400 complex coefficients with magnitudes over 1e-20..1e20,
    about a third of them the negative of an earlier coefficient."""
    n = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    parts = (rng.choice([-1.0, 1.0], (2, n))
             * 10.0 ** rng.uniform(-20.0, 20.0, (2, n)))
    coeffs = parts[0] + 1j * parts[1]
    for k in np.flatnonzero(rng.random(n) < 1.0 / 3.0)[1:]:
        coeffs[k] = -coeffs[rng.integers(0, k)]
    return coeffs


@settings(max_examples=40, deadline=None)
@given(_spread_cancelling_series())
def test_partial_sums_meet_the_compensated_bound(coeffs):
    # |s_n - fsum| <= 2 eps |s_n| + (N eps)**2 sum_{k<=n} |a_k|, the Sum2
    # bound with slack; a plain cumsum or Kahan's loop breaks it when a
    # large term cancels and leaves small ones behind
    eps = np.finfo(float).eps
    got = partial_sums(PowerSeries(coeffs))
    want = _fsum_prefixes(coeffs)
    bound = (2.0 * eps * np.abs(want)
             + (coeffs.size * eps) ** 2 * np.cumsum(np.abs(coeffs)))
    assert np.all(np.abs(got - want) <= bound)


def test_integral_route_matches_series_route(catalog, hat_table, rng):
    f = random_series(rng, 24, scale=0.5)
    padded = np.zeros(2048, dtype=complex)
    padded[:25] = f.coeffs
    measures = dict(catalog, hat_table=hat_table)
    for name, m in measures.items():
        mu = moments(m, 2047)
        series_side = cesaro_like(mu, PowerSeries(padded))
        for z in (0.3, 0.7j, -0.6 + 0.55j, 0.9):
            a = evaluate(series_side, z)
            b = cesaro_like_integral_eval(m, f, z)
            assert abs(a - b) <= 1e-8, (name, z)


def test_atom_integral_eval_closed_form(rng):
    from cesarops.measure import PointMass, RadialMeasure
    m = RadialMeasure((PointMass(0.7, 0.8),))
    f = random_series(rng, 12)
    for z in (0.5, 0.25 - 0.8j):
        want = 0.7 * evaluate(f, 0.8 * z) / (1.0 - 0.8 * z)
        got = cesaro_like_integral_eval(m, f, z)
        assert abs(got - want) <= 1e-12


def test_derivative_route_matches_differentiated_series(catalog, rng):
    f = random_series(rng, 24, scale=0.5)
    padded = np.zeros(2048, dtype=complex)
    padded[:25] = f.coeffs
    for name, m in catalog.items():
        mu = moments(m, 2047)
        transformed = cesaro_like(mu, PowerSeries(padded))
        d_series = derivative(transformed)
        for z in (0.4, -0.3 + 0.5j):
            a = evaluate(d_series, z)
            b = cesaro_like_derivative_eval(m, f, z)
            assert abs(a - b) <= 1e-8, (name, z)


def test_eval_point_validates_radius():
    f = PowerSeries([1.0, 2.0])
    assert evaluate(f, 0.999) == 2.998
    with pytest.raises(ValueError):
        evaluate(f, 1.0)
    with pytest.raises(ValueError):
        evaluate(f, 1.2j)


def test_integral_eval_rejects_large_radius(catalog, rng):
    f = random_series(rng, 4)
    with pytest.raises(ValueError):
        cesaro_like_integral_eval(catalog["lebesgue"], f, 0.97)


def test_non_finite_points_are_refused(catalog):
    # NaN passed the old radius tests: evaluate returned nan+nanj, and the
    # integral route raised QuadratureError only after a full quadrature
    f = log_series(4)
    for z in (math.nan, [0.5, math.nan], complex(math.inf, 0.0)):
        with pytest.raises(ValueError, match="not finite"):
            evaluate(f, z)
    for route in (cesaro_like_integral_eval, cesaro_like_derivative_eval):
        for z in (math.nan, complex(0.5, math.nan)):
            with pytest.raises(ValueError, match="finite"):
                route(catalog["lebesgue"], f, z)


def test_infinite_points_are_refused_before_any_arithmetic(catalog):
    # the cut used to run before the radius check, so an infinite z first
    # gave a RuntimeWarning, which -W error raises in place of the refusal
    f = log_series(64)
    for route in (cesaro_like_integral_eval, cesaro_like_derivative_eval):
        for z in (math.inf, -math.inf, complex(math.inf, 0.0),
                  complex(0.0, math.inf)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="finite"):
                    route(catalog["lebesgue"], f, z)


def test_a_derivative_that_overflows_is_refused_with_its_reason(catalog):
    # f is finite but f' = 2e308 z is not: numpy's overflow warning used to
    # come first, then the refusal blamed f's own coefficients
    f = PowerSeries([0.0, 0.0, 1e308])
    for call in (lambda: derivative(f), lambda: bloch_norm(f),
                 lambda: besov_norm(f, 3.0),
                 lambda: mean_lipschitz_norm(f, 2.0, 0.5),
                 lambda: cesaro_like_derivative_eval(catalog["lebesgue"], f,
                                                     0.5)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="derivative overflows"):
                call()


def test_horner_cut_survives_huge_coefficients():
    # summed without scaling, the tail of 1e308 * 0.9**k overflows to inf
    # and the cut keeps one term
    c = (-1.0) ** np.arange(4097) * 1e308 + 0j
    cut = _horner_terms(c, 0.9)
    assert 300 <= cut.size < 4097
    f = PowerSeries(c)
    for x in (0.45, 0.9):
        # two Horner rounding bounds plus the tail, with sum |c_k| x**k
        # = 1e308 / (1 - x) factored so that it does not overflow
        bound = (4 * 4096 + 1) * 2.0 ** -53 * 1e308 / (1.0 - x)
        assert abs(evaluate(f, x) - npoly.polyval(x, c)) <= bound


def test_horner_cut_edge_cases():
    assert _horner_terms(np.zeros(5, dtype=complex), 0.5).size == 1
    assert evaluate(PowerSeries(np.zeros(5)), [0.5, -0.9j]).tolist() == [0, 0]
    f = log_series(4096)
    assert _horner_terms(f.coeffs, 0.0).size == 1
    assert evaluate(f, 0.0) == 0.0
    assert _horner_terms(np.array([2.5 + 0j]), 0.9).size == 1
    assert evaluate(PowerSeries([2.5]), 0.9) == 2.5
    one = np.zeros(4097, dtype=complex)
    one[0] = 1.0
    for rho in (0.0, 0.5, 0.95, MAX_ABS_Z):
        assert _horner_terms(one, rho).size == 1
    assert evaluate(PowerSeries(one), 0.9j) == 1.0


@st.composite
def _spread_series(draw):
    """Degree <= 600, magnitudes over 1e-150..1e150 sorted to grow or to
    decay, real or complex, some coefficients zero; a radius rho in
    [0, 0.95] and eight nodes |x| <= rho, two of them at +-rho."""
    n = draw(st.integers(0, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    exps = np.sort(rng.uniform(-150.0, 150.0, n + 1))
    if draw(st.booleans()):
        exps = exps[::-1]
    c = rng.choice([-1.0, 1.0], n + 1) * 10.0 ** exps + 0j
    if draw(st.booleans()):
        c *= np.exp(2j * np.pi * rng.random(n + 1))
    c[rng.random(n + 1) < draw(st.floats(0.0, 0.5))] = 0.0
    rho = draw(st.floats(0.0, 0.95))
    x = rho * rng.random(8) * np.exp(2j * np.pi * rng.random(8))
    x[:2] = rho, -rho
    return c, rho, x


@settings(max_examples=40, deadline=None)
@given(_spread_series())
def test_horner_cut_meets_its_bound(case):
    c, rho, x = case
    cut = _horner_terms(c, rho)
    assert 1 <= cut.size <= c.size and np.array_equal(cut, c[:cut.size])
    with mpmath.workdps(30):
        w = [mpmath.mpf(abs(a)) * mpmath.mpf(rho) ** k
             for k, a in enumerate(c)]
        total, tail = mpmath.fsum(w), mpmath.fsum(w[cut.size:])
        # 1e-9 of slack for the rounding of the helper's own sum
        assert tail <= 2.0 ** -53 * total * (1.0 + 1e-9)
        total = float(total)
    # two Horner rounding bounds gamma_2n sum |c_k| rho**k, plus the tail
    bound = (4 * (c.size - 1) + 1) * 2.0 ** -53 * total
    assert np.all(np.abs(npoly.polyval(x, cut) - npoly.polyval(x, c))
                  <= bound)


def _unmasked_horner_terms(c, rho):
    """The cut with every weight through ``exp``, subnormals included."""
    with np.errstate(divide="ignore", under="ignore"):
        logw = np.log(np.abs(c))
        logw[1:] += np.arange(1, c.size) * np.log(rho)
        if not logw.max() > -np.inf:
            return c[:1]
        tail = np.cumsum(np.exp(logw - logw.max())[::-1])[::-1]
    return c[:1 + np.count_nonzero(tail[1:] > 2.0 ** -53 * tail[0])]


@settings(max_examples=40, deadline=None)
@given(_spread_series())
def test_horner_cut_without_subnormal_weights_keeps_the_prefix(case):
    c, rho, _ = case
    assert np.array_equal(_horner_terms(c, rho),
                          _unmasked_horner_terms(c, rho))


@pytest.mark.parametrize("rho", [0.3, 0.6, 0.9])
def test_horner_cut_of_the_log_series_keeps_the_prefix(rho):
    # at rho = 0.3 and 0.6 most weights k**-1 rho**k lie below the smallest
    # normal float times the largest; at 0.9 none does
    c = log_series(4096).coeffs
    k = np.arange(1, c.size)
    logw = k * math.log(rho) - np.log(k)
    below = np.count_nonzero(logw - logw.max() < math.log(sys.float_info.min))
    assert below > 2000 if rho < 0.9 else below == 0
    assert np.array_equal(_horner_terms(c, rho),
                          _unmasked_horner_terms(c, rho))


@st.composite
def _ray_case(draw):
    """Degree <= 300, magnitudes over 1e-20..1e20, real or complex, some
    coefficients zero; a point z = 0 or 2**-20 <= |z| <= 0.95, so that
    ``t z`` does not underflow, against which Horner's bound does not hold;
    and real nodes t in [0, 1), one, sixteen, or two more than one row
    block of the power table."""
    n = draw(st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    c = rng.choice([-1.0, 1.0], n + 1) * 10.0 ** rng.uniform(-20, 20, n + 1)
    c = c + 0j
    if draw(st.booleans()):
        c *= np.exp(2j * np.pi * rng.random(n + 1))
    c[rng.random(n + 1) < draw(st.floats(0.0, 0.5))] = 0.0
    z = (draw(st.one_of(st.just(0.0), st.floats(2.0 ** -20, 0.95)))
         * np.exp(2j * np.pi * rng.random()))
    rows = _RAY_BLOCK // _horner_terms(c, abs(z)).size
    t = rng.random(draw(st.sampled_from([1, 16, rows + 2])))
    t[0] = draw(st.sampled_from([t[0], 0.0]))
    return c, complex(z), t, rows


@settings(max_examples=30, deadline=None)
@given(_ray_case())
def test_ray_values_meet_horner_within_their_bounds(case):
    c, z, t, rows = case
    got = _ray_values(_ray_terms((c,), z), t)[:, 0]
    assert got.shape == t.shape
    # Horner on the whole series is the oracle, checked at every node of a
    # short array and on both sides of the block boundary of a long one
    at = np.arange(t.size) if t.size <= 16 else np.r_[0:8, rows - 8:rows + 2]
    x = abs(z) * t[at]
    want = npoly.polyval(t[at] * z, c)
    size = _horner_terms(c, abs(z)).size
    total = npoly.polyval(x, np.abs(c))
    tail = x ** size * npoly.polyval(x, np.append(np.abs(c[size:]), 0.0))
    # first-order rounding bounds in complex arithmetic, where a product
    # is within sqrt(2) gamma_2 (Higham 2002, section 3.6): for degree n,
    # below 5 n u sum_k |c_k| |tz|**k for Horner's scheme and 6 n u for
    # the table, the powers of z and the sum; plus the dropped tail
    m = 11 * (c.size - 1)
    bound = m * 2.0 ** -53 / (1.0 - m * 2.0 ** -53) * total + tail
    assert np.all(np.abs(got[at] - want) <= bound * (1.0 + 1e-9))


class _KernelTap:
    """A one-component stand-in for a measure: keeps the kernel that an
    integral route hands to its component, and integrates it to 0."""

    def __init__(self):
        self.components = (self,)
        self.kernels = []

    def integrate(self, g, tol):
        self.kernels.append(g)
        return 0.0


def _route_kernel(route, f, z):
    tap = _KernelTap()
    route(tap, f, z)
    (kernel,) = tap.kernels
    return kernel


def test_derivative_kernel_is_elementwise_across_row_blocks():
    f = log_series(4096)
    z = 0.9 * np.exp(0.7j)
    kernel = _route_kernel(cesaro_like_derivative_eval, f, z)
    size = _ray_terms((derivative(f).coeffs, f.coeffs), z).shape[1]
    rows = _RAY_BLOCK // size
    assert 100 < size and rows > 100
    # three row blocks; the quadrature needs the same bits for a node
    # whatever array it comes in
    t = np.sort(np.random.default_rng(7).uniform(0.0, 0.99, 2 * rows + 5))
    whole = kernel(t)
    for i in range(t.size):
        assert kernel(t[i:i + 1]).tobytes() == whole[i:i + 1].tobytes()
    for start in (rows - 8, 2 * rows - 8):
        part = kernel(t[start:start + 16])
        assert part.tobytes() == whole[start:start + 16].tobytes()


def test_power_table_is_built_in_row_blocks():
    # the cut at |z| = 0.95 keeps every term of 1.05**k: one table for all
    # 65,536 nodes of a full quadrature level would take 2 GB
    f = PowerSeries(1.05 ** np.arange(4097))
    z = 0.95j
    assert _ray_terms((f.coeffs,), z).shape[1] == 4097
    kernel = _route_kernel(cesaro_like_derivative_eval, f, z)
    t = -np.expm1(-np.linspace(0.0, 32.0, 65536))
    tracemalloc.start()
    try:
        values = kernel(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == t.shape and np.all(np.isfinite(values))
    assert peak < 8 * 2 ** 20


def _mp_coefficient_route(mu, f, z):
    """``(C f)(z)`` and ``(C f)'(z)`` as ``sum_n mu(n) s_n z**n`` summed in
    mpmath from the moment formula ``mu``: apart from ``moments``,
    ``cesaro_like``, ``evaluate`` and the cut."""
    with mpmath.workdps(30):
        s = mpmath.mpc(0)
        image = []
        for n, a in enumerate(f.coeffs):
            s += mpmath.mpc(a.real, a.imag)
            image.append(mu(n) * s)
        value, slope = mpmath.polyval(image[::-1], mpmath.mpc(z),
                                      derivative=True)
        return complex(value), complex(slope)


def test_integral_route_meets_an_mpmath_coefficient_route():
    from cesarops.measure import PointMass, PowerLogDensity, RadialMeasure
    measures = [
        # Lebesgue measure: mu_n = 1/(n+1)
        (RadialMeasure((PowerLogDensity(1.0, 1.0),)),
         lambda n: 1 / mpmath.mpf(n + 1)),
        (RadialMeasure((PointMass(0.7, 0.8),)),
         lambda n: mpmath.mpf(0.7) * mpmath.mpf(0.8) ** n),
    ]
    functions = [log_series(4096), make_test_function(0.9, 2.0, 4096)]
    for m, mu in measures:
        for f in functions:
            for z in (0.9, -0.5 + 0.7j, 0.3j):
                value, slope = _mp_coefficient_route(mu, f, z)
                for got, want in ((cesaro_like_integral_eval(m, f, z), value),
                                  (cesaro_like_derivative_eval(m, f, z),
                                   slope)):
                    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


@pytest.mark.parametrize("name", ["lebesgue", "power_half"])
def test_integral_route_settles_in_at_most_two_quadrature_levels(
        catalog, rng, monkeypatch, name):
    # A power-log kernel starts on the dyadic u-panels [0, 1], [1, 2],
    # [2, 4], ...  Bisection of the whole u-interval reaches them toward
    # u = 0 one level, and one integrand call, at a time: 5-6 calls here.
    calls = []

    def counted(f, a, b, **kwargs):
        def integrand(u):
            calls.append(u.size)
            return f(u)
        return integrate_adaptive(integrand, a, b, **kwargs)

    monkeypatch.setattr(measure_module, "integrate_adaptive", counted)
    functions = [log_series(4096), make_test_function(0.9, 2.0, 4096),
                 random_series(rng, 4096)]
    for f in functions:
        for z in (0.3j, 0.6 * np.exp(2.2j), -0.89):
            for route in (cesaro_like_integral_eval,
                          cesaro_like_derivative_eval):
                calls.clear()
                route(catalog[name], f, z)
                assert 1 <= len(calls) <= 2, (route.__name__, z, calls)


def test_cesaro_like_requires_enough_moments(catalog, rng):
    f = random_series(rng, 8)
    mu = moments(catalog["lebesgue"], 4)
    with pytest.raises(ValueError):
        cesaro_like(mu, f)


def test_log_series_coefficients():
    f = log_series(6)
    assert f.coeffs[0] == 0.0
    for k in range(1, 7):
        assert f.coeffs[k] == pytest.approx(1.0 / k, abs=0.0)
    # partial sums of the log series evaluate towards log(1/(1-z))
    z = 0.5
    assert evaluate(log_series(200), z) == pytest.approx(math.log(2.0),
                                                         abs=1e-14)


def test_test_function_normalization():
    f = make_test_function(0.5, 2.0, 4)
    scale = (1.0 - math.log1p(-0.5)) ** -0.5
    assert f.coeffs[1] == pytest.approx(scale * 0.5, rel=1e-14)
    assert f.coeffs[3] == pytest.approx(scale * 0.5 ** 3 / 3.0, rel=1e-14)
    with pytest.raises(ValueError):
        make_test_function(0.4, 2.0, 4)
    with pytest.raises(ValueError):
        make_test_function(1.0, 2.0, 4)
    with pytest.raises(ValueError):
        make_test_function(0.9, 1.0, 4)


def test_function_dict_round_trip(rng):
    f = random_series(rng, 6)
    again = function_from_dict({"coeffs_re": f.coeffs.real.tolist(),
                                "coeffs_im": f.coeffs.imag.tolist()})
    assert np.array_equal(again.coeffs, f.coeffs)
    builtin = function_from_dict({"builtin": "log_one_over_one_minus_z",
                                  "degree": 16})
    assert builtin.degree == 16
    with pytest.raises(FunctionSpecError):
        function_from_dict({"builtin": "no_such_function"})
    with pytest.raises(FunctionSpecError):
        function_from_dict({"coeffs_re": []})


def test_function_from_dict_docstring_names_every_builtin():
    for name in _BUILTINS:
        assert name in function_from_dict.__doc__


def test_evaluate_accepts_eval_points_and_arrays(rng):
    f = random_series(rng, 10)
    zs = np.array([0.0, 0.5, 0.5j])
    vals = evaluate(f, zs)
    assert vals.shape == (3,)
    assert vals[0] == f.coeffs[0]
    # an empty array evaluates to an empty array, as in polyval
    empty = evaluate(f, np.array([]))
    assert empty.shape == (0,) and empty.dtype == complex


def test_derivative_basics(rng):
    const = PowerSeries([3.0])
    d = derivative(const)
    assert d.degree == 0 and d.coeffs[0] == 0.0
    f = random_series(rng, 5)
    d = derivative(f)
    for k in range(5):
        assert d.coeffs[k] == pytest.approx((k + 1) * f.coeffs[k + 1],
                                            rel=1e-15, abs=1e-15)


@pytest.mark.parametrize("degree", [0, 1, 300, 32768])
def test_derivative_matches_polyder_to_the_bit(rng, degree):
    f = random_series(rng, degree)
    got = derivative(f).coeffs
    want = npoly.polyder(f.coeffs)
    # every real and imaginary part to the bit: a series with no nonzero
    # imaginary part (the degree-0 derivative) is stored as float64
    assert np.array_equal(bits(got.real), bits(want.real))
    assert np.array_equal(bits(got.imag), bits(want.imag))


def test_series_without_imaginary_parts_are_stored_as_float64(catalog, rng):
    mu = moments(catalog["lebesgue"], 16)
    real = [PowerSeries([1, 2, 3]), PowerSeries([True]),
            PowerSeries(np.array([1.0 - 0.0j, -2.0 + 0.0j])),
            log_series(16), make_test_function(0.9, 2.0, 16),
            derivative(log_series(16)), derivative(PowerSeries([1j])),
            cesaro_like(mu, make_test_function(0.75, 2.0, 16)),
            function_from_dict({"coeffs_re": [1.0, -2.0]}),
            function_from_dict({"coeffs_re": [1.0], "coeffs_im": [0.0]})]
    assert all(f.coeffs.dtype == np.float64 for f in real)
    x = rng.standard_normal(9)
    assert np.array_equal(bits(PowerSeries(x + 0j).coeffs), bits(x))
    # the series holds a copy of its input in either dtype
    for source in (x.copy(), x + 1j):
        f = PowerSeries(source)
        source[0] = 7.0
        assert f.coeffs[0] == x[0] + (source.dtype == complex) * 1j
    # any nonzero imaginary part, the smallest subnormal included, keeps
    # complex128 and every part
    for im in (1.0, -1e-300, 5e-324):
        coeffs = x + 0j
        coeffs[4] += 1j * im
        f = PowerSeries(coeffs)
        assert f.coeffs.dtype == np.complex128
        assert np.array_equal(bits(f.coeffs.view(float)),
                              bits(coeffs.view(float)))
    spec = {"coeffs_re": [1.0, 2.0], "coeffs_im": [0.0, 1e-300]}
    assert function_from_dict(spec).coeffs.dtype == np.complex128
    assert random_series(rng, 3).coeffs.dtype == np.complex128
    with pytest.raises(FunctionSpecError, match="finite"):
        PowerSeries([1.0, complex(0.0, math.nan)])


@st.composite
def _real_series(draw):
    """Real coefficients of degree <= 600, signed magnitudes over
    1e-20..1e20, some zero; a point |z| <= 0.95 and four radii in [0, 1],
    0 and 1 among them."""
    n = draw(st.integers(0, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    c = rng.choice([-1.0, 1.0], n + 1) * 10.0 ** rng.uniform(-20.0, 20.0,
                                                             n + 1)
    c[rng.random(n + 1) < draw(st.floats(0.0, 0.5))] = 0.0
    z = 0.95 * rng.random() * np.exp(2j * np.pi * rng.random())
    return c, z, np.array([0.0, rng.random(), rng.random(), 1.0])


def _stored_as(coeffs):
    """A series holding ``coeffs`` in their own dtype, complex128 for a
    real series too, which the constructor stores as float64."""
    f = object.__new__(PowerSeries)
    object.__setattr__(f, "coeffs", coeffs)
    return f


@settings(max_examples=40, deadline=None)
@given(_real_series())
def test_float64_and_complex128_copies_give_the_same_bits(case):
    c, z, radii = case
    wide = c.astype(complex)
    f = PowerSeries(wide)
    assert f.coeffs.dtype == np.float64
    assert np.array_equal(bits(f.coeffs), bits(c))
    pairs = [(_horner_terms(c, abs(z)), _horner_terms(wide, abs(z))),
             (_ray_terms((c,), z), _ray_terms((wide,), z)),
             (_mean_squares(c, radii), _mean_squares(wide, radii)),
             (partial_sums(f), partial_sums(_stored_as(wide)))]
    # an odd m that folds, one that pads
    pairs += [(_half_circle(c, radii, m), _half_circle(wide, radii, m))
              for m in (7, 1024)]
    for got, want in pairs:
        assert got.shape == want.shape
        assert np.array_equal(bits(got.real), bits(want.real))
        assert np.array_equal(bits(got.imag), bits(want.imag))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 12), st.integers(1, 3))
def test_cesaro_like_is_linear(deg, seed):
    rng = np.random.default_rng(seed)
    from cesarops.measure import PowerLogDensity, RadialMeasure
    m = RadialMeasure((PowerLogDensity(1.0, 1.5, 0.5),))
    mu = moments(m, deg)
    f = random_series(rng, deg)
    g = random_series(rng, deg)
    lhs = cesaro_like(mu, PowerSeries(f.coeffs + 2.0 * g.coeffs)).coeffs
    rhs = cesaro_like(mu, f).coeffs + 2.0 * cesaro_like(mu, g).coeffs
    assert np.max(np.abs(lhs - rhs)) <= 1e-10
