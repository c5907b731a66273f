"""Norm machinery against brute-force circle and disc integrals.

Every quantity produced by :mod:`cesarops.norms` has an independent
check here: integral means against dense Riemann sums and against the
coefficient (Parseval) identity, the Besov seminorm against a
singularity-aware radial quadrature done with mpmath, and the sup-type
norms against functions whose extremal radius is known exactly.
"""

import math
import sys
import time
from unittest import mock

import mpmath
import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import example, given, settings, strategies as st

from cesarops import norms
from cesarops.norms import (
    besov_norm,
    bloch_norm,
    growth_ratio,
    integral_mean,
    mean_lipschitz_norm,
)
from cesarops.norms import _besov_quadrature, _dyadic_radii, _next_pow2
from cesarops.quadrature import integrate_adaptive
from cesarops.series import PowerSeries, derivative, evaluate, log_series
from cesarops.series import test_function as make_test_function

from conftest import random_series


def brute_mean(f, r, p, m=1 << 16):
    """Riemann-sum p-mean on the circle, m equally spaced angles."""
    theta = np.arange(m) * (2.0 * math.pi / m)
    vals = np.abs(npoly.polyval(r * np.exp(1j * theta), f.coeffs))
    return float(np.mean(vals ** p)) ** (1.0 / p)


def fft_mean(f, r, p, m=1 << 20):
    """Trapezoid p-mean on the m exact FFT samples of the whole circle:
    the coefficients scaled by r**n and zero-padded, with no cut of the
    powers, no fold and no nested rules.  Where |f|**p has a kink on the
    circle its error decays like m**-(p+1), so m = 2**20 angles leave it
    far below 1e-9 relative."""
    scaled = f.coeffs * r ** np.arange(f.coeffs.size)
    vals = np.abs(np.fft.ifft(scaled, m, norm="forward"))
    return float(np.mean(vals ** p)) ** (1.0 / p)


def closed_form_besov_p2(coeffs):
    """``|a_0| + (sum n |a_n|**2)**(1/2)``, summed exactly by fsum."""
    return abs(complex(coeffs[0])) + math.sqrt(math.fsum(
        n * abs(complex(a)) ** 2 for n, a in enumerate(coeffs)))


def brute_ladder(per_radius, max_levels=5):
    """Per-level sup over every radius of ``_dyadic_radii(level)``, with
    no sharing of evaluations between levels."""
    return [max(per_radius(r, level) for r in _dyadic_radii(level))
            for level in range(max_levels)]


# ----------------------------------------------------------------- samples


def half_circle_polyval(coeffs, r, m):
    """``polyval`` at the angles a row of ``_half_circle`` covers: ``conj f``
    at ``k <= m/2`` for a real series, ``f`` at every ``k`` for a complex
    one."""
    real = not coeffs.imag.any()
    theta = np.arange(m // 2 + 1 if real else m) * (2.0 * math.pi / m)
    vals = npoly.polyval(r * np.exp(1j * theta), coeffs)
    return vals.conj() if real else vals


def half_row(f, r, m):
    """The row of ``_half_circle`` at the radius ``r`` alone."""
    return norms._half_circle(f.coeffs, np.array([r]), m)[0]


def test_circle_values_match_naive_polyval(rng):
    # Complex and real coefficients take different FFTs; an odd m has no
    # Nyquist angle in the real FFT; m below the length folds, m above it
    # pads.  At degree 4096 the radii 0.3 and 0.9 drop the terms whose
    # r**n is subnormal (at r = 1 Horner's own error there exceeds 1e-12).
    short, long = random_series(rng, 40), random_series(rng, 4096)
    cases = [(f, r) for f in (short, PowerSeries(short.coeffs.real))
             for r in (0.0, 0.3, 0.7, 1.0)]
    cases += [(f, r) for f in (long, PowerSeries(long.coeffs.real))
              for r in (0.3, 0.9)]
    for f, r in cases:
        for m in (7, 13, 45, 64, 8192):
            want = half_circle_polyval(f.coeffs, r, m)
            got = half_row(f, r, m)
            assert got.shape == want.shape
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("r", [0.3, 0.9])
def test_circle_values_keep_every_normal_power(r):
    # Only terms with a subnormal r**n may be dropped, and the dropped
    # tail is at most tiny * sum |a_n|.  The coefficient 2**600 lifts the
    # terms on either side of the cutoff far above the subnormal range.
    tiny, big, m = sys.float_info.min, 2.0 ** 600, 64
    powers = r ** np.arange(8192)
    last = int(np.flatnonzero(powers >= tiny)[-1])
    kept = np.zeros(last + 1)
    kept[last] = big
    angles = (2.0 * math.pi / m) * (last * np.arange(m // 2 + 1) % m)
    assert np.allclose(half_row(PowerSeries(kept), r, m),
                       big * powers[last] * np.exp(-1j * angles),
                       rtol=1e-12, atol=0.0)
    dropped = np.zeros(last + 2)
    dropped[last + 1] = big
    assert np.max(np.abs(half_row(PowerSeries(dropped), r, m))) <= tiny * big


def test_circle_sample_rows_equal_circle_values(rng):
    # The rows of a batch are the call at each radius alone to the bit,
    # when the rows fold (m = 64 < 301 terms) or pad (m = 1024), when some
    # or all rows lose terms to the normal-power cut (r**300 is subnormal
    # at r <= 0.09), for radii in any order, and for no rows at all.
    radii = np.array([0.5, 0.0, 0.9, 1e-3, 1.0, 0.05, 0.3])
    for f in (random_series(rng, 300), PowerSeries(rng.standard_normal(301))):
        real = not f.coeffs.imag.any()
        for m in (64, 1024):
            for rows in (radii, radii[[1, 3, 5]], radii[:0]):
                got = norms._half_circle(f.coeffs, rows, m)
                assert got.shape == (rows.size, m // 2 + 1 if real else m)
                for r, row in zip(rows, got):
                    assert row.tobytes() == half_row(f, r, m).tobytes()


# The edge radii: r**300 is subnormal at 0.01 and 1e-3 (the cut falls
# inside a degree-300 series), underflows to zero at 1e-300, and the
# samples at r = 0 and r = 1 take no cut at all.
_EDGE_RADII = [0.0, 1e-300, 1e-3, 0.01, 1.0]


def test_half_circle_moduli_rows_equal_the_scalar_rows(rng):
    # One FFT call takes every row of a batch, including the rows cut to
    # their normal powers (r**300 is subnormal at r <= 0.09) beside rows
    # that keep all 301 terms, when the rows fold (m = 64) or pad (m =
    # 1024).  The moduli of each row are those of the call at its radius
    # alone to the bit, and the polyval values at the angles the row
    # covers: k <= m/2 for a real series, every k for a complex one.
    radii = np.array([0.0, 1e-300, 1e-3, 0.05, 0.5, 0.9, 1.0])
    for f in (random_series(rng, 300), PowerSeries(rng.standard_normal(301))):
        real = not f.coeffs.imag.any()
        tol = 1e-13 * np.sum(np.abs(f.coeffs))
        for m in (64, 1024):
            with mock.patch.object(np.fft, "rfft", wraps=np.fft.rfft) as rf, \
                    mock.patch.object(np.fft, "ifft", wraps=np.fft.ifft) as cf:
                got = np.abs(norms._half_circle(f.coeffs, radii, m))
            assert (rf.call_count, cf.call_count) == (real, not real)
            assert got.shape == (radii.size, m // 2 + 1 if real else m)
            for r, row in zip(radii, got):
                assert row.tobytes() == np.abs(half_row(f, r, m)).tobytes()
                assert np.allclose(row, np.abs(half_circle_polyval(
                    f.coeffs, r, m)), rtol=1e-12, atol=tol)
    # A term past a row's cut is zero in that row, as when the row is taken
    # alone, also beside a row that keeps it: 0.5**1050 is subnormal, but
    # 2**600 * 0.5**1050 = 2**-450 is not.
    lone = np.zeros(1051)
    lone[1050] = 2.0 ** 600
    got = np.abs(norms._half_circle(lone, np.array([0.5, 1.0]), 64))
    assert not got[0].any() and got[1].min() > 0.0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 31), degree=st.integers(0, 300),
       r=st.floats(0.0, 1.0) | st.sampled_from(_EDGE_RADII),
       p=st.floats(0.5, 4.0), log2m=st.integers(3, 11))
def test_half_circle_rules_equal_the_whole_circle_rules(seed, degree, r, p,
                                                        log2m):
    # On the half circle of a real series the m-, m/2- and m/4-point rules
    # weigh the angles 0 and pi once and the others twice; they are the
    # means over the whole circle, summed in another order.  The whole
    # circle is the half row and its mirror |f(conj z)| = |f(z)|, which
    # meets polyval at all m angles.  m = 8 keeps two angles for the m/4
    # rule; m below the length folds.
    coeffs = np.random.default_rng(seed).standard_normal(degree + 1)
    m, rows = 2 ** log2m, np.array([r])
    half = np.abs(norms._half_circle(coeffs, rows, m))
    whole = np.concatenate([half, half[:, (m - 1) // 2:0:-1]], axis=1)
    theta = np.arange(m) * (2.0 * math.pi / m)
    assert np.allclose(whole[0], np.abs(npoly.polyval(
        r * np.exp(1j * theta), coeffs)), rtol=0.0,
        atol=1e-12 * np.sum(np.abs(coeffs)))
    whole, half = whole ** p, half ** p
    want = np.array([whole[:, ::k].mean(axis=1) for k in (1, 2, 4)])
    got = norms._trapezoid_rules(half, m)
    assert np.all(np.abs(got - want) <= 8 * sys.float_info.epsilon
                  * whole.max())


# ----------------------------------------------------------- integral means


def test_mean_square_matches_coefficient_sum(rng):
    # Parseval: M_2(r, f')^2 == sum n^2 |a_n|^2 r^(2n-2).
    f = random_series(rng, 1024)
    n = np.arange(1.0, 1025.0)
    for r in (0.5, 1.0 - 2.0 ** -10):
        want = math.sqrt(float(np.sum(n ** 2 * np.abs(f.coeffs[1:]) ** 2
                                      * r ** (2 * n - 2))))
        got = integral_mean(f, r, 2.0, use_derivative=True)
        assert got == pytest.approx(want, rel=1e-12)


def test_mean_square_matches_sampled_circle_mean(rng):
    # |f|**2 on the circle is a trigonometric polynomial of degree 2 deg,
    # so the uniform mean over m >= 2 deg + 1 angles is exact.
    f = random_series(rng, 300)
    for r in (0.0, 0.5, 1.0 - 2.0 ** -10, 1.0):
        assert integral_mean(f, r, 2.0) == pytest.approx(
            brute_mean(f, r, 2.0, m=1024), rel=1e-13)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_mean_p_matches_riemann_sum(rng, p):
    f = random_series(rng, 24)
    for r in (0.3, 0.85):
        assert integral_mean(f, r, p) == pytest.approx(
            brute_mean(f, r, p), rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 31), degree=st.integers(0, 40),
       r=st.floats(0.0, 1.0), p=st.floats(1.1, 4.0),
       zero=st.none() | st.floats(0.0, 2.0 * math.pi), adaptive=st.just(False))
@example(seed=7, degree=12, r=1.0, p=1.5, zero=0.0, adaptive=True)
@example(seed=7, degree=12, r=1.0, p=1.5, zero=0.01235560959345848,
         adaptive=True)
def test_mean_p_matches_riemann_sum_on_random_series(seed, degree, r, p,
                                                     zero, adaptive):
    # Unless ``zero`` is None the series is shifted to vanish at
    # z = r * exp(i * zero), so |f|**p has a kink on the circle, in general
    # between sample angles.  The Riemann sum's own error there decays
    # only like m**-(p+1), about 2e-9 relative at p = 1.1 and m = 2**16, so
    # it takes 2**18 angles.  ``adaptive`` (set by the examples) asserts
    # that the trapezoid rule on the samples did not settle such a kink and
    # the mean came from the adaptive angular quadrature.  In the second
    # example the means over 256 and 128 angles agree to 1e-16 while both
    # are 4e-6 off: the kink's offset within a step cancels the leading
    # error terms' difference, so two nested rules alone accept it.
    coeffs = random_series(np.random.default_rng(seed), degree).coeffs
    if zero is not None:
        coeffs[0] -= npoly.polyval(r * np.exp(1j * zero), coeffs)
    f = PowerSeries(coeffs)
    with mock.patch.object(norms, "integrate_adaptive",
                           wraps=norms.integrate_adaptive) as spy:
        got = integral_mean(f, r, p)
    want = brute_mean(f, r, p, m=1 << (16 if zero is None else 18))
    assert got == pytest.approx(want, rel=1e-9)
    if adaptive:
        assert spy.called


def test_mean_derivative_flag_equals_explicit_derivative(rng):
    f = random_series(rng, 17)
    got = integral_mean(f, 0.6, 2.0, use_derivative=True)
    want = integral_mean(derivative(f), 0.6, 2.0)
    assert got == want


def test_mean_rejects_nonpositive_exponent():
    with pytest.raises(ValueError):
        integral_mean(PowerSeries([1.0, 1.0]), 0.5, 0.0)


def test_mean_of_zero_function_is_zero():
    assert integral_mean(PowerSeries([0.0, 0.0]), 0.5, 1.5) == 0.0
    means = integral_mean(PowerSeries([0.0, 0.0]), np.array([0.0, 0.5]), 3.0)
    assert means.tolist() == [0.0, 0.0]


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 31), degree=st.integers(0, 300),
       real=st.booleans(), p=st.floats(1.1, 4.0).filter(lambda p: p != 2.0),
       radii=st.lists(st.floats(0.0, 1.0) | st.sampled_from(_EDGE_RADII),
                      min_size=1, max_size=400).map(sorted),
       picks=st.lists(st.integers(0, 399), min_size=2, max_size=3))
@example(seed=3, degree=300, real=False, p=1.5, radii=_EDGE_RADII,
         picks=[2, 3, 4])
@example(seed=3, degree=300, real=True, p=3.0, radii=_EDGE_RADII + [0.5],
         picks=[0, 3, 5])
@example(seed=0, degree=208, real=True, p=1.25, radii=[1.0], picks=[0, 0])
def test_mean_at_many_radii_equals_the_scalar_means(seed, degree, real, p,
                                                    radii, picks):
    # The batch takes its samples in row blocks and cuts each row to its
    # normal powers; every row must still be the scalar call, to the bit.
    # The picks meet the dense FFT oracle: in the last example |f|**1.25
    # has a kink on the unit circle, and a 2**16-angle Riemann sum there
    # is 5.4e-9 off while the program is right to 2e-15.
    f = random_series(np.random.default_rng(seed), degree)
    if real:
        f = PowerSeries(f.coeffs.real)
    got = integral_mean(f, np.array(radii), p)
    assert got.dtype == float and got.shape == (len(radii),)
    assert got.tolist() == [integral_mean(f, r, p) for r in radii]
    for i in sorted({k % len(radii) for k in picks}):
        assert got[i] == pytest.approx(fft_mean(f, radii[i], p), rel=1e-9)


def test_mean_at_radii_of_several_row_blocks(rng):
    # m = 1024 samples for a degree-200 series: 32 rows a block, so the
    # 193 ladder radii take seven blocks, the last one short.  The
    # coefficients shrink like 0.8**n and the constant term is twice the
    # sum of the others' moduli, so |f| >= |f(0)| / 2 on the closed disc
    # and |f|**p is smooth enough that no row falls back.
    radii = _dyadic_radii(4)
    decay = 0.8 ** np.arange(201)
    for coeffs in (random_series(rng, 200).coeffs, rng.standard_normal(201)):
        coeffs *= decay
        coeffs[0] = 2.0 * np.sum(np.abs(coeffs[1:]))
        f = PowerSeries(coeffs)
        assert _next_pow2(4 * f.coeffs.size) == 1024
        assert radii.size * 1024 > 6 * norms._SAMPLE_BLOCK
        for p in (1.5, 3.0):
            with mock.patch.object(norms, "integrate_adaptive") as spy:
                got = integral_mean(f, radii, p)
                want = [integral_mean(f, r, p) for r in radii]
            assert not spy.called
            assert got.tolist() == want


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_angular_mean_of_a_real_series_takes_the_half_circle(rng, p):
    # Real coefficients with the conjugate zeros 0.799 exp(+-1.1i), just
    # inside the circle r = 0.8, so that |f|**p nearly kinks there.  The
    # full-circle rule, to the same tolerance, is the oracle.
    a = 0.799 * np.exp(1.1j)
    coeffs = npoly.polymul([abs(a) ** 2, -2.0 * a.real, 1.0],
                           rng.standard_normal(30)) + 0j
    r = 0.8
    peak = np.max(np.abs(npoly.polyval(
        r * np.exp(2j * np.pi * np.arange(4096) / 4096), coeffs))) ** p

    def integrand(theta):  # against d theta / (2 pi): at most about 1
        vals = np.abs(npoly.polyval(r * np.exp(1j * theta), coeffs)) ** p
        return vals / (peak * 2.0 * math.pi)

    full = integrate_adaptive(integrand, 0.0, 2.0 * math.pi, tol=1e-11)
    with mock.patch.object(norms, "integrate_adaptive",
                           wraps=norms.integrate_adaptive) as spy:
        got = norms._angular_mean(coeffs, r, p, peak)
    assert spy.call_args.args[1:] == (0.0, math.pi)
    assert abs(got - peak * full.value.real) <= 1e-11 * peak
    # a complex series keeps the whole circle
    with mock.patch.object(norms, "integrate_adaptive",
                           wraps=norms.integrate_adaptive) as spy:
        norms._angular_mean(coeffs * 1j, r, p, peak)
    assert spy.call_args.args[1:] == (0.0, 2.0 * math.pi)


def test_one_kinked_radius_falls_back_alone_inside_a_batch(rng):
    # Shifted to vanish at z = 0.9, the series has |f|**1.5 kinked on the
    # circle of radius 0.9; the three trapezoid rules disagree there and
    # that row alone goes to the adaptive angular rule.  The next zero
    # lies at |z| = 0.767, far enough from the other circles.
    coeffs = random_series(rng, 20).coeffs
    coeffs[0] -= npoly.polyval(0.9, coeffs)
    f = PowerSeries(coeffs)
    radii = np.array([0.2, 0.5, 0.9, 0.4, 0.1])
    with mock.patch.object(norms, "integrate_adaptive",
                           wraps=norms.integrate_adaptive) as spy:
        got = integral_mean(f, radii, 1.5)
    assert spy.call_count == 1
    for r, mean in zip(radii, got):
        assert mean == pytest.approx(brute_mean(f, r, 1.5, m=1 << 18),
                                     rel=1e-9)
        if r != 0.9:
            assert mean == integral_mean(f, r, 1.5)


@pytest.mark.parametrize("p", [1.5, 2.0])
def test_mean_radius_shapes_and_ranges(p):
    # A scalar and a 0-d array give a float, an empty array an empty float
    # array; a radius outside [0, 1] (NaN too) anywhere in the array, or
    # an array of more than one dimension, is refused.
    f = PowerSeries([1.0, 2.0, -0.5])
    scalar = integral_mean(f, 0.5, p)
    assert type(scalar) is float
    assert integral_mean(f, np.array(0.5), p) == scalar
    assert type(integral_mean(f, np.array(0.5), p)) is float
    empty = integral_mean(f, np.array([]), p)
    assert empty.dtype == float and empty.shape == (0,)
    assert integral_mean(f, [0.5], p).tolist() == [scalar]
    for bad in ([0.5, math.nan], [0.5, 1.5], [-0.1, 0.5], [[0.5]],
                np.full((2, 2), 0.5), math.nan, 1.5, -1e-300):
        with pytest.raises(ValueError):
            integral_mean(f, bad, p)


# ------------------------------------------------------------- sup ladders


def test_bloch_norm_of_identity_is_one():
    est = bloch_norm(PowerSeries([0.0, 1.0]))
    assert est.value == pytest.approx(1.0, abs=1e-12)
    assert est.converged


def test_bloch_norm_includes_value_at_origin():
    est = bloch_norm(PowerSeries([3.0 - 4.0j, 1.0]))
    assert est.value == pytest.approx(6.0, abs=1e-12)


def test_bloch_norm_of_truncated_logarithm():
    # f = log 1/(1-z) has Bloch norm sup (1-r^2)/(1-r) = 2; a long
    # truncation reproduces it to three decimals.
    est = bloch_norm(log_series(16384))
    assert abs(est.value - 2.0) <= 1e-3


def test_bloch_history_equals_per_level_brute_maximum(rng):
    # Degree 40 keeps the angle count at 256 for levels 0-2 and doubles
    # it at levels 3 and 4, so both the shared and the re-evaluated
    # levels are exercised.  Complex coefficients take the complex FFT,
    # real ones the real FFT.  The sampler takes block // m radii a call:
    # one row each at 256 samples a block, 2, 5 and 11 rows at 3000, and
    # 32, 64 and 128 at the default, each level's last block short.
    g = random_series(rng, 40)
    for f in (g, PowerSeries(g.coeffs.real)):
        df = derivative(f)
        base_m = _next_pow2(max(256, df.coeffs.size))

        def per_radius(r, level):
            m = max(base_m, 2 ** (6 + level))
            return (1.0 - r * r) * float(np.max(np.abs(half_row(df, r, m))))

        head = abs(complex(f.coeffs[0]))
        want = tuple(head + h for h in brute_ladder(per_radius))
        for block in (256, 3000, norms._SAMPLE_BLOCK):
            with mock.patch.object(norms, "_SAMPLE_BLOCK", block), \
                    mock.patch.object(norms, "_half_circle",
                                      wraps=norms._half_circle) as spy:
                assert bloch_norm(f).refinements == want
            rows = []
            for m, n in [(1024, 193), (512, 97), (256, 49)]:
                size = max(1, block // m)
                rows += [size] * (n // size) + [n % size] * (n % size > 0)
            assert [c.args[1].size for c in spy.call_args_list] == rows


@st.composite
def _nonnegative_series(draw):
    """Nonnegative real coefficients, degree <= 2,000, some of them zero:
    magnitudes spread over 1e-20..1e20, or of one scale in that range."""
    n = draw(st.integers(0, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        coeffs = 10.0 ** rng.uniform(-20.0, 20.0, n + 1)
    else:
        coeffs = 10.0 ** rng.uniform(-20.0, 20.0) * rng.random(n + 1)
    coeffs[rng.random(n + 1) < draw(st.floats(0.0, 0.9))] = 0.0
    return PowerSeries(coeffs)


@settings(max_examples=30, deadline=None)
@given(_nonnegative_series())
def test_bloch_axis_history_meets_the_sampled_maximum(f):
    # On the real axis each level is the same evaluation, read at every
    # 2**(4-l)-th radius, so the history cannot fall.  The sampled maximum
    # of each circle is the real FFT's value at angle 0 up to FFT rounding,
    # about log2(m) ulp of the sup: 2,000 draws of this strategy gave at
    # most 5 ulp of the peak, at m <= 2048.
    df = derivative(f)
    base_m = _next_pow2(max(256, df.coeffs.size))

    def per_radius(r, level):
        m = max(base_m, 2 ** (6 + level))
        return (1.0 - r * r) * float(np.max(np.abs(half_row(df, r, m))))

    est = bloch_norm(f)
    history = np.array(est.refinements)
    want = abs(f.coeffs[0]) + np.array(brute_ladder(per_radius))
    assert "real axis" in est.grid_spec
    assert np.all(np.abs(history - want) <= 16 * np.spacing(history[-1]))
    assert all(b >= a for a, b in zip(history, history[1:]))


def test_bloch_route_is_chosen_by_the_sign_of_the_derivative(rng):
    # Only f' = sum n a_n z**(n-1) decides: a negative or complex f(0) does
    # not send a series to the circle samples, and one coefficient a_65 =
    # -1e-300 does, whatever the size of the others.
    log = log_series(64).coeffs
    tiny = np.append(log, -1e-300)
    axis = [PowerSeries(log), PowerSeries(log + 0j),
            PowerSeries(np.concatenate(([-3.0 + 4.0j], log[1:]))),
            make_test_function(0.9, 2.0, 64), PowerSeries([7.0])]
    sampled = [PowerSeries(tiny), PowerSeries(1j * log),
               PowerSeries(log + 1e-300j), random_series(rng, 64)]
    for f in axis + sampled:
        with mock.patch.object(norms, "_moduli", wraps=norms._moduli) as spy:
            est = bloch_norm(f)
        if any(f is g for g in axis):
            assert spy.call_count == 0 and "real axis" in est.grid_spec
        else:
            assert spy.call_count >= 1 and "sample angles" in est.grid_spec
    # the sampled ladder of the tiny negative coefficient meets the axis
    np.testing.assert_allclose(bloch_norm(PowerSeries(tiny)).refinements,
                               bloch_norm(PowerSeries(log)).refinements,
                               rtol=1e-14)


def test_mean_lipschitz_p2_history_matches_per_level_brute_maximum(rng):
    f = random_series(rng, 700)
    df = derivative(f)
    alpha = 0.5
    want = brute_ladder(lambda r, level: (1.0 - r) ** (1.0 - alpha)
                        * integral_mean(df, r, 2.0))
    got = mean_lipschitz_norm(f, 2.0, alpha).refinements
    head = abs(complex(f.coeffs[0]))
    for g, w in zip(got, want, strict=True):
        assert g == pytest.approx(head + w, rel=1e-13)


def test_mean_lipschitz_p3_history_equals_per_level_brute_maximum(rng):
    f = random_series(rng, 16)
    df = derivative(f)
    alpha = 1.0 / 3.0
    want = brute_ladder(lambda r, level: (1.0 - r) ** (1.0 - alpha)
                        * integral_mean(df, r, 3.0))
    head = abs(complex(f.coeffs[0]))
    assert mean_lipschitz_norm(f, 3.0, alpha).refinements == tuple(
        head + w for w in want)


def test_mean_lipschitz_of_identity_is_one():
    est = mean_lipschitz_norm(PowerSeries([0.0, 1.0]), 2.0, 0.5)
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_mean_lipschitz_argument_validation():
    f = PowerSeries([0.0, 1.0])
    with pytest.raises(ValueError):
        mean_lipschitz_norm(f, 0.5, 0.5)
    with pytest.raises(ValueError):
        mean_lipschitz_norm(f, 2.0, 0.0)
    with pytest.raises(ValueError):
        mean_lipschitz_norm(f, 2.0, 1.5)


# -------------------------------------------------------------- besov norm


def test_besov_norm_of_identity_is_one():
    # f = z, p = 2: the disc integral of |f'|^2 against the normalized
    # weight is exactly 1.
    est = besov_norm(PowerSeries([0.0, 1.0]), 2.0)
    assert est.value == pytest.approx(1.0, abs=1e-10)


def mpmath_besov(f, p):
    """Besov norm by mpmath's tanh-sinh rule over Riemann-sum means of f'
    on 4096 angles.  With x = 1 - r the radial integral is taken in
    v = x**((p-1)/3), where x**(p-2) dx = 3/(p-1) v**2 dv, so no factor
    of the integrand is singular at v = 0 for any p > 1; the powers stay
    in mpmath, so the nodes next to v = 0 do not underflow."""
    df = derivative(f)
    p = mpmath.mpf(p)
    k = 3 / (p - 1)

    def radial(v):
        x = v ** k
        r = float(1 - x)
        mean_p = brute_mean(df, r, float(p), m=4096) ** float(p)
        return k * v ** 2 * (2 - x) ** (p - 2) * 2 * r * mean_p

    # v at x = 0.05 and 0.5, the breaks of the rule in x
    breaks = [0] + [mpmath.mpf(x) ** (1 / k) for x in (0.05, 0.5)] + [1]
    semi = float(mpmath.quad(radial, breaks)) ** (1.0 / float(p))
    return abs(complex(f.coeffs[0])) + semi


@pytest.mark.parametrize("p", [1.05, 1.5, 3.0, 10.0])
def test_besov_norm_matches_mpmath_radial_integral(p):
    # f' = 2 + z is zero-free on every circle, so the angular mean is
    # smooth and a uniform grid nails it.  At p = 1.05 the norm is
    # 35.5257526330741, which an oracle taken in x = 1 - r missed by 9%:
    # its tanh-sinh rule did not resolve x**(p-2) next to r = 1.
    f = PowerSeries([0.3, 2.0, 0.25])
    est = besov_norm(f, p)
    assert est.value == pytest.approx(mpmath_besov(f, p), rel=1e-8)


def test_besov_norm_of_a_complex_series_at_large_p():
    # Without the panel split at r = 1/2 the root panels' node nearest
    # r = 1 falls back from r = 0.913 to 0.826, they read this integral
    # 125 times too small (3 times with the split), and the quadrature
    # chases a tolerance below its rounding floor for minutes.
    rng = np.random.default_rng(5)
    f = PowerSeries(rng.standard_normal(30) + 1j * rng.standard_normal(30))
    start = time.perf_counter()
    est = besov_norm(f, 10.0)
    assert time.perf_counter() - start < 30.0
    assert est.value == pytest.approx(mpmath_besov(f, 10.0), rel=1e-8)


@pytest.mark.parametrize("p, j, degree, radii", [
    (1.5, 1, 64, 96), (1.5, 2, 128, 96), (1.5, 3, 256, 96),
    (3.0, 1, 64, 96), (3.0, 2, 128, 96), (3.0, 3, 256, 160)])
def test_besov_root_panels_are_the_size_and_take_each_radius_once(
        p, j, degree, radii):
    # The coarse panels of the two root segments, which scale the
    # quadrature's tolerance, are sampled with their halves in one
    # integrand call: each radius reaches the means once, and a run that
    # settles on the root level costs 32 + 64 radii.
    f = make_test_function(1.0 - 2.0 ** -j, p, degree)
    means, seen = norms._power_means, []

    def spy(coeffs, rs, q):
        seen.extend(rs.tolist())
        return means(coeffs, rs, q)

    with mock.patch.object(norms, "_power_means", spy):
        besov_norm(f, p)
    assert len(seen) == len(set(seen)) == radii


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_besov_norm_of_a_large_series_terminates(p):
    # At the absolute tolerance 1e-10 this input (radial integral about
    # 1e5 at p = 1.5) gave no result within 30 s at either p: the
    # tolerance lay below the integrand's rounding floor.  It is now 1e-10
    # relative to the integral.
    f = PowerSeries(30 * np.random.default_rng(1).standard_normal(40))
    start = time.perf_counter()
    est = besov_norm(f, p)
    assert time.perf_counter() - start < 30.0
    assert est.value == pytest.approx(mpmath_besov(f, p), rel=1e-8)


def test_besov_norm_at_p2_is_the_closed_form_without_quadrature():
    # This input once kept the p = 2 radial quadrature bisecting for
    # over 25 s: abs_tol = 1e-10 lies below the integrand's rounding
    # floor.  At p = 2 no quadrature runs any more.
    f = PowerSeries(30 * np.random.default_rng(1).standard_normal(40))
    start = time.perf_counter()
    est = besov_norm(f, 2.0)
    assert time.perf_counter() - start < 1.0
    assert est.value == pytest.approx(closed_form_besov_p2(f.coeffs),
                                      rel=1e-12)
    assert est.grid_spec == "closed form (Parseval), p = 2"


def test_besov_quadrature_at_p2_matches_closed_form(rng):
    # The p != 2 route, run where the closed form is known.
    f = random_series(rng, 256)
    want = closed_form_besov_p2(f.coeffs)
    head = abs(complex(f.coeffs[0]))
    got = head + _besov_quadrature(f, 2.0)
    assert got == pytest.approx(want, rel=1e-10)


def test_besov_quadrature_integrates_power_means_without_roots():
    # The radial integrand reads the means of |f'|**p themselves: the
    # p-th roots of integral_mean are never taken and raised back.
    f = PowerSeries([0.3, 2.0, 0.25, -0.5])
    with mock.patch.object(norms, "integral_mean",
                           side_effect=AssertionError) as roots, \
            mock.patch.object(norms, "_power_means",
                              wraps=norms._power_means) as means:
        semi = _besov_quadrature(f, 1.5)
    assert means.called and not roots.called
    assert 0.3 + semi == besov_norm(f, 1.5).value


def test_besov_norm_rejects_exponent_one():
    with pytest.raises(ValueError):
        besov_norm(PowerSeries([0.0, 1.0]), 1.0)


# ------------------------------------------------------------ growth ratio


def test_growth_ratio_of_constant_against_unit_norm():
    # The Besov norm of 1 is 1, so the sup is attained at z = 0, where the
    # logarithmic weight is smallest: 1 / sqrt(log 2).
    got = growth_ratio(PowerSeries([1.0]), 2.0)
    assert got == pytest.approx(1.0 / math.sqrt(math.log(2.0)), rel=1e-12)


def test_growth_ratio_argument_validation():
    f = PowerSeries([0.0, 1.0])
    with pytest.raises(ValueError):
        growth_ratio(f, 1.0)
    with pytest.raises(ValueError):
        growth_ratio(PowerSeries([0.0]), 2.0)


def test_growth_ratio_default_ladder_is_dyadic():
    # the ratio at z = 1 - 2**-j, j = 0..12, one point at a time; the peak
    # for z**6 lies between two of these radii, so a finer ladder shows
    for f in (log_series(64), PowerSeries([0.0] * 6 + [1.0])):
        norm = besov_norm(f, 2.0).value
        ratios = []
        for j in range(13):
            z = 1.0 - 2.0 ** -j
            weight = math.sqrt(math.log(2.0 / (1.0 - z * z)))
            ratios.append(abs(evaluate(f, z)) / (norm * weight))
        assert growth_ratio(f, 2.0) == pytest.approx(max(ratios), rel=1e-14)


# ------------------------------------------------------------- properties


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 31), r_lo=st.floats(0.0, 0.9),
       step=st.floats(0.001, 0.09))
def test_integral_mean_is_nondecreasing_in_radius(seed, r_lo, step):
    gen = np.random.default_rng(seed)
    f = random_series(gen, 12)
    lo = integral_mean(f, r_lo, 2.0)
    hi = integral_mean(f, r_lo + step, 2.0)
    assert hi >= lo - 1e-12 * max(1.0, hi)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 31), degree=st.integers(1, 80),
       scale=st.floats(1e-3, 1e3))
def test_sup_ladder_histories_are_nondecreasing(seed, degree, scale):
    f = random_series(np.random.default_rng(seed), degree, scale)
    history = mean_lipschitz_norm(f, 2.0, 0.5).refinements
    assert all(b >= a for a, b in zip(history, history[1:]))
    # Where the Bloch angle count doubles, the shared sample points come
    # out of an FFT of another size and may differ in the last bits.
    history = bloch_norm(f).refinements
    assert all(b >= a * (1.0 - 1e-15) for a, b in zip(history, history[1:]))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 31),
       scale=st.floats(0.1, 10.0), phase=st.floats(0.0, 6.28))
def test_bloch_norm_is_absolutely_homogeneous(seed, scale, phase):
    gen = np.random.default_rng(seed)
    f = random_series(gen, 10)
    c = scale * complex(math.cos(phase), math.sin(phase))
    plain = bloch_norm(f).value
    scaled = bloch_norm(PowerSeries(f.coeffs * c)).value
    assert scaled == pytest.approx(abs(c) * plain, rel=1e-9)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 31), degree=st.integers(0, 60),
       phase=st.floats(0.01, math.pi - 0.01))
def test_real_and_complex_circle_paths_agree(seed, degree, phase):
    # A global phase e^{i phase} sends a real series down the complex FFT;
    # its samples, polyval's at every angle, are e^{i phase} times the
    # conjugates of the real FFT's at k <= m/2, and the Bloch
    # ladders agree to FFT rounding, about log2(m) ulp of the sup: 1,500
    # draws of this strategy gave at most 6 ulp at m <= 1024.
    coeffs = np.random.default_rng(seed).standard_normal(degree + 1)
    unit = complex(math.cos(phase), math.sin(phase))
    real, turned = PowerSeries(coeffs), PowerSeries(coeffs * unit)
    tol = 1e-13 * float(np.sum(np.abs(coeffs)))
    with mock.patch.object(np.fft, "rfft", wraps=np.fft.rfft) as rfft:
        for r, m in [(0.5, 7), (0.9, 64), (1.0, 256)]:
            calls = rfft.call_count
            want = half_row(real, r, m)
            assert rfft.call_count == calls + 1
            got = half_row(turned, r, m)
            assert rfft.call_count == calls + 1
            assert got.shape == (m,) and want.shape == (m // 2 + 1,)
            assert np.max(np.abs(got[:want.size] - unit * want.conj())) <= tol
            assert np.max(np.abs(got - half_circle_polyval(
                turned.coeffs, r, m))) <= tol
    np.testing.assert_array_max_ulp(
        np.array(bloch_norm(turned).refinements),
        np.array(bloch_norm(real).refinements), maxulp=16)


@settings(max_examples=200, deadline=None)
@given(p=st.floats())
@example(p=math.inf)
@example(p=-math.inf)
@example(p=math.nan)
@example(p=1.0)
@example(p=0.0)
def test_exponent_outside_its_range_is_rejected(p):
    # Each check raises before any quadrature runs, so every p is cheap.
    f = PowerSeries([0.0, 1.0])
    checks = [
        (lambda: besov_norm(f, p), 1.0 < p < math.inf),
        (lambda: growth_ratio(f, p), 1.0 < p < math.inf),
        (lambda: make_test_function(0.5, p, 4), 1.0 < p < math.inf),
        (lambda: mean_lipschitz_norm(f, p, 0.5), 1.0 <= p < math.inf),
        (lambda: integral_mean(f, 0.5, p), 0.0 < p < math.inf),
    ]
    for call, inside in checks:
        if not inside:
            with pytest.raises(ValueError):
                call()
