"""Norms of analytic functions on the unit disk.

Three families are implemented, all built from values of the derivative:

* Besov norm (``p > 1``):
  ``|f(0)| + (2 * integral_0^1 r (1-r^2)**(p-2) M_p(r, f')**p dr)**(1/p)``
  with the area measure normalized to total mass one;
* Bloch norm: ``|f(0)| + sup_z (1 - |z|^2) |f'(z)|``;
* mean Lipschitz norm: ``|f(0)| + sup_r (1-r)**(1-alpha) M_p(r, f')``.

``M_p(r, g)`` is the p-th integral mean over the circle of radius ``r``:
the Parseval sum ``(sum |b_n|**2 r**(2n))**(1/2)`` when ``p = 2``.
Otherwise it is a trapezoid rule on FFT samples of the circle, checked
by nested rules (see :func:`integral_mean`).  The means and the Bloch
maximum read the moduli of one row-blocked sampler, a batch of radii per
FFT call; for real coefficients on the half circle ``0 .. pi`` alone, as
the mirror ``g(conj z) = conj g(z)`` repeats the other half.  When every
coefficient of ``f'`` is real and ``>= 0`` the Bloch maximum on each
circle is ``f'(r)``, on the real axis, and no circle is sampled.

The two sup-type norms are estimated on nested dyadic ladders: level ``l``
uses radii ``r = 1 - 2**(-j / 2**l)`` for ``j = 0 .. 12 * 2**l`` and, for
the sampled Bloch maximum, ``max(base, 2**(6+l))`` sample angles.  Each
level's grid contains the previous one, so the recorded refinement
history is nondecreasing (up to FFT rounding where the Bloch angle count
doubles; exactly on the real axis) and its increments measure how well
the sup has converged.

The Besov norm has a closed form at ``p = 2``.  Otherwise its radial
integral is singular at ``r = 1`` when ``p < 2``; the whole integral is
taken in one power-law variable that absorbs the singular factor exactly
on ``0 <= r <= 1`` (see :func:`_besov_quadrature`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from cesarops.quadrature import integrate_adaptive
from cesarops.series import _LOG_TINY, PowerSeries, derivative, evaluate

__all__ = [
    "NormEstimate",
    "integral_mean",
    "bloch_norm",
    "besov_norm",
    "mean_lipschitz_norm",
    "growth_ratio",
]

_TWO_PI = 2.0 * math.pi
#: coefficients per block of :func:`_power_sums`: 0.4 MB of powers at
#: 193 radii
_POWER_BLOCK = 256
#: samples per row block of :func:`_moduli`: at most 0.5 MB of them
_SAMPLE_BLOCK = 2 ** 15
#: levels of the nested dyadic ladder behind both sup-type norms
_LEVELS = 5


@dataclass(frozen=True)
class NormEstimate:
    """A norm value together with the grid it came from and its history.

    ``refinements`` holds the estimate after each successive grid level
    (a single entry for the Besov norm); for sup-type norms the
    history is nondecreasing and ``converged`` records whether the last
    refinement step changed the value by at most 1e-6 relative.
    ``grid_spec`` describes the final grid in words.
    """

    value: float
    refinements: tuple
    converged: bool
    grid_spec: str


def _next_pow2(n: int) -> int:
    return 1 << max(0, (int(n) - 1).bit_length())


def _half_circle(coeffs, radii, m):
    """Per radius, ``conj f(r exp(2 pi i k / m))`` at ``k <= m/2`` by the
    real FFT of real coefficients, else ``f`` at every ``k``, one row each.
    Terms with a subnormal ``r**n`` are zeros: the dropped tail is at most
    ``sys.float_info.min * sum |a_n|``.  Folding the scaled coefficients
    modulo ``m`` gives exact samples for every ``m >= 1``."""
    with np.errstate(divide="ignore"):
        cuts = np.where(radii < 1.0, _LOG_TINY / np.log(radii), np.inf)
    real = not coeffs.imag.any()
    coeffs = coeffs.real if real else coeffs
    coeffs = coeffs[:int(min(cuts.max(initial=0.0), coeffs.size)) + 1]
    n = np.arange(coeffs.size)
    scaled = coeffs * np.power(radii[:, None], n, where=n <= cuts[:, None],
                               out=np.zeros((radii.size, n.size)))
    if coeffs.size > m:
        scaled = np.pad(scaled, ((0, 0), (0, -coeffs.size % m)))
        scaled = scaled.reshape(len(radii), scaled.shape[1] // m, m).sum(1)
    return (np.fft.rfft(scaled, m) if real
            else np.fft.ifft(scaled, m, norm="forward"))


def _moduli(coeffs, radii, m):
    """Yield ``(block, |_half_circle(coeffs, block, m)|)`` over blocks of at
    most ``_SAMPLE_BLOCK // m`` consecutive radii."""
    size = max(1, _SAMPLE_BLOCK // m)
    for block in np.split(radii, range(size, radii.size, size)):
        yield block, np.abs(_half_circle(coeffs, block, m))


def _power_sums(weights, radii, step):
    """``sum_n w_n r**(step n)`` at every radius, with ``r**(step n)``
    split as ``r**(step B k) * r**(step i)`` over blocks of B terms."""
    blocks = np.pad(weights, (0, -weights.size % _POWER_BLOCK))
    blocks = blocks.reshape(-1, _POWER_BLOCK)
    with np.errstate(under="ignore"):
        powers = radii[:, None] ** (step * np.arange(_POWER_BLOCK))
        starts = radii[:, None] ** (
            step * _POWER_BLOCK * np.arange(len(blocks)))
        return np.sum(starts * (powers @ blocks.T), axis=1)


def _mean_squares(coeffs: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """``M_2(r, f)**2 = sum |a_n|**2 r**(2n)`` at every radius (Parseval)."""
    return _power_sums(np.abs(coeffs) ** 2, radii, 2.0)


def integral_mean(f: PowerSeries, r: float | np.ndarray, p: float, *,
                  use_derivative: bool = False) -> float | np.ndarray:
    """p-th integral mean ``M_p(r, f)`` over the circle of radius ``r``.

    ``r`` may also be a 1-D array of radii.  With ``use_derivative`` the
    mean is taken of ``f'`` instead, the form every norm here consumes.

    For ``p = 2`` Parseval's identity gives the mean from the
    coefficients alone, ``M_2(r, f)**2 = sum |a_n|**2 r**(2n)``.  For
    other ``p`` the mean of ``|f|**p`` over ``m`` FFT sample angles (the
    trapezoid rule; weights 1, 2, ..., 2, 1 on the half circle of a real
    series) is checked against the means over every second and every
    fourth angle.  When ``|f|**p`` is smooth the error decays
    geometrically in the number of angles, so the ``m/2``-point error
    bounds the ``m``-point one; ``m`` is at least four times the length of
    ``f``, so even the ``m/4``-point rule is exact for ``|f|**2``.  At a
    kink, where ``f`` vanishes on the circle, the error is ``C h**(p+1)
    phi(s)``, with ``h`` the angle step and ``phi`` oscillating in the
    kink's offset ``s`` within a step: two consecutive rules can agree
    while both are wrong, but generically not three.  When the three
    agree within ``1e-11 * max|f|**p`` the ``m``-point mean is returned;
    otherwise the radius alone runs through the adaptive panel scheme in
    the angle (over ``0 .. pi`` for a real series), which refines around
    the kinks, to the same tolerance.
    """
    if not 0.0 < p < math.inf:
        raise ValueError("integral mean requires 0 < p < inf")
    radii = np.asarray(r, dtype=float)
    if radii.ndim > 1 or not np.all((0.0 <= radii) & (radii <= 1.0)):
        raise ValueError("radii must be a number or a 1-D array in [0, 1]")
    coeffs = (derivative(f) if use_derivative else f).coeffs
    rows = np.atleast_1d(radii)
    if p == 2.0:
        means = np.sqrt(_mean_squares(coeffs, rows))
    else:  # Python's ``**``: numpy's SIMD power can differ by an ulp
        means = np.array([mean ** (1.0 / p) for mean in
                          _power_means(coeffs, rows, p).tolist()])
    return float(means[0]) if radii.ndim == 0 else means


def _power_means(coeffs, radii, p):
    """:func:`integral_mean` at every radius before its ``p``-th root."""
    m = _next_pow2(max(512, 4 * coeffs.size))
    means = []
    for block, moduli in _moduli(coeffs, radii, m):
        powers = moduli ** p
        peaks = powers.max(axis=1)
        rules = _trapezoid_rules(powers, m)
        settled = rules.max(axis=0) - rules.min(axis=0) <= 1e-11 * peaks
        for i in np.flatnonzero(~settled):
            rules[0, i] = _angular_mean(coeffs, block[i], p, peaks[i])
        means.append(rules[0])
    return np.concatenate(means)


def _trapezoid_rules(powers, m):
    """The ``m``-, ``m/2``- and ``m/4``-point trapezoid rules of each row,
    on the half circle of a real series with weights 1, 2, ..., 2, 1."""
    half = powers.shape[1] < m
    ends = powers[:, 0] + powers[:, -1] if half else 0.0
    return np.array([((1 + half) * powers[:, ::k].sum(axis=1) - ends)
                     / (m // k) for k in (1, 2, 4)])


def _angular_mean(coeffs, r, p, peak):
    """Mean of |f|**p on |z| = r, adaptive in angle, to 1e-11 * max |f|**p;
    for real coefficients over ``0 .. pi`` alone, whose mirror repeats it.
    It integrates ``|f|**p / (peak * span)``, whose integral is about 1
    at most, so the quadrature's tolerance stays absolute."""
    span = _TWO_PI if coeffs.imag.any() else math.pi
    peak = max(peak, 1e-300)

    def integrand(theta):
        vals = npoly.polyval(r * np.exp(1j * theta), coeffs)
        return np.abs(vals) ** p / (peak * span)

    total = integrate_adaptive(integrand, 0.0, span, tol=1e-11).value.real
    return max(total, 0.0) * peak


def _dyadic_radii(level: int):
    exponents = np.arange(0, 12 * 2 ** level + 1) / 2.0 ** level
    return 1.0 - 2.0 ** -exponents


def _sup_ladder(f, values, keys, grid):
    """Nested-ladder sup estimate of ``|f(0)| + sup`` over the radii of
    :func:`_dyadic_radii`; ``values(radii, keys[l])`` gives level ``l``'s
    weighted values and ``grid`` names the final grid.

    Level ``l``'s radii are every ``2**(k-l)``-th radius of level ``k``, so
    a run of equal keys (Bloch angle counts) is evaluated once, at its top.

    All levels are evaluated: a narrow radial peak can fall between the
    points of every coarse grid, so a small increment at an early level
    is not evidence of convergence.  The flag reports only whether the
    final refinement step moved the estimate by at most 1e-6 relative.
    """
    history = []
    for level in reversed(range(len(keys))):
        if level == len(keys) - 1 or keys[level] != keys[level + 1]:
            finest = level
            vals = values(_dyadic_radii(level), keys[level])
        history.append(float(np.max(vals[::2 ** (finest - level)])))
    history.reverse()
    converged = bool(len(history) >= 2 and history[-1] - history[-2]
                     <= 1e-6 * max(1.0, history[-1]))
    head = abs(complex(f.coeffs[0]))
    return NormEstimate(head + history[-1], tuple(head + h for h in history),
                        converged, grid)


def bloch_norm(f: PowerSeries) -> NormEstimate:
    """Bloch norm ``|f(0)| + sup (1 - |z|^2) |f'(z)|`` on nested grids.

    When every coefficient of ``f'`` is real and ``>= 0``, ``|f'(r e^{it})|
    <= f'(r)`` with equality at ``t = 0``, so the sup on each circle is
    ``(1 - r^2) f'(r)``: it is evaluated once at the finest radii, whose
    strides are the coarser levels, and the history is exactly
    nondecreasing.  Any other ``f'`` is sampled on each circle at FFT
    angles, and its history is nondecreasing up to FFT rounding.
    """
    df = derivative(f)
    if not df.coeffs.imag.any() and np.all(df.coeffs.real >= 0.0):
        def axis(radii, _):
            return (1.0 - radii * radii) * _power_sums(df.coeffs.real,
                                                       radii, 1.0)

        return _sup_ladder(f, axis, [None] * _LEVELS,
                           "dyadic radial ladder, levels 0..%d; real axis, "
                           "nonnegative coefficients" % (_LEVELS - 1))
    base_m = _next_pow2(max(256, df.coeffs.size))

    def values(radii, m):
        return (1.0 - radii * radii) * np.concatenate(
            [moduli.max(axis=1) for _, moduli in _moduli(df.coeffs, radii, m)])

    angles = [max(base_m, 2 ** (6 + level)) for level in range(_LEVELS)]
    return _sup_ladder(f, values, angles,
                       "dyadic radial ladder, levels 0..%d; %d..%d sample "
                       "angles" % (_LEVELS - 1, angles[0], angles[-1]))


def mean_lipschitz_norm(f: PowerSeries, p: float,
                        alpha: float) -> NormEstimate:
    """Mean Lipschitz norm ``|f(0)| + sup_r (1-r)**(1-alpha) M_p(r, f')``,
    with the means of all radii from one :func:`integral_mean` call."""
    if not 1.0 <= p < math.inf:
        raise ValueError("mean Lipschitz norm requires 1 <= p < inf")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("mean Lipschitz norm requires alpha in (0, 1]")
    df = derivative(f)

    def values(radii, _):
        return (1.0 - radii) ** (1.0 - alpha) * integral_mean(df, radii, p)

    return _sup_ladder(f, values, [None] * _LEVELS, "dyadic radial ladder, "
                       "levels 0..%d; full integral means" % (_LEVELS - 1))


def besov_norm(f: PowerSeries, p: float) -> NormEstimate:
    """Besov norm for ``1 < p < inf`` (normalized area measure).

    At ``p = 2`` it is the closed form ``|a_0| + (sum n |a_n|**2)**(1/2)``
    (Parseval).  Otherwise it is :func:`_besov_quadrature`: one adaptive
    radial integral ``S`` in a power-law variable, to the quadrature's
    tolerance ``1e-10``, absolute up to ``S = 1`` and relative above it.
    """
    if not 1.0 < p < math.inf:
        raise ValueError(
            "besov_norm requires 1 < p < inf: the limiting exponents fall "
            "outside the family handled here")
    if p == 2.0:
        n = np.arange(f.coeffs.size)
        semi = float(np.sum(n * np.abs(f.coeffs) ** 2)) ** 0.5
        grid = "closed form (Parseval), p = 2"
    else:
        semi = _besov_quadrature(f, p)
        grid = "adaptive radial quadrature, split at r = 1/2"
    value = abs(complex(f.coeffs[0])) + semi
    return NormEstimate(value, (value,), True, grid)


def _besov_quadrature(f: PowerSeries, p: float) -> float:
    """Besov seminorm by adaptive radial quadrature.

    With ``x = 1 - r`` the radial integral is ``S = integral_0^1 x**(p-2)
    H(x) dx``, ``H(x) = 2 (1-x) (2-x)**(p-2) M_p(1-x, f')**p`` smooth.  In
    ``v = x**((p-1)/3)``, ``x**(p-2) dx = (3 / (p-1)) v**2 dv`` on all of
    [0, 1], so the integrand is twice differentiable at ``v = 0`` for every
    ``p > 1``, also where ``x**(p-2)`` is singular (``p < 2``).

    The quadrature's ``1e-10`` is relative to ``S`` once ``S > 1``, as read
    from the root panels on each side of ``r = 1/2``: one panel on [0, 1]
    would put its node nearest ``r = 1`` twice as far away, which at large
    ``p`` misses most of ``S``.
    """
    df = derivative(f)

    def radial(v):  # of the means of |f'|**p: no p-th root is taken
        with np.errstate(under="ignore"):
            x = v ** (3.0 / (p - 1.0))
        r = 1.0 - x
        return (3.0 / (p - 1.0) * v * v * 2.0 * r * (2.0 - x) ** (p - 2.0)
                * _power_means(df.coeffs, r, p))

    split = 2.0 ** (-(p - 1.0) / 3.0)  # r = 1/2
    semi = integrate_adaptive(radial, 0.0, 1.0, breakpoints=(split,),
                              tol=1e-10)
    return semi.value.real ** (1.0 / p)


def growth_ratio(f: PowerSeries, p: float) -> float:
    """Sup of pointwise growth against the Besov norm on a fixed ladder.

    Returns ``max_j |f(z_j)| / (N * log(2 / (1 - z_j**2))**(1/q))`` over the
    13 radii ``z_j = 1 - 2**-j``, ``j = 0..12``, where ``N`` is the Besov
    norm of ``f`` and ``q`` is the conjugate exponent of ``p``.  A bounded
    sup, stable as the ladder deepens, witnesses the logarithmic growth
    estimate.
    """
    if not 1.0 < p < math.inf:
        raise ValueError("growth_ratio requires 1 < p < inf")
    norm_value = besov_norm(f, p).value
    if not norm_value > 0.0:
        raise ValueError("growth_ratio requires a nonzero function")
    z = _dyadic_radii(0)
    weight = np.log(2.0 / (1.0 - z ** 2)) ** ((p - 1.0) / p)
    return float(np.max(np.abs(evaluate(f, z)) / (norm_value * weight)))
