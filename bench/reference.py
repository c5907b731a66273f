"""Reference values computed apart from cesarops.

Every function here works from closed forms, Parseval sums, dense FFT
sampling or mpmath quadrature.  None of them calls into ``cesarops``, so
an error in the program cannot cancel against the same error here.  The
inputs are plain numbers and coefficient arrays.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

BOUNDED = "bounded"
VANISHING = "vanishing"
DIVERGING = "diverging"


# --------------------------------------------------------------------------
# test family and operator image


def test_coefficients(t: float, p: float, degree: int) -> np.ndarray:
    """Coefficients of ``L_t**(-1/p) * sum_{k=1}^{degree} t**k z**k / k``
    with ``L_t = log(e/(1-t))``, the paper's normalised test family."""
    k = np.arange(1, degree + 1, dtype=float)
    out = np.zeros(degree + 1)
    out[1:] = t ** k / k
    return out * (1.0 - math.log1p(-t)) ** (-1.0 / p)


def image_coefficients(moments: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """``moment_n * (a_0 + ... + a_n)``: the coefficient form of C_mu."""
    return moments[: coeffs.size] * np.cumsum(coeffs)


# --------------------------------------------------------------------------
# moments


def power_moments(c: float, gamma: float, n_max: int) -> np.ndarray:
    """``c * B(n+1, gamma)`` for n = 0..n_max, the moments of
    ``c * (1-t)**(gamma-1) dt``, by ``B(n+1, g) = B(n, g) * n / (n+g)``."""
    n = np.arange(1, n_max + 1, dtype=float)
    steps = np.concatenate([[1.0 / gamma], n / (n + gamma)])
    return c * np.cumprod(steps)


def atom_moments(w: float, t0: float, n_max: int) -> np.ndarray:
    """``w * t0**n`` for n = 0..n_max."""
    return w * float(t0) ** np.arange(n_max + 1, dtype=float)


def powerlog_moment(c: float, gamma: float, beta: float, n: int) -> float:
    """One moment of ``c (1-t)**(gamma-1) log(e/(1-t))**(-beta) dt`` by
    mpmath quadrature in ``u = -log(1-t)``."""
    with mpmath.workdps(30):
        def integrand(u):
            return ((-mpmath.expm1(-u)) ** n * mpmath.exp(-gamma * u)
                    * (1 + u) ** (-beta))
        peak = mpmath.log(n + 1) / gamma if n else mpmath.mpf(1)
        value = mpmath.quad(integrand, [0, peak, 4 * peak + 40, mpmath.inf])
        return float(c * value)


def table_moment(x, v, n: int) -> float:
    """Exact moment of a piecewise-linear density on the grid ``x``."""
    with mpmath.workdps(40):
        total = mpmath.mpf(0)
        for x0, x1, v0, v1 in zip(x[:-1], x[1:], v[:-1], v[1:]):
            x0, x1 = mpmath.mpf(x0), mpmath.mpf(x1)
            b = (v1 - v0) / (x1 - x0)
            a = v0 - b * x0
            total += (a * (x1 ** (n + 1) - x0 ** (n + 1)) / (n + 1)
                      + b * (x1 ** (n + 2) - x0 ** (n + 2)) / (n + 2))
        return float(total)


# --------------------------------------------------------------------------
# norms


def besov_p2(coeffs: np.ndarray) -> float:
    """Besov norm at p = 2: ``|a_0| + (sum n |a_n|**2)**(1/2)``."""
    n = np.arange(coeffs.size)
    return abs(coeffs[0]) + math.sqrt(math.fsum(n * np.abs(coeffs) ** 2))


def _lipschitz_profile(weights: np.ndarray, alpha: float, xs) -> np.ndarray:
    """``(1-r)**(1-alpha) * M_2(r, g')`` at ``r = 1 - 2**-x``, where
    ``weights[k] = |(k+1) c_{k+1}|**2`` so that Parseval gives
    ``M_2(r, g')**2 = sum_k weights[k] r**(2k)``."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    k2 = 2.0 * np.arange(weights.size)
    out = np.empty(xs.size)
    for lo in range(0, xs.size, 32):
        r = 1.0 - 2.0 ** -xs[lo:lo + 32]
        with np.errstate(under="ignore"):
            sq = np.power(r[:, None], k2[None, :]) @ weights
        out[lo:lo + 32] = 2.0 ** (-(1.0 - alpha) * xs[lo:lo + 32]) \
            * np.sqrt(sq)
    return out


def lipschitz_bracket(coeffs: np.ndarray, alpha: float, *,
                      depth: int = 12, per_octave: int = 16):
    """Two Parseval sups of ``|c_0| + (1-r)**(1-alpha) M_2(r, g')`` over
    ``r = 1 - 2**-x``, ``0 <= x <= depth``.

    The lower one is the sup over the integer exponents (the level-0
    radii); the upper one is the sup over a grid of ``per_octave`` points
    per octave, refined by golden-section search around its three best
    points.  Every grid inside the range gives a sup between the two.
    """
    g = np.arange(1, coeffs.size) * coeffs[1:]
    weights = np.abs(g) ** 2
    head = abs(coeffs[0])
    lower = float(_lipschitz_profile(weights, alpha,
                                     np.arange(depth + 1)).max())
    xs = np.linspace(0.0, depth, depth * per_octave + 1)
    ys = _lipschitz_profile(weights, alpha, xs)
    upper = float(ys.max())
    h = xs[1] - xs[0]
    for i in np.argsort(ys)[-3:]:
        a, b = max(0.0, xs[i] - h), min(float(depth), xs[i] + h)
        inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
        for _ in range(60):
            c = b - inv_phi * (b - a)
            d = a + inv_phi * (b - a)
            fc, fd = _lipschitz_profile(weights, alpha, [c, d])
            if fc >= fd:
                b = d
            else:
                a = c
            upper = max(upper, float(fc), float(fd))
    return head + lower, head + upper


def besov_dense(coeffs: np.ndarray, p: float) -> float:
    """Besov norm
    ``|a_0| + (2 int_0^1 r (1-r^2)**(p-2) M_p(r, f')**p dr)**(1/p)``.

    ``M_p(r, f')**p`` is the mean of ``|f'|**p`` over ``m`` equispaced
    points of the circle, one FFT per radius; for the analytic, zero-free
    integrands used here the periodic trapezoidal rule converges
    geometrically.  The radial integral runs through mpmath's tanh-sinh
    rule, which absorbs the endpoint factor ``(1-r)**(p-2)``.
    """
    g = np.arange(1, coeffs.size) * coeffs[1:]
    m = 1 << max(10, (8 * g.size - 1).bit_length())
    k = np.arange(g.size)

    def mean_p(r: float) -> float:
        buf = np.zeros(m, dtype=complex)
        with np.errstate(under="ignore"):
            buf[: g.size] = g * r ** k
        return float(np.mean(np.abs(np.fft.ifft(buf) * m) ** p))

    with mpmath.workdps(20):
        def integrand(r):
            x = 1 - r
            return 2 * r * (x * (2 - x)) ** (p - 2) * mean_p(float(r))

        value, err = mpmath.quad(integrand, [0, 0.5, 1], error=True)
        if err > 1e-11 * value:
            raise ArithmeticError("tanh-sinh error %g on %g" % (err, value))
        return abs(coeffs[0]) + float(value) ** (1.0 / p)


# --------------------------------------------------------------------------
# Carleson classes


def _rank(cls: str) -> int:
    return (VANISHING, BOUNDED, DIVERGING).index(cls)


def carleson_class(components, s: float, alpha: float) -> str:
    """Class of ``Q(t) = tail(t) * log(e/(1-t))**alpha / (1-t)**s``.

    ``components`` are dicts as in the measure JSON files.  A power-log
    density has ``tail ~ (1-t)**gamma * log(e/(1-t))**(-beta)``, so its
    quotient behaves like ``(1-t)**(gamma-s) * log(e/(1-t))**(alpha-beta)``.
    Atoms and tables sit below ``t = 1`` and vanish there.  The largest
    class among the components wins.
    """
    worst = VANISHING
    for comp in components:
        if comp["kind"] != "power_log" or comp["c"] == 0.0:
            continue
        gap = comp["gamma"] - s
        log_gap = alpha - comp.get("beta", 0.0)
        if gap > 0.0 or (gap == 0.0 and log_gap < 0.0):
            cls = VANISHING
        elif gap == 0.0 and log_gap == 0.0:
            cls = BOUNDED
        else:
            cls = DIVERGING
        worst = max(worst, cls, key=_rank)
    return worst


def label_allowed(cls: str, label: str) -> bool:
    """Whether a classifier label is compatible with the true class.

    A bounded class is never ``diverging``; a diverging class is never
    ``finite-looking`` or ``vanishing``; a bounded class that does not
    vanish is never ``vanishing``.  ``inconclusive`` is always allowed.
    """
    if cls == DIVERGING:
        return label in ("diverging", "inconclusive")
    if cls == BOUNDED:
        return label in ("finite-looking", "inconclusive")
    return label in ("finite-looking", "vanishing", "inconclusive")
