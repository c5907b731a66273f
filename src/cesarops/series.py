"""Truncated power series on the unit disk and the Cesaro-like operator.

The Cesaro-like operator induced by a radial measure acts on a power
series ``f = sum a_n z**n`` by

    (C f)(z) = sum_n  moment_n * s_n * z**n,      s_n = a_0 + ... + a_n,

i.e. coefficientwise multiplication of the partial-sum sequence by the
moment sequence of the inducing measure; Lebesgue measure recovers the
classical Cesaro averages ``s_n / (n+1)``.  The same operator has the
integral representation

    (C f)(z) = integral of f(t z) / (1 - t z) dm(t),

implemented independently in :func:`cesaro_like_integral_eval` (and its
derivative counterpart) so the two routes can be compared numerically.

Evaluation is restricted to ``|z| <= 1 - 2**-40``: the package works with
truncated series, and closer to the boundary a truncation no longer says
anything about the function it came from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from cesarops.measure import MomentSequence, RadialMeasure
# the integral route runs through RadialMeasure components; the name stays
# importable here because bench/test_bench.py checks that tracing restores it
from cesarops.quadrature import integrate_adaptive  # noqa: F401

__all__ = [
    "FunctionSpecError",
    "PowerSeries",
    "EvalPoint",
    "MAX_ABS_Z",
    "evaluate",
    "derivative",
    "partial_sums",
    "cesaro_like",
    "cesaro_like_integral_eval",
    "cesaro_like_derivative_eval",
    "log_series",
    "test_function",
    "function_from_dict",
    "function_to_dict",
]

MAX_ABS_Z = 1.0 - 2.0 ** -40
_INTEGRAL_EVAL_MAX_ABS_Z = 0.95


class FunctionSpecError(ValueError):
    """Raised for malformed function descriptions."""


@dataclass(frozen=True)
class PowerSeries:
    """Truncated power series with complex coefficients ``coeffs[n] = a_n``."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        if arr.ndim != 1 or arr.size == 0:
            raise FunctionSpecError("coefficients must form a nonempty vector")
        if not np.all(np.isfinite(arr)):
            raise FunctionSpecError("coefficients must be finite")
        object.__setattr__(self, "coeffs", arr)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1


@dataclass(frozen=True)
class EvalPoint:
    """A point of the open unit disk, capped at ``|z| <= 1 - 2**-40``."""

    z: complex

    def __post_init__(self):
        z = complex(self.z)
        object.__setattr__(self, "z", z)
        if abs(z) > MAX_ABS_Z:
            raise ValueError("evaluation point outside |z| <= 1 - 2**-40")


def _check_domain(z):
    if np.max(np.abs(z)) > MAX_ABS_Z:
        raise ValueError("evaluation point outside |z| <= 1 - 2**-40")


def evaluate(f: PowerSeries, z):
    """Value of the series at ``z`` (EvalPoint, scalar, or array), Horner scheme."""
    if isinstance(z, EvalPoint):
        z = z.z
    zarr = np.asarray(z, dtype=complex)
    _check_domain(zarr)
    vals = npoly.polyval(zarr, f.coeffs)
    return complex(vals) if np.isscalar(z) or zarr.ndim == 0 else vals


def derivative(f: PowerSeries) -> PowerSeries:
    if f.degree == 0:
        return PowerSeries(np.zeros(1, dtype=complex))
    return PowerSeries(npoly.polyder(f.coeffs))


def partial_sums(f: PowerSeries) -> np.ndarray:
    """Partial-sum sequence ``s_n = a_0 + ... + a_n``.

    Accumulated with Kahan compensation so long oscillatory coefficient
    sequences do not lose cancelled digits.
    """
    out = np.empty_like(f.coeffs)
    total = 0.0 + 0.0j
    carry = 0.0 + 0.0j
    for i, a in enumerate(f.coeffs):
        y = a - carry
        t = total + y
        carry = (t - total) - y
        total = t
        out[i] = total
    return out


def cesaro_like(mu: MomentSequence, f: PowerSeries) -> PowerSeries:
    """Coefficient route for the operator: ``a_n -> moment_n * s_n``.

    The moment sequence must cover every coefficient of ``f``; the output
    is the degree-``f.degree`` truncation of the operator image.
    """
    if mu.n_max < f.degree:
        raise ValueError(
            "moment sequence covers n <= %d, function has degree %d"
            % (mu.n_max, f.degree))
    return PowerSeries(mu.values[: f.degree + 1] * partial_sums(f))


def _integral_eval_point(m, z, kernel, abs_tol):
    """Shared engine for the integral representations: ``kernel`` (a
    vectorized function of t) integrated against ``m``, each component to
    an equal share of ``abs_tol``."""
    if abs(z) > _INTEGRAL_EVAL_MAX_ABS_Z:
        raise ValueError(
            "integral evaluation supports |z| <= %.2f; use the coefficient "
            "route closer to the boundary" % _INTEGRAL_EVAL_MAX_ABS_Z)
    share = abs_tol / len(m.components)
    return complex(sum(comp.integrate(kernel, share) for comp in m.components))


def cesaro_like_integral_eval(m: RadialMeasure, f: PowerSeries, z, *,
                              abs_tol: float = 1e-12) -> complex:
    """Integral route for ``(C f)(z)``: integral of ``f(tz)/(1-tz) dm(t)``."""
    if isinstance(z, EvalPoint):
        z = z.z

    def kernel(t):
        tz = t * z
        return npoly.polyval(tz, f.coeffs) / (1.0 - tz)

    return _integral_eval_point(m, complex(z), kernel, abs_tol)


def cesaro_like_derivative_eval(m: RadialMeasure, f: PowerSeries, z, *,
                                abs_tol: float = 1e-12) -> complex:
    """Integral route for ``(C f)'(z)``.

    Differentiating under the integral sign gives the two-term kernel
    ``t f'(tz)/(1-tz) + t f(tz)/(1-tz)**2``.
    """
    if isinstance(z, EvalPoint):
        z = z.z
    df = derivative(f)

    def kernel(t):
        tz = t * z
        frac = 1.0 / (1.0 - tz)
        return t * (npoly.polyval(tz, df.coeffs) * frac
                    + npoly.polyval(tz, f.coeffs) * frac * frac)

    return _integral_eval_point(m, complex(z), kernel, abs_tol)


def log_series(degree: int) -> PowerSeries:
    """Truncation of ``log(1/(1-z)) = sum_{k>=1} z**k / k``."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    coeffs = np.zeros(degree + 1, dtype=complex)
    coeffs[1:] = 1.0 / np.arange(1, degree + 1)
    return PowerSeries(coeffs)


def test_function(t: float, p: float, degree: int) -> PowerSeries:
    """Normalized logarithmic test function concentrated near ``z = 1``.

    ``f_t(z) = log(e/(1-t))**(-1/p) * sum_{k=1}^{degree} t**k z**k / k``;
    the prefactor keeps the family uniformly bounded in the ``p``-norm
    as ``t`` increases toward 1.
    """
    if not 0.5 <= t < 1.0:
        raise ValueError("test function requires t in [1/2, 1)")
    if not p > 1.0:
        raise ValueError("test function requires p > 1")
    if degree < 1:
        raise ValueError("degree must be >= 1")
    k = np.arange(1, degree + 1)
    coeffs = np.zeros(degree + 1, dtype=complex)
    with np.errstate(under="ignore"):
        coeffs[1:] = np.exp(k * math.log(t)) / k
    scale = (1.0 - math.log1p(-t)) ** (-1.0 / p)
    return PowerSeries(scale * coeffs)


_BUILTINS = ("one", "identity", "log_one_over_one_minus_z", "test_function")


def function_from_dict(spec) -> PowerSeries:
    """Build a series from a JSON-style dict.

    Either explicit coefficients ``{"coeffs_re": [...], "coeffs_im": [...]}``
    (the imaginary part is optional) or a builtin
    ``{"builtin": <name>, ...}`` with name one of %s; the builtins take
    ``degree`` (default 256) and, for the test function, ``t`` and ``p``.
    """ % (_BUILTINS,)
    if not isinstance(spec, dict):
        raise FunctionSpecError("function spec must be an object")
    if "builtin" in spec:
        name = spec["builtin"]
        degree = int(spec.get("degree", 256))
        if name == "one":
            return PowerSeries(np.ones(1, dtype=complex))
        if name == "identity":
            return PowerSeries(np.array([0.0, 1.0], dtype=complex))
        if name == "log_one_over_one_minus_z":
            return PowerSeries(log_series(degree).coeffs)
        if name == "test_function":
            try:
                t = float(spec["t"])
                p = float(spec["p"])
            except KeyError as exc:
                raise FunctionSpecError(
                    "test_function builtin needs 't' and 'p'") from exc
            return test_function(t, p, degree)
        raise FunctionSpecError("unknown builtin %r; expected one of %s"
                                % (name, (_BUILTINS,)))
    if "coeffs_re" not in spec:
        raise FunctionSpecError("function spec needs 'coeffs_re' or 'builtin'")
    re = np.asarray(spec["coeffs_re"], dtype=float)
    im = np.asarray(spec.get("coeffs_im", np.zeros_like(re)), dtype=float)
    if re.shape != im.shape:
        raise FunctionSpecError("'coeffs_re' and 'coeffs_im' lengths differ")
    return PowerSeries(re + 1j * im)


def function_to_dict(f: PowerSeries) -> dict:
    out = {"coeffs_re": [float(c.real) for c in f.coeffs]}
    if np.any(f.coeffs.imag != 0.0):
        out["coeffs_im"] = [float(c.imag) for c in f.coeffs]
    return out
