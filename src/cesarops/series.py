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

Horner's scheme at ``|x| <= rho`` drops the tail ``k >= K`` once
``sum_{k>=K} |a_k| rho**k <= 2**-53 sum_k |a_k| rho**k``, below its own
rounding bound ``gamma_2n sum_k |a_k| |x|**k`` (Higham 2002, section 5.1);
:func:`evaluate` runs it over the kept terms.  The integral route keeps the
same terms at ``rho = |z|``, but needs ``f(tz)`` only on the ray of real
``t`` in [0, 1), where ``f(tz) = sum_k d_k t**k`` with ``d_k = a_k z**k``.
One table of ``t**k``, built by repeated multiplication so that
``fl(t**k)`` is within ``(k-1) u`` of ``t**k``, and one sum over ``k``
against the columns ``d`` give all the nodes of a quadrature level at once,
with an error of the order of that same bound.

Evaluation is restricted to ``|z| <= 1 - 2**-40``: the package works with
truncated series, and closer to the boundary a truncation no longer says
anything about the function it came from.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from cesarops.measure import (MomentSequence, RadialMeasure, _integrate,
                              _spec_numbers)
# the integral route runs through RadialMeasure components; the name stays
# importable here because bench/test_bench.py checks that tracing restores it
from cesarops.quadrature import integrate_adaptive  # noqa: F401

__all__ = [
    "FunctionSpecError",
    "PowerSeries",
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
]

MAX_ABS_Z = 1.0 - 2.0 ** -40
#: log of the smallest normal float: a power or ``exp`` below it is subnormal
_LOG_TINY = math.log(sys.float_info.min)
_INTEGRAL_EVAL_MAX_ABS_Z = 0.95


class FunctionSpecError(ValueError):
    """Raised for malformed function descriptions."""


@dataclass(frozen=True)
class PowerSeries:
    """Truncated power series with coefficients ``coeffs[n] = a_n``.

    The coefficients are a copy of the input: float64 when every imaginary
    part is zero (the test functions, ``log_series`` and their images
    under a positive measure), at half the memory, and complex128
    otherwise.  Every routine here gives the same values for a real series
    in either dtype.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.coeffs))
        arr = arr.astype(float if arr.dtype.kind in "biuf" else complex)
        if arr.ndim != 1 or arr.size == 0:
            raise FunctionSpecError("coefficients must form a nonempty vector")
        if not np.all(np.isfinite(arr)):
            raise FunctionSpecError("coefficients must be finite")
        if arr.dtype == complex and not arr.imag.any():
            arr = arr.real.copy()
        object.__setattr__(self, "coeffs", arr)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1


def _check_domain(z):
    if not np.all(np.abs(z) <= MAX_ABS_Z):  # NaN fails this too
        raise ValueError("evaluation point not finite or |z| > 1 - 2**-40")


def _horner_terms(c, rho):
    """Shortest prefix ``c[:K]``, ``K >= 1``, whose dropped tail is at most
    ``2**-53 sum_k |c_k| rho**k``, summed in units of the largest term.

    A term below ``tiny = sys.float_info.min`` times the largest is taken
    as zero without its ``exp``, which would be subnormal and slow.  All
    of them together weigh less than ``c.size * tiny``, far below the
    ``2**-53`` that decides the cut, so the kept prefix does not change."""
    with np.errstate(divide="ignore"):
        logw = np.log(np.abs(c))
        logw[1:] += np.arange(1, c.size) * np.log(rho)
    top = logw.max()
    if not top > -np.inf:
        return c[:1]
    logw -= top
    weights = np.exp(logw, where=logw > _LOG_TINY, out=np.zeros(c.size))
    tail = np.cumsum(weights[::-1])[::-1]
    return c[:1 + np.count_nonzero(tail[1:] > 2.0 ** -53 * tail[0])]


def evaluate(f: PowerSeries, z):
    """Value at ``z`` (scalar or array), Horner's scheme without the tail
    below ``2**-53 sum_k |a_k| max|z|**k`` (module docstring)."""
    zarr = np.asarray(z, dtype=complex)
    _check_domain(zarr)
    rho = np.max(np.abs(zarr), initial=0.0)
    vals = npoly.polyval(zarr, _horner_terms(f.coeffs, rho))
    return complex(vals) if np.isscalar(z) or zarr.ndim == 0 else vals


def derivative(f: PowerSeries) -> PowerSeries:
    if f.degree == 0:
        return PowerSeries(np.zeros(1))
    with np.errstate(over="ignore"):
        coeffs = f.coeffs[1:] * np.arange(1, f.coeffs.size)
    if not np.isfinite(coeffs).all():
        raise ValueError("the derivative overflows the float range")
    return PowerSeries(coeffs)


def partial_sums(f: PowerSeries) -> np.ndarray:
    """Partial-sum sequence ``s_n = a_0 + ... + a_n``, compensated.

    Prefix Sum2 (Ogita, Rump & Oishi, SIAM J. Sci. Comput. 26, 2005): TwoSum
    gives the exact error of each running sum of ``cumsum`` (which adds left
    to right); the running sum of those errors is added back.  Each real and
    imaginary part is within ``u |s_n| + (n u)**2 sum_{k<=n} |a_k|`` to first
    order (``u = 2**-53``): below 1e8 terms, no weaker than Kahan's ``2u sum``.
    """
    a = f.coeffs
    sums = np.cumsum(a)
    prev = np.concatenate(([0.0], sums[:-1]))
    step = sums - prev
    err = (prev - (sums - step)) + (a - step)
    return sums + np.cumsum(err)


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


def _ray_point(z) -> complex:
    """``z`` as a complex number, refused unless ``|z| <= 0.95``."""
    if not abs(z) <= _INTEGRAL_EVAL_MAX_ABS_Z:  # NaN fails this too
        raise ValueError(
            "integral evaluation supports finite |z| <= %.2f; use the "
            "coefficient route nearer the boundary" % _INTEGRAL_EVAL_MAX_ABS_Z)
    return complex(z)


def _ray_terms(columns, z):
    """Real ``(2J, K)`` rows: the real and imaginary parts of ``c_k z**k``
    for the cut ``c`` of each of the ``J`` coefficient vectors at ``|z|``,
    padded with zeros to the longest cut ``K``."""
    cuts = [_horner_terms(c, abs(z)) for c in columns]
    powers = np.full(max(c.size for c in cuts), z)
    powers[0] = 1.0
    np.cumprod(powers, out=powers)
    terms = np.zeros((2 * len(cuts), powers.size))
    for j, c in enumerate(cuts):
        d = c * powers[:c.size]
        terms[2 * j, :c.size] = d.real
        terms[2 * j + 1, :c.size] = d.imag
    return terms


_RAY_BLOCK = 2 ** 17  # most entries of one power table (1 MB)


def _ray_values(terms, t):
    """``sum_k d_k t**k`` at the real nodes ``t`` for each column ``d`` of
    :func:`_ray_terms`, as a ``(t.size, J)`` complex array.

    The table ``t**k`` is built by ``cumprod`` along each row, a block of
    rows at a time.  ``einsum`` (which calls no BLAS without ``optimize``)
    then sums each row against the contiguous rows of ``terms`` in an order
    fixed by ``K`` alone, so that every value is elementwise in ``t`` bit
    for bit, as the level-synchronous quadrature requires.
    """
    t = np.asarray(t, dtype=float)
    out = np.empty((t.size, terms.shape[0]))
    rows = max(1, _RAY_BLOCK // terms.shape[1])
    for start in range(0, t.size, rows):
        block = t[start:start + rows]
        table = np.empty((block.size, terms.shape[1]))
        table[:, 0] = 1.0
        table[:, 1:] = block[:, None]
        np.cumprod(table, axis=1, out=table)
        np.einsum("ik,jk->ij", table, terms, out=out[start:start + rows])
    return out.view(complex)


def cesaro_like_integral_eval(m: RadialMeasure, f: PowerSeries, z) -> complex:
    """Integral route for ``(C f)(z)``: integral of ``f(tz)/(1-tz) dm(t)``,
    with ``f(tz)`` from the power table on the ray (module docstring)."""
    z = _ray_point(z)
    terms = _ray_terms((f.coeffs,), z)

    def kernel(t):
        return _ray_values(terms, t)[:, 0] / (1.0 - t * z)

    return complex(_integrate(m, kernel, 1e-12))


def cesaro_like_derivative_eval(m: RadialMeasure, f: PowerSeries,
                                z) -> complex:
    """Integral route for ``(C f)'(z)``.

    Differentiating under the integral sign gives the two-term kernel
    ``t f'(tz)/(1-tz) + t f(tz)/(1-tz)**2``; ``f'(tz)`` and ``f(tz)`` are
    two columns against one power table on the ray.
    """
    z = _ray_point(z)
    terms = _ray_terms((derivative(f).coeffs, f.coeffs), z)

    def kernel(t):
        frac = 1.0 / (1.0 - t * z)
        df, f_ = _ray_values(terms, t).T
        return t * (df * frac + f_ * frac * frac)

    return complex(_integrate(m, kernel, 1e-12))


def log_series(degree: int) -> PowerSeries:
    """Truncation of ``log(1/(1-z)) = sum_{k>=1} z**k / k``."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    coeffs = np.zeros(degree + 1)
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
    if not 1.0 < p < math.inf:
        raise ValueError("test function requires 1 < p < inf")
    if degree < 1:
        raise ValueError("degree must be >= 1")
    k = np.arange(1, degree + 1)
    coeffs = np.zeros(degree + 1)
    with np.errstate(under="ignore"):
        coeffs[1:] = np.exp(k * math.log(t)) / k
    scale = (1.0 - math.log1p(-t)) ** (-1.0 / p)
    return PowerSeries(scale * coeffs)


_BUILTINS = {"log_one_over_one_minus_z": ((), log_series),
             "test_function": (("t", "p"), test_function)}


def function_from_dict(spec) -> PowerSeries:
    """Build a series from a JSON-style dict.

    Either explicit coefficients ``{"coeffs_re": [...], "coeffs_im": [...]}``
    (the imaginary part is optional) or a builtin ``{"builtin": <name>,
    ...}`` named ``log_one_over_one_minus_z`` or ``test_function``, which
    takes an integer ``degree >= 1`` (default 256) and, for the test
    function, the numbers ``t`` and ``p``; any other key is refused.
    """
    if not isinstance(spec, dict):
        raise FunctionSpecError("function spec must be an object")
    if "builtin" in spec:
        name = spec["builtin"]
        degree = spec.get("degree", 256)
        if (isinstance(degree, bool) or not isinstance(degree, int)
                or degree < 1):
            raise FunctionSpecError(
                "builtin 'degree' must be an integer >= 1, got %r" % (degree,))
        if not isinstance(name, str) or name not in _BUILTINS:
            raise FunctionSpecError("unknown builtin %r; expected one of %s"
                                    % (name, ", ".join(_BUILTINS)))
        keys, build = _BUILTINS[name]
        args = _spec_numbers(spec, keys, ("builtin", "degree"),
                             "builtin %r" % name, FunctionSpecError)
        if len(args) < len(keys):
            raise FunctionSpecError("%s builtin needs %s" % (
                name, " and ".join(map(repr, keys))))
        return build(*args.values(), degree)
    if "coeffs_re" not in spec:
        raise FunctionSpecError("function spec needs 'coeffs_re' or 'builtin'")
    coeffs = _spec_numbers(spec, ("coeffs_re", "coeffs_im"), (),
                           "coefficient spec", FunctionSpecError)
    re = np.asarray(coeffs["coeffs_re"], dtype=float)
    im = np.asarray(coeffs.get("coeffs_im", np.zeros_like(re)), dtype=float)
    if re.shape != im.shape:
        raise FunctionSpecError("'coeffs_re' and 'coeffs_im' lengths differ")
    return PowerSeries(re + 1j * im)
