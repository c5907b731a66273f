"""Finite positive radial measures on [0, 1) and their moment sequences.

A measure is a finite mixture of three component kinds:

* ``PowerLogDensity`` -- absolutely continuous part
  ``c * (1 - t)**(gamma - 1) * log(e / (1 - t))**(-beta) dt`` with
  ``c >= 0``, ``gamma > 0``, ``beta >= 0``;
* ``PointMass`` -- an atom of weight ``w >= 0`` at ``t0 in [0, 1)``;
* ``TabulatedDensity`` -- a piecewise-linear density sampled on a grid
  ``0 = x_0 < ... < x_K < 1`` and identically zero beyond ``x_K``.

Every kind answers one protocol, so each measure-level function below is
a sum or a comprehension over the components:

* ``mass()`` and ``tail(t)`` -- the measure of [0, 1) and of [t, 1), in
  closed form;
* ``moments(ns, abs_tol)`` -- the moments ``integral of t**n`` for the
  orders ``ns``: closed forms for atoms and tables, one shared panel grid
  for a power-log density;
* ``integrate(g, abs_tol, r_exp=0, bound=1)`` -- the integral of
  ``g(t) * (1 - t)**(-r_exp)`` against the component, for a vectorized
  kernel ``g``: an atom in closed form, a table by quadrature between its
  grid nodes, a power-log density after the substitution
  ``t = 1 - exp(-u)``, which turns the boundary concentration at
  ``t -> 1`` into plain exponential decay at the rate ``gamma - r_exp``;
  the u-cutoff leaves out less than 1e-14 of the weight times ``bound``,
  which should bound ``|g|``, and a component that would need a cutoff
  beyond ``u = 400`` raises ``QuadratureError`` instead of being truncated;
* ``integral_bound(r_exp, bound)`` -- an upper bound of that integral for
  ``|g| <= bound`` (infinite when it diverges), to scale tolerances by;
* ``scaled(factor)`` and ``to_dict()``.

``integrate`` is the one routine that integrates a kernel against a
measure: :func:`moment`, the integral route of the operator in
:mod:`cesarops.series` and the Carleson integrals in
:mod:`cesarops.carleson` are all kernels handed to it.
``moment_via_tail`` evaluates the moments through the
distribution-function identity

    moment(m, n) = n * integral_0^1 tail(m, x) * x**(n-1) dx   (n >= 1)

with an independently coded integrand (closed-form tails against the
monomial) and serves as a cross-check oracle for the direct route.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Union

import mpmath
import numpy as np

from cesarops.quadrature import QuadratureError, gauss_rule, integrate_adaptive

__all__ = [
    "MeasureSpecError",
    "PowerLogDensity",
    "PointMass",
    "TabulatedDensity",
    "MeasureComponent",
    "RadialMeasure",
    "MomentSequence",
    "total_mass",
    "tail",
    "moment",
    "moments",
    "moment_via_tail",
    "measure_from_dict",
    "measure_to_dict",
    "load_measure",
    "scale_measure",
]

DEFAULT_TOL = 1e-12
_MASS_CUT = 1e-14        # neglected weight mass beyond the u-space cutoff
_MAX_CUT = 400.0         # largest u-space cutoff before a component is refused
_ATOM_FLUSH = 1e-300     # atoms below this contribute exact zero


class MeasureSpecError(ValueError):
    """Raised for malformed measure descriptions."""


@dataclass(frozen=True)
class PowerLogDensity:
    """Density ``c * (1-t)**(gamma-1) * log(e/(1-t))**(-beta)`` on [0, 1)."""

    c: float
    gamma: float
    beta: float = 0.0

    kind = "power_log"

    def __post_init__(self):
        if not (self.c >= 0.0 and math.isfinite(self.c)):
            raise MeasureSpecError("power_log component needs c >= 0")
        if not (self.gamma > 0.0 and math.isfinite(self.gamma)):
            raise MeasureSpecError("power_log component needs gamma > 0")
        if not (self.beta >= 0.0 and math.isfinite(self.beta)):
            raise MeasureSpecError("power_log component needs beta >= 0")

    @classmethod
    def from_dict(cls, d):
        return cls(float(d["c"]), float(d["gamma"]), float(d.get("beta", 0.0)))

    def to_dict(self):
        return {"kind": self.kind, "c": self.c, "gamma": self.gamma,
                "beta": self.beta}

    def scaled(self, factor):
        return replace(self, c=self.c * factor)

    def mass(self):
        return self.tail(0.0)

    def tail(self, t):
        """Closed form via the incomplete gamma function.

        With v = log(e/(1-t)) the tail equals
        ``c * e**gamma * gamma**(beta-1) * Gamma(1 - beta, gamma * v)``;
        for beta = 0 this collapses to ``c * (1-t)**gamma / gamma``.
        """
        return self._tail_u(-math.log1p(-t))

    def _tail_u(self, u):
        """Same tail at ``t = 1 - exp(-u)``, taken directly in ``u``.

        Working in u avoids reconstituting t, which rounds to exactly 1 once
        ``exp(-u)`` drops below machine epsilon.
        """
        if self.c == 0.0:
            return 0.0
        if self.beta == 0.0:
            return self.c * math.exp(-self.gamma * u) / self.gamma
        g = self.gamma
        val = mpmath.gammainc(1.0 - self.beta, g * (1.0 + u))
        return float(self.c * math.exp(g) * g ** (self.beta - 1.0) * val)

    def _cutoff(self, decay, prefactor):
        """Upper u-cutoff with tail mass prefactor*exp(-decay*U)/decay below
        _MASS_CUT; a cutoff beyond _MAX_CUT raises QuadratureError."""
        if decay <= 0.0:
            raise QuadratureError("integrand does not decay (effective exponent <= 0)")
        scale = max(prefactor * max(self.c, 1.0) / decay, 1e-30)
        u = max(math.log(scale / _MASS_CUT) / decay, 4.0)
        if u > _MAX_CUT:
            raise QuadratureError(
                "power_log component needs the u-cutoff %.6g, beyond the "
                "largest supported %g (decay %.3g too slow)"
                % (u, _MAX_CUT, decay))
        return u

    def _weight(self, u, decay):
        return self.c * np.exp(-decay * u) * (1.0 + u) ** -self.beta

    def integral_bound(self, r_exp=0.0, bound=1.0):
        """``c * bound / (gamma - r_exp)``; infinite when the weighted
        integral diverges, and QuadratureError when it converges only
        through the logarithmic factor."""
        if self.c == 0.0:
            return 0.0
        decay = self.gamma - r_exp
        if decay < 0.0 or (decay == 0.0 and self.beta <= 1.0):
            return math.inf
        if decay == 0.0:
            raise QuadratureError(
                "integral converges only through the logarithmic "
                "factor (power exponents cancel); too slow to "
                "evaluate reliably")
        return self.c * bound / decay

    def integrate(self, g, abs_tol, *, r_exp=0.0, bound=1.0):
        if self.c == 0.0:
            return 0.0
        decay = self.gamma - r_exp
        cut = self._cutoff(decay, bound)

        def integrand(u):
            return g(-np.expm1(-u)) * self._weight(u, decay)

        return integrate_adaptive(integrand, 0.0, cut, abs_tol=abs_tol).value

    def moments(self, ns, abs_tol):
        """All moments up to ``max(ns)`` on one shared panel grid, refined
        until the whole vector is stable."""
        if self.c == 0.0:
            return np.zeros(len(ns))
        n_max = int(np.max(ns))
        cut = self._cutoff(self.gamma, 1.0)
        xs, ws = gauss_rule(24)

        def level_values(panels_per_unit):
            n_panels = max(4, int(math.ceil(cut * panels_per_unit)))
            edges = np.linspace(0.0, cut, n_panels + 1)
            lo, hi = edges[:-1], edges[1:]
            u = (lo[:, None] + (hi - lo)[:, None] * xs[None, :]).ravel()
            w = ((hi - lo)[:, None] * ws[None, :]).ravel()
            weight = w * self._weight(u, self.gamma)
            t = -np.expm1(-u)
            out = np.empty(n_max + 1)
            out[0] = weight.sum()
            power = np.ones_like(t)
            for n in range(1, n_max + 1):
                power = power * t
                out[n] = weight @ power
            return out

        prev = level_values(2)
        for level in (4, 8, 16):
            cur = level_values(level)
            delta = float(np.max(np.abs(cur - prev)))
            prev = cur
            if delta <= 0.25 * abs_tol:
                return cur[ns]
        raise QuadratureError(
            "moment batch did not converge: achieved %.3e, requested %.3e"
            % (delta, abs_tol), value=prev, error=delta)


@dataclass(frozen=True)
class PointMass:
    """Atom of weight ``w`` at ``t0 in [0, 1)``."""

    w: float
    t0: float

    kind = "point"

    def __post_init__(self):
        if not (self.w >= 0.0 and math.isfinite(self.w)):
            raise MeasureSpecError("point component needs w >= 0")
        if not 0.0 <= self.t0 < 1.0:
            raise MeasureSpecError("point component needs t0 in [0, 1)")

    @classmethod
    def from_dict(cls, d):
        return cls(float(d["w"]), float(d["t0"]))

    def to_dict(self):
        return {"kind": self.kind, "w": self.w, "t0": self.t0}

    def scaled(self, factor):
        return replace(self, w=self.w * factor)

    def mass(self):
        return self.w

    def tail(self, t):
        return self.w if self.t0 >= t else 0.0

    def integral_bound(self, r_exp=0.0, bound=1.0):
        return self.w * (1.0 - self.t0) ** -r_exp * bound

    def integrate(self, g, abs_tol, *, r_exp=0.0, bound=1.0):
        if self.w == 0.0:
            return 0.0
        return self.w * (1.0 - self.t0) ** -r_exp * g(np.array([self.t0]))[0]

    def moments(self, ns, abs_tol):
        ns = np.asarray(ns, dtype=float)
        if self.w == 0.0:
            return np.zeros(len(ns))
        if self.t0 == 0.0:
            out = np.zeros(len(ns))
            out[ns == 0] = self.w
            return out
        with np.errstate(under="ignore"):
            vals = self.w * np.exp(ns * math.log(self.t0))
        vals[vals < _ATOM_FLUSH] = 0.0
        return vals


def _pow_diff(x0, x1, k):
    """x1**k - x0**k for integer array k, stable when both factors are tiny."""
    k = np.asarray(k, dtype=float)
    if x1 <= 0.0:
        return np.zeros_like(k)
    hi = np.exp(k * math.log(x1))
    if x0 <= 0.0:
        return hi
    return hi * (-np.expm1(k * (math.log(x0) - math.log(x1))))


@dataclass(frozen=True)
class TabulatedDensity:
    """Piecewise-linear density on grid ``0 = x_0 < ... < x_K < 1``."""

    x: tuple
    v: tuple

    kind = "table"

    def __post_init__(self):
        x = tuple(float(t) for t in self.x)
        v = tuple(float(t) for t in self.v)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "v", v)
        if len(x) < 2 or len(x) != len(v):
            raise MeasureSpecError("table component needs matching grids with >= 2 nodes")
        if x[0] != 0.0:
            raise MeasureSpecError("table grid must start at 0")
        if not all(a < b for a, b in zip(x[:-1], x[1:])):
            raise MeasureSpecError("table grid must be strictly increasing")
        if not x[-1] < 1.0:
            raise MeasureSpecError("table grid must end below 1")
        if any(val < 0.0 or not math.isfinite(val) for val in v):
            raise MeasureSpecError("table values must be finite and >= 0")

    @classmethod
    def from_dict(cls, d):
        return cls(tuple(d["x"]), tuple(d["v"]))

    def to_dict(self):
        return {"kind": self.kind, "x": list(self.x), "v": list(self.v)}

    def scaled(self, factor):
        return replace(self, v=tuple(val * factor for val in self.v))

    def _panels(self):
        """Per-panel linear coefficients (a, b) with density a + b*x on [x_i, x_{i+1}]."""
        x = np.asarray(self.x)
        v = np.asarray(self.v)
        b = (v[1:] - v[:-1]) / (x[1:] - x[:-1])
        a = v[:-1] - b * x[:-1]
        return x, a, b

    def mass(self):
        x = np.asarray(self.x)
        v = np.asarray(self.v)
        return float(np.sum(0.5 * (v[1:] + v[:-1]) * (x[1:] - x[:-1])))

    def tail(self, t):
        if t >= self.x[-1]:
            return 0.0
        x, a, b = self._panels()
        lo = np.maximum(x[:-1], t)
        hi = x[1:]
        width = np.clip(hi - lo, 0.0, None)
        # integral of a + b*x over [lo, hi] in closed form
        parts = a * width + 0.5 * b * (hi - lo) * (hi + lo)
        parts[width <= 0.0] = 0.0
        return float(parts.sum())

    def integral_bound(self, r_exp=0.0, bound=1.0):
        return max(self.v) * (1.0 - self.x[-1]) ** -r_exp * bound

    def integrate(self, g, abs_tol, *, r_exp=0.0, bound=1.0):
        xs = np.asarray(self.x)
        vs = np.asarray(self.v)

        def integrand(t):
            val = g(t)
            if r_exp:
                val = val * (1.0 - t) ** -r_exp
            return val * np.interp(t, xs, vs, right=0.0)

        return integrate_adaptive(integrand, 0.0, self.x[-1], abs_tol=abs_tol,
                                  breakpoints=self.x).value

    def moments(self, ns, abs_tol):
        """Exact moments of the piecewise-linear density against t**n."""
        ns = np.asarray(ns)
        x, a, b = self._panels()
        out = np.zeros(len(ns))
        for i in range(len(a)):
            d1 = _pow_diff(x[i], x[i + 1], ns + 1)
            d2 = _pow_diff(x[i], x[i + 1], ns + 2)
            out += a[i] * d1 / (ns + 1) + b[i] * d2 / (ns + 2)
        return out


MeasureComponent = Union[PowerLogDensity, PointMass, TabulatedDensity]
_KINDS = {cls.kind: cls for cls in (PowerLogDensity, PointMass, TabulatedDensity)}


@dataclass(frozen=True)
class RadialMeasure:
    """Finite positive measure on [0, 1): a nonempty tuple of components."""

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise MeasureSpecError("measure needs at least one component")
        for comp in comps:
            if not isinstance(comp, tuple(_KINDS.values())):
                raise MeasureSpecError("unknown component type %r" % (comp,))
        if not total_mass(self) > 0.0:
            raise MeasureSpecError("measure must have positive total mass")


@dataclass(frozen=True)
class MomentSequence:
    """Moments ``values[n] = moment(m, n)`` for ``n = 0..n_max``.

    ``abs_tolerance`` is the absolute accuracy the producer aimed for; the
    validity checks below allow exactly that much slack.
    """

    values: np.ndarray
    n_max: int
    abs_tolerance: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.n_max + 1,):
            raise ValueError("values must have length n_max + 1")

    def validate(self):
        """Check positivity, monotonicity and total monotonicity (k <= 4)."""
        tol = self.abs_tolerance
        if np.any(self.values < -tol):
            raise ValueError("moment sequence has negative entries")
        seq = self.values
        for k in range(1, 5):
            seq = seq[:-1] - seq[1:]          # (-1)^k * forward difference
            if seq.size and seq.min() < -tol:
                raise ValueError(
                    "moment sequence fails total monotonicity at order %d" % k)
        return self

    def __getitem__(self, n):
        return float(self.values[n])


# ---------------------------------------------------------------------------
# public operations


def total_mass(m: RadialMeasure) -> float:
    """Mass of [0, 1), i.e. the moment of order zero (closed forms only)."""
    return sum(comp.mass() for comp in m.components)


def tail(m: RadialMeasure, t: float) -> float:
    """Measure of the interval [t, 1)."""
    if not 0.0 <= t < 1.0:
        raise ValueError("tail requires t in [0, 1)")
    return sum(comp.tail(t) for comp in m.components)


def moment(m: RadialMeasure, n: int, *, abs_tol: float = DEFAULT_TOL) -> float:
    """n-th moment, integral of t**n dm(t), to absolute tolerance abs_tol."""
    if n < 0:
        raise ValueError("moment order must be >= 0")

    def power(t):
        if not n:
            return np.ones_like(t)
        with np.errstate(under="ignore"):
            return np.exp(n * np.log(np.maximum(t, 1e-320)))

    share = abs_tol / len(m.components)
    return float(sum(comp.integrate(power, share)
                     for comp in m.components).real)


def moments(m: RadialMeasure, n_max: int, *,
            abs_tol: float = DEFAULT_TOL) -> MomentSequence:
    """Moment sequence 0..n_max as a validated :class:`MomentSequence`.

    Power-log components are integrated on one shared panel grid that is
    refined until the whole vector of moments is stable; atoms and tabulated
    densities use closed forms.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    ns = np.arange(n_max + 1)
    share = abs_tol / len(m.components)
    vals = sum(comp.moments(ns, share) for comp in m.components)
    return MomentSequence(vals, n_max, abs_tol).validate()


def moment_via_tail(m: RadialMeasure, n: int, *,
                    abs_tol: float = 1e-11) -> float:
    """n-th moment through the distribution-function identity (n >= 1).

    Integrates ``n * x**(n-1) * tail(m, x)`` with closed-form tails, an
    integration path independent of :func:`moment`.
    """
    if n < 1:
        raise ValueError("moment_via_tail requires n >= 1")
    out = 0.0
    share = abs_tol / len(m.components)
    for comp in m.components:
        if isinstance(comp, PowerLogDensity):
            cut = comp._cutoff(comp.gamma, float(n))

            def integrand(u, comp=comp):
                x = -np.expm1(-u)
                with np.errstate(under="ignore"):
                    xn = np.exp((n - 1) * np.log(np.maximum(x, 1e-320)))
                tails = np.array([comp._tail_u(ui) for ui in u])
                return n * xn * tails * np.exp(-u)

            out += float(integrate_adaptive(integrand, 0.0, cut,
                                            abs_tol=share).value.real)
        elif isinstance(comp, PointMass):
            if comp.w == 0.0 or comp.t0 == 0.0:
                continue
            u0 = -math.log1p(-comp.t0)

            def integrand(u, comp=comp):
                x = -np.expm1(-u)
                with np.errstate(under="ignore"):
                    xn = np.exp((n - 1) * np.log(np.maximum(x, 1e-320)))
                return n * comp.w * xn * np.exp(-u)

            out += float(integrate_adaptive(integrand, 0.0, u0,
                                            abs_tol=share).value.real)
        else:
            x_hi = comp.x[-1]

            def integrand(x, comp=comp):
                with np.errstate(under="ignore"):
                    xn = np.exp((n - 1) * np.log(np.maximum(x, 1e-320)))
                tails = np.array([comp.tail(xi) for xi in x])
                return n * xn * tails

            out += float(integrate_adaptive(integrand, 0.0, x_hi,
                                            abs_tol=share,
                                            breakpoints=comp.x).value.real)
    return out


def scale_measure(m: RadialMeasure, factor: float) -> RadialMeasure:
    """The measure factor * m (factor > 0)."""
    if not factor > 0.0:
        raise ValueError("scale factor must be positive")
    return RadialMeasure(tuple(comp.scaled(factor) for comp in m.components))


# ---------------------------------------------------------------------------
# serialization


def measure_from_dict(spec) -> RadialMeasure:
    if not isinstance(spec, dict) or "components" not in spec:
        raise MeasureSpecError("measure spec must be an object with 'components'")
    raw = spec["components"]
    if not isinstance(raw, list) or not raw:
        raise MeasureSpecError("'components' must be a nonempty list")
    comps = []
    for entry in raw:
        if not isinstance(entry, dict) or "kind" not in entry:
            raise MeasureSpecError("component entries need a 'kind' field")
        kind = entry["kind"]
        cls = _KINDS.get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise MeasureSpecError("unknown component kind %r" % (kind,))
        try:
            comps.append(cls.from_dict(entry))
        except MeasureSpecError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise MeasureSpecError("bad component %r: %s" % (entry, exc)) from exc
    return RadialMeasure(tuple(comps))


def measure_to_dict(m: RadialMeasure) -> dict:
    return {"components": [comp.to_dict() for comp in m.components]}


def load_measure(path) -> RadialMeasure:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MeasureSpecError("invalid JSON in %s: %s" % (path, exc)) from exc
    return measure_from_dict(spec)
