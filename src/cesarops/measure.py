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

* ``tail(t)`` -- the measure of [t, 1) in closed form; ``tail(0)`` is
  the mass;
* ``moments(n_max, abs_tol)`` -- the moments ``integral of t**n`` for
  the orders ``n = 0..n_max``, as one vector: closed forms for atoms and
  tables, one shared panel grid for a power-log density;
* ``integrate(g, tol, r_exp=0, bound=1)`` -- the integral of
  ``g(t) * (1 - t)**(-r_exp)`` against the component, for a vectorized
  kernel ``g``, to the quadrature's ``tol`` (absolute up to magnitude 1,
  relative above it): an atom in closed form, a table by quadrature
  between its grid nodes, a power-log density after the substitution
  ``t = 1 - exp(-u)``, which turns the boundary concentration at
  ``t -> 1`` into plain exponential decay at the rate ``gamma - r_exp``,
  on the dyadic u-panels ``[0, 1], [1, 2], [2, 4], ...`` from the start;
  the u-cutoff leaves out less than 1e-14 of the weight times ``bound``,
  which should bound ``|g|``, and a component that would need a cutoff
  beyond ``u = 400`` raises ``QuadratureError`` instead of being
  truncated, one whose integral diverges at ``t = 1`` gives ``inf``.

A component's JSON spec is its ``kind`` plus exactly its dataclass fields.

``integrate`` is the one routine that integrates a kernel against a
measure: :func:`moment`, the integral route of the operator in
:mod:`cesarops.series` and the Carleson integrals in
:mod:`cesarops.carleson` are all kernels handed to ``_integrate``, which
sums it over the components.  One rule splits every tolerance, there
and in :func:`moments`: the densities share it equally, and an atom,
whose part is a closed form, takes no share.
``moment_via_tail`` evaluates the moments through the
distribution-function identity

    moment(m, n) = n * integral_0^1 tail(m, x) * x**(n-1) dx   (n >= 1)

with an independently coded integrand (closed-form tails against the
monomial) and serves as a cross-check oracle for the direct route.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import mpmath
import numpy as np

from cesarops.quadrature import QuadratureError, gauss_rule, integrate_adaptive

__all__ = [
    "MeasureSpecError",
    "PowerLogDensity",
    "PointMass",
    "TabulatedDensity",
    "RadialMeasure",
    "MomentSequence",
    "total_mass",
    "tail",
    "moment",
    "moments",
    "moment_via_tail",
    "measure_from_dict",
    "measure_to_dict",
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
        _MASS_CUT; a prefactor (the kernel bound) beyond the float range or
        a cutoff beyond _MAX_CUT raises QuadratureError."""
        if not math.isfinite(prefactor):
            raise QuadratureError(
                "power_log component has no u-cutoff: the kernel bound %g "
                "is beyond the float range" % prefactor)
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

    def integrate(self, g, tol, *, r_exp=0.0, bound=1.0):
        """``inf`` when the weighted integral diverges at ``t = 1``, and
        QuadratureError when it converges only through the logarithmic
        factor."""
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
        cut = self._cutoff(decay, bound)

        def integrand(u):
            return g(-np.expm1(-u)) * self._weight(u, decay)

        # the dyadic panels u = 1, 2, 4, ... below the cut, which bisection
        # would otherwise find toward u = 0 one level at a time
        dyadic = [2.0 ** k for k in range(int(cut).bit_length())]
        return integrate_adaptive(integrand, 0.0, cut, tol=tol,
                                  breakpoints=dyadic).value

    def moments(self, n_max, abs_tol):
        """All moments up to ``n_max`` on one shared panel grid, refined
        until the whole vector is stable."""
        if self.c == 0.0:
            return np.zeros(n_max + 1)
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
                return cur
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

    def tail(self, t):
        return self.w if self.t0 >= t else 0.0

    def integrate(self, g, tol, *, r_exp=0.0, bound=1.0):
        if self.w == 0.0:
            return 0.0
        return self.w * (1.0 - self.t0) ** -r_exp * g(np.array([self.t0]))[0]

    def moments(self, n_max, abs_tol):
        vals = self.w * _power(self.t0, np.arange(n_max + 1.0))
        return np.where(vals < _ATOM_FLUSH, 0.0, vals)


def _power(x, n):
    """``x**n`` for ``x`` in [0, 1) as ``exp(n log x)``, elementwise: 1 at
    ``n = 0``, and at most 1e-320 at ``x = 0`` for ``n > 0``."""
    with np.errstate(under="ignore"):
        return np.exp(n * np.log(np.maximum(x, 1e-320)))


def _pow_diff(x0, x1, k):
    """x1**k - x0**k for integer array k, stable when both factors are tiny."""
    k = np.asarray(k, dtype=float)
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

    def _panels(self):
        """Per-panel linear coefficients (a, b) with density a + b*x on [x_i, x_{i+1}]."""
        x = np.asarray(self.x)
        v = np.asarray(self.v)
        b = (v[1:] - v[:-1]) / (x[1:] - x[:-1])
        a = v[:-1] - b * x[:-1]
        return x, a, b

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

    def integrate(self, g, tol, *, r_exp=0.0, bound=1.0):
        xs = np.asarray(self.x)
        vs = np.asarray(self.v)

        def integrand(t):
            return (g(t) * (1.0 - t) ** -r_exp
                    * np.interp(t, xs, vs, right=0.0))

        return integrate_adaptive(integrand, 0.0, self.x[-1], tol=tol,
                                  breakpoints=self.x).value

    def moments(self, n_max, abs_tol):
        """Exact moments of the piecewise-linear density against t**n."""
        ns = np.arange(n_max + 1)
        x, a, b = self._panels()
        out = np.zeros(n_max + 1)
        for i in range(len(a)):
            d1 = _pow_diff(x[i], x[i + 1], ns + 1)
            d2 = _pow_diff(x[i], x[i + 1], ns + 2)
            out += a[i] * d1 / (ns + 1) + b[i] * d2 / (ns + 2)
        return out


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
        if not 0.0 < total_mass(self) < math.inf:
            raise MeasureSpecError(
                "measure must have positive, finite total mass")


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
    return sum(comp.tail(0.0) for comp in m.components)


def tail(m: RadialMeasure, t: float) -> float:
    """Measure of the interval [t, 1)."""
    if not 0.0 <= t < 1.0:
        raise ValueError("tail requires t in [0, 1)")
    return sum(comp.tail(t) for comp in m.components)


def _share(m: RadialMeasure, tol: float) -> float:
    """``tol`` split equally among the densities: an atom is a closed form."""
    densities = sum(not isinstance(comp, PointMass) for comp in m.components)
    return tol / max(densities, 1)


def _integrate(m: RadialMeasure, g, tol: float, **kwargs):
    """The integral of ``g`` against ``m``, to ``tol`` split by :func:`_share`;
    ``kwargs`` (``r_exp=``, ``bound=``) go to each ``comp.integrate``."""
    share = _share(m, tol)
    return sum(comp.integrate(g, share, **kwargs) for comp in m.components)


def moment(m: RadialMeasure, n: int, *, abs_tol: float = DEFAULT_TOL) -> float:
    """n-th moment, integral of t**n dm(t), to abs_tol shared by the
    densities, each absolute up to magnitude 1 and relative above it."""
    if n < 0:
        raise ValueError("moment order must be >= 0")
    if not 0.0 < abs_tol < math.inf:
        raise ValueError("abs_tol must be positive and finite")
    return float(_integrate(m, lambda t: _power(t, n), abs_tol).real)


def moments(m: RadialMeasure, n_max: int, *,
            abs_tol: float = DEFAULT_TOL) -> MomentSequence:
    """Moment sequence 0..n_max as a validated :class:`MomentSequence`.

    Power-log components are integrated on one shared panel grid that is
    refined until the whole vector of moments is stable; atoms and tabulated
    densities use closed forms.  ``abs_tol`` is split by :func:`_share`.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if not 0.0 < abs_tol < math.inf:
        raise ValueError("abs_tol must be positive and finite")
    share = _share(m, abs_tol)
    vals = sum(comp.moments(n_max, share) for comp in m.components)
    return MomentSequence(vals, n_max, abs_tol).validate()


def moment_via_tail(m: RadialMeasure, n: int) -> float:
    """n-th moment through the distribution-function identity (n >= 1).

    Integrates ``n * x**(n-1) * tail(m, x)`` to 1e-11 split equally among
    all the components, atoms too, whose part is a quadrature here (absolute
    up to magnitude 1, relative above it), with closed-form tails: an
    integration path independent of :func:`moment`.
    """
    if n < 1:
        raise ValueError("moment_via_tail requires n >= 1")
    out = 0.0
    share = 1e-11 / len(m.components)
    for comp in m.components:
        breaks = ()
        if isinstance(comp, PowerLogDensity):
            hi = comp._cutoff(comp.gamma, float(n))

            def integrand(u, comp=comp):
                tails = np.array([comp._tail_u(ui) for ui in u])
                return n * _power(-np.expm1(-u), n - 1) * tails * np.exp(-u)
        elif isinstance(comp, PointMass):
            if comp.w == 0.0 or comp.t0 == 0.0:
                continue
            hi = -math.log1p(-comp.t0)

            def integrand(u, comp=comp):
                return n * comp.w * _power(-np.expm1(-u), n - 1) * np.exp(-u)
        else:
            hi, breaks = comp.x[-1], comp.x

            def integrand(x, comp=comp):
                tails = np.array([comp.tail(xi) for xi in x])
                return n * _power(x, n - 1) * tails
        out += float(integrate_adaptive(integrand, 0.0, hi, tol=share,
                                        breakpoints=breaks).value.real)
    return out


# ---------------------------------------------------------------------------
# serialization


def _spec_numbers(spec, names, others, what, error):
    """The ``names`` present in the JSON object ``spec`` as floats, a list as
    a tuple of floats; ``error`` for a key outside ``others`` and ``names``,
    a value that is not a number (a JSON int or float, not a bool) or an
    int beyond the float range."""
    for key in spec:
        if key not in (*others, *names):
            raise error("unknown key %r in %s; expected only %s"
                        % (key, what, ", ".join((*others, *names))))

    def number(value):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise error("%s: %r is not a number" % (what, value))
        try:
            return float(value)
        except OverflowError as exc:
            raise error("%s: an integer beyond the float range"
                        % what) from exc

    return {name: (tuple(map(number, spec[name]))
                   if isinstance(spec[name], (list, tuple))
                   else number(spec[name]))
            for name in names if name in spec}


def measure_from_dict(spec) -> RadialMeasure:
    """Build a measure from ``{"components": [...]}``."""
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
        names = [f.name for f in fields(cls)]
        values = _spec_numbers(entry, names, ("kind",), "%s component" % kind,
                               MeasureSpecError)
        try:
            comps.append(cls(**values))
        except TypeError as exc:
            raise MeasureSpecError("bad component %r: %s" % (entry, exc)) from exc
    return RadialMeasure(tuple(comps))


def measure_to_dict(m: RadialMeasure) -> dict:
    return {"components": [{"kind": comp.kind, **asdict(comp)}
                           for comp in m.components]}
