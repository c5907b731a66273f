"""Carleson-type classification of radial measures on [0, 1).

A finite positive measure is a logarithmic Carleson measure (with power
``s`` and logarithmic order ``alpha``) when the quotient

    Q(t) = tail(m, t) * log(e / (1-t))**alpha / (1-t)**s

stays bounded as ``t`` approaches 1, and a vanishing one when Q tends to
zero.  The same property has two further characterizations implemented
here so they can be played against each other:

* moment asymptotics -- boundedness (or decay) of the normalized moments
  ``mu_n * (n+1)**s * log(n+1)**alpha`` over dyadic ``n``;
* integral conditions -- boundedness of weighted disk integrals
  ``(1-|a|)**t_exp * log(e/(1-|a|))**alpha *
  integral (1-x)**(-r_exp) |1 - a x|**(-(s+t_exp-r_exp)) dm(x)``
  as ``|a|`` approaches 1, in three variants that differ in how the
  complex factor is treated.  The measure lives on [0, 1), so each
  integral is largest on the real ray ``a = |a|``, where the three
  variants agree; the classifier profiles that ray alone.

Finite suprema are numerically undecidable, so every criterion reduces
to a trend fit on a dyadic ladder with the fixed thresholds
``MIN_LADDER_POINTS``, ``SLOPE_BURN_IN``, ``SLOPE_TOL``, ``VANISH_RATIO``
and ``SETTLE_FACTOR`` (see :func:`trend_label`).  A
:class:`CriterionResult` keeps the raw ladder beside its label and
fitted slope, so borderline calls can be inspected rather than trusted;
the ladder's peak and terminal value are read off it.  Where several
labels are combined -- the integral probes of :func:`classify_measure`
and :func:`conclusive_agreement` -- one consensus rule applies: the
label that every conclusive label shares, or inconclusive when there is
none or they disagree.  A :class:`CarlesonVerdict` reads its labels and
estimates from its three criteria.  A ladder value beyond the float
range reads ``inf``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from cesarops.measure import (MomentSequence, RadialMeasure, _integrate,
                              moments, tail)
from cesarops.quadrature import QuadratureError

__all__ = [
    "LABEL_FINITE",
    "LABEL_DIVERGING",
    "LABEL_VANISHING",
    "LABEL_INCONCLUSIVE",
    "CarlesonParams",
    "TrendFit",
    "CriterionResult",
    "CarlesonVerdict",
    "dyadic_t_ladder",
    "carleson_quotient",
    "trend_label",
    "classify_tail",
    "fit_moment_decay",
    "classify_moments",
    "carleson_integral",
    "integral_profile",
    "classify_measure",
    "conclusive_agreement",
]

LABEL_FINITE = "finite-looking"
LABEL_DIVERGING = "diverging"
LABEL_VANISHING = "vanishing"
LABEL_INCONCLUSIVE = "inconclusive"

#: trend-fit thresholds (log2-scale slope; terminal-to-peak ratio)
SLOPE_TOL = 0.05
VANISH_RATIO = 1e-3
SETTLE_FACTOR = 4.0
MIN_LADDER_POINTS = 6
SLOPE_BURN_IN = 2


@dataclass(frozen=True)
class CarlesonParams:
    """Parameters of the (vanishing) alpha-logarithmic s-Carleson tests.

    ``s`` and ``alpha`` define the property itself; ``t_exp`` and
    ``r_exp`` are the auxiliary exponents of the integral conditions.
    """

    s: float
    alpha: float = 0.0
    t_exp: float = 1.0
    r_exp: float = 0.0

    def __post_init__(self):
        if not (self.s > 0.0 and math.isfinite(self.s)):
            raise ValueError("carleson params need s > 0")
        if not (self.alpha >= 0.0 and math.isfinite(self.alpha)):
            raise ValueError("carleson params need alpha >= 0")
        if not (self.t_exp > 0.0 and math.isfinite(self.t_exp)):
            raise ValueError("carleson params need t_exp > 0")
        if not 0.0 <= self.r_exp < self.s:
            raise ValueError("carleson params need 0 <= r_exp < s")


@dataclass(frozen=True)
class TrendFit:
    """Outcome of :func:`trend_label`: the label and its log2-scale slope
    (``inf`` on an infinite value, nan where no fit was made)."""

    label: str
    slope: float


@dataclass(frozen=True)
class CriterionResult:
    """One criterion's ladder (``grid``, raw ``values``) and its label and
    ``slope``; the integral criterion of :func:`classify_measure` labels
    its probes, the ``subresults``, together and keeps the lead probe's
    ``values`` and ``slope``."""

    criterion: str
    label: str
    grid: tuple
    values: tuple
    slope: float
    fitted_exponent: float = float("nan")
    fitted_log_exponent: float = float("nan")
    subresults: tuple = ()
    note: str = ""


@dataclass(frozen=True)
class CarlesonVerdict:
    """Three-way classification of one measure: its tail, moments and
    integral criteria, in that order, which every label and estimate is
    read from."""

    params: CarlesonParams
    criteria: tuple

    @property
    def per_criterion(self) -> dict:
        """Each criterion's label, by the criterion's name."""
        return {crit.criterion: crit.label for crit in self.criteria}

    def to_dict(self) -> dict:
        """The labels and estimates, as the CLI reports them: the sup and
        limit of the tail ladder, the moments' fitted exponents."""
        tail_res, moments_res, _ = self.criteria
        return {
            "per_criterion": self.per_criterion,
            "agreement": len(set(self.per_criterion.values())) == 1,
            "sup_estimate": max(tail_res.values),
            "limit_estimate": tail_res.values[-1],
            "fitted_exponent": moments_res.fitted_exponent,
            "fitted_log_exponent": moments_res.fitted_log_exponent,
        }


def dyadic_t_ladder(depth: int = 14):
    """``t_j = 1 - 2**-j`` for ``j = 0..depth``, with ``0 <= depth <= 53``."""
    if not 0 <= depth <= 53:
        raise ValueError("ladder depth %d is outside 0..53: beyond j = 53, "
                         "1 - 2**-j rounds to 1.0" % depth)
    return tuple(1.0 - 2.0 ** -j for j in range(depth + 1))


def _log_factor(t: float) -> float:
    # log(e / (1 - t)), written through log1p for accuracy near t = 0
    return 1.0 - math.log1p(-t)


def _scaled(value, *powers) -> float:
    """``value`` times each ``base**exponent`` of ``powers``, left to
    right.  A product that overflows on the way is taken again in
    logarithms, so only a product beyond the float range reads ``inf``;
    a zero ``value`` stays zero."""
    out = float(value)
    if out == 0.0:
        return 0.0
    try:
        for base, exponent in powers:
            out *= base ** exponent
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        log = math.log(abs(value)) + sum(e * math.log(b) for b, e in powers)
        with np.errstate(over="ignore"):
            out = math.copysign(float(np.exp(log)), value)
    return out


def carleson_quotient(m: RadialMeasure, t: float,
                      params: CarlesonParams) -> float:
    """The defining quotient ``tail * log(e/(1-t))**alpha / (1-t)**s``,
    taken through :func:`_scaled` when ``(1-t)**s`` underflows to 0."""
    if not 0.0 <= t < 1.0:
        raise ValueError("carleson_quotient requires t in [0, 1)")
    value = _scaled(tail(m, t), (_log_factor(t), params.alpha))
    scale = (1.0 - t) ** params.s
    if scale == 0.0:
        return _scaled(value, (1.0 - t, -params.s))
    return value / scale


def trend_label(values) -> TrendFit:
    """Label a ladder of nonnegative values by its trend.

    Decision order (each rule yields to the earlier ones):

    1. fewer than ``MIN_LADDER_POINTS`` values, or any nan -> inconclusive;
    2. any infinite value -> diverging;
    3. all values zero -> vanishing;
    4. terminal value below ``VANISH_RATIO`` of the peak with the last
       four points nonincreasing -> vanishing (checked before the slope
       so that ladders that die exactly, like atoms past their location,
       are not misread as growth);
    5. least-squares slope of log2(values) against the ladder index,
       after dropping the first ``SLOPE_BURN_IN`` points and any zeros,
       above ``SLOPE_TOL`` -> diverging;
    6. otherwise finite-looking, provided the last four points stay
       within a factor ``SETTLE_FACTOR`` of each other; an unsettled
       window is inconclusive.
    """
    vals = np.asarray(values, dtype=float)
    if vals.size < MIN_LADDER_POINTS or np.any(np.isnan(vals)):
        return TrendFit(LABEL_INCONCLUSIVE, float("nan"))
    if np.any(np.isinf(vals)):
        return TrendFit(LABEL_DIVERGING, float("inf"))
    peak = float(vals.max())
    if peak <= 0.0:
        return TrendFit(LABEL_VANISHING, float("nan"))
    last4 = vals[-4:]
    if (vals[-1] < VANISH_RATIO * peak
            and np.all(last4[1:] <= last4[:-1] + 1e-300)):
        return TrendFit(LABEL_VANISHING, float("nan"))
    live = vals > 0.0
    live[:SLOPE_BURN_IN] = False
    if live.sum() < 4:
        return TrendFit(LABEL_INCONCLUSIVE, float("nan"))
    slope = float(np.polyfit(np.flatnonzero(live).astype(float),
                             np.log2(vals[live]), 1)[0])
    if slope > SLOPE_TOL:
        return TrendFit(LABEL_DIVERGING, slope)
    settled = float(last4.max()) <= SETTLE_FACTOR * max(float(last4.min()),
                                                        1e-300)
    return TrendFit(LABEL_FINITE if settled else LABEL_INCONCLUSIVE, slope)


def classify_tail(m: RadialMeasure, params: CarlesonParams,
                  depth: int = 14) -> CriterionResult:
    """Label the tail quotient along ``dyadic_t_ladder(depth)``."""
    ts = dyadic_t_ladder(depth)
    values = tuple(carleson_quotient(m, t, params) for t in ts)
    trend = trend_label(values)
    return CriterionResult("tail", trend.label, ts, values, trend.slope)


def fit_moment_decay(mu: MomentSequence):
    """Two-regressor fit of ``log mu_n`` over dyadic ``n`` in [64, 8192].

    Returns ``(exponent, log_exponent, residual)`` from the least-squares
    model ``log mu_n ~ const + exponent*log(n+1) +
    log_exponent*log(log(n+1))``; a pure power law is recovered exactly.
    Entries that are not strictly positive are dropped; with fewer than
    three usable points all results are nan.
    """
    ns = [2 ** j for j in range(6, 14)
          if 2 ** j <= mu.n_max and mu.values[2 ** j] > 0.0]
    vals = [mu.values[n] for n in ns]
    if len(ns) < 3:
        return float("nan"), float("nan"), float("nan")
    ns = np.asarray(ns, dtype=float)
    y = np.log(np.asarray(vals))
    x1 = np.log(ns + 1.0)
    design = np.column_stack([np.ones_like(x1), x1, np.log(x1)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = float(np.sqrt(np.mean((design @ coef - y) ** 2)))
    return float(coef[1]), float(coef[2]), resid


def classify_moments(mu: MomentSequence,
                     params: CarlesonParams) -> CriterionResult:
    """Label the normalized moments ``mu_n (n+1)**s log(n+1)**alpha``.

    The trend runs over dyadic ``n`` up to ``mu.n_max``, which must reach
    at least 2**10 for the ladder to say anything.
    """
    if mu.n_max < 2 ** 10:
        raise ValueError("classify_moments needs moments up to n >= 2**10")
    js = range(int(math.log2(mu.n_max)) + 1)
    ns = tuple(2 ** j for j in js)
    values = tuple(_scaled(mu.values[n], (n + 1.0, params.s),
                           (math.log(n + 1.0), params.alpha))
                   for n in ns)
    trend = trend_label(values)
    exponent, log_exponent, _ = fit_moment_decay(mu)
    return CriterionResult("moments", trend.label, ns, values, trend.slope,
                           fitted_exponent=exponent,
                           fitted_log_exponent=log_exponent)


def _variant_kernel(variant: str, a: complex, rho: float, theta: float):
    """Denominator factor ``1/(...)**theta`` for each integral variant;
    ``"ii"`` is ``"iii"`` at the real point ``|a|``."""
    if variant == "iv":
        return lambda x: (1.0 - a * x) ** -theta
    if variant not in ("ii", "iii"):
        raise ValueError("variant must be one of 'ii', 'iii', 'iv'")
    b = rho if variant == "ii" else a
    return lambda x: np.abs(1.0 - b * x) ** -theta


def carleson_integral(m: RadialMeasure, a: complex, params: CarlesonParams,
                      variant: str = "ii") -> float:
    """Weighted disk integral of the classification conditions.

    Computes ``(1-|a|)**t_exp * log(e/(1-|a|))**alpha * I`` where

        I = integral (1-x)**(-r_exp) * D(x)**(-theta) dm(x),
        theta = s + t_exp - r_exp,

    and ``D`` is ``1 - |a|x`` (variant ``"ii"``, depends on ``|a|``
    only), ``|1 - ax|`` (variant ``"iii"``), or the complex ``1 - ax``
    (variant ``"iv"``, where the modulus is taken after integrating).
    On the real ray ``a = |a|`` the three agree (``"iii"`` is ``"ii"``
    bit for bit); off it ``"iv" <= "iii" <= "ii"``.
    ``I`` is taken to the quadrature's 1e-10, shared by its densities.
    The result is ``inf`` when the integral diverges at the ``x = 1``
    endpoint, which happens exactly when some density component has
    power exponent at most ``r_exp``, even where the prefactor underflows
    to 0; a divergence that is logarithmic in nature but too slow to
    quantify raises ``QuadratureError``, and so does a convergent
    power-log part whose kernel bound ``(1-|a|)**-theta`` overflows.
    """
    a = complex(a)
    rho = abs(a)
    if not rho < 1.0:
        raise ValueError("carleson_integral requires |a| < 1")
    theta = params.s + params.t_exp - params.r_exp
    kernel = _variant_kernel(variant, a, rho, theta)

    bound_edge = _scaled(1.0, (1.0 - rho, -theta))   # bounds the kernel
    prefactor = _scaled(1.0, (1.0 - rho, params.t_exp),
                        (_log_factor(rho), params.alpha))
    total = _integrate(m, kernel, 1e-10, r_exp=params.r_exp, bound=bound_edge)
    if math.isinf(abs(total)):
        return math.inf
    return prefactor * float(abs(total))


def integral_profile(m: RadialMeasure, params: CarlesonParams,
                     variant: str = "ii", *, depth: int = 18
                     ) -> CriterionResult:
    """Trend of the integral condition as ``a -> 1`` on the real ray.

    ``a`` runs over the dyadic ladder up to the given depth.  The measure
    lives on [0, 1), where ``|1 - a x| >= 1 - |a| x``, so the sup of every
    variant over the circle ``|a| = rho`` is its value at ``a = rho``; the
    variant only picks the kernel that evaluates it there.  A
    ``QuadratureError`` leaves an empty inconclusive ladder whose note is
    the error.
    """
    rhos = dyadic_t_ladder(depth)
    values, note = (), ""
    try:
        values = tuple(carleson_integral(m, rho, params, variant)
                       for rho in rhos)
    except QuadratureError as exc:
        note = str(exc)
    trend = trend_label(values)
    return CriterionResult("integral", trend.label, rhos, values,
                           trend.slope, note=note)


def classify_measure(m: RadialMeasure, params: CarlesonParams, *,
                     tail_depth: int = 14, n_max: int = 2 ** 14,
                     variant: str = "ii", mu: MomentSequence | None = None
                     ) -> CarlesonVerdict:
    """Assemble the three-way verdict for one measure and parameter set.

    The integral criterion is probed at the ``(t_exp, r_exp)`` pairs
    ``(1, 0)``, ``(1, s/2)`` and ``(2, s/2)``, each profiled to depth 18,
    and labeled by the consensus of the probes (see :func:`_consensus`).
    The probes fix their own exponents, so ``params.t_exp`` and
    ``params.r_exp`` are not read, and ``variant`` picks the kernel on
    the real ray (see :func:`integral_profile`).  The moment ladder runs
    to ``n_max``; a precomputed ``mu`` is cut there, and a shorter one
    raises.
    """
    tail_res = classify_tail(m, params, tail_depth)
    if mu is None:
        mu = moments(m, n_max)
    if mu.n_max < n_max:
        raise ValueError("classify_measure needs moments up to n_max = %d, "
                         "got mu up to %d" % (n_max, mu.n_max))
    mu = MomentSequence(mu.values[:n_max + 1], n_max, mu.abs_tolerance)
    moments_res = classify_moments(mu, params)

    probes = ((1.0, 0.0), (1.0, params.s / 2.0), (2.0, params.s / 2.0))
    probe_results = []
    for t_exp, r_exp in probes:
        probe_params = CarlesonParams(params.s, params.alpha, t_exp, r_exp)
        res = integral_profile(m, probe_params, variant)
        res = replace(res, criterion="integral probe t_exp=%g r_exp=%g"
                      % (t_exp, r_exp))
        probe_results.append(res)
    lead = probe_results[0]
    integral_res = CriterionResult(
        "integral", _consensus(r.label for r in probe_results),
        lead.grid, lead.values, lead.slope,
        subresults=tuple(probe_results),
        note="; ".join(r.note for r in probe_results if r.note))

    return CarlesonVerdict(params, (tail_res, moments_res, integral_res))


def _consensus(labels) -> str:
    """The label that every conclusive label shares; inconclusive when
    there is no conclusive label or two of them differ."""
    conclusive = {lab for lab in labels if lab != LABEL_INCONCLUSIVE}
    return conclusive.pop() if len(conclusive) == 1 else LABEL_INCONCLUSIVE


def conclusive_agreement(verdict: CarlesonVerdict) -> bool:
    """True when all conclusive criteria agree and at least one exists."""
    return _consensus(verdict.per_criterion.values()) != LABEL_INCONCLUSIVE
