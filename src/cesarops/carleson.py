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
  complex factor is treated.

Finite suprema are numerically undecidable, so every criterion reduces
to a trend fit on a dyadic ladder with fixed thresholds (see
:func:`trend_label`); the raw ladders are always kept alongside the
label so borderline calls can be inspected rather than trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from cesarops.measure import MomentSequence, RadialMeasure, tail
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
    """Outcome of the ladder trend heuristic: label plus its evidence."""

    label: str
    slope: float
    peak: float
    terminal: float
    residual: float


@dataclass(frozen=True)
class CriterionResult:
    """One criterion's ladder, raw values, and label."""

    criterion: str
    label: str
    grid: tuple
    values: tuple
    trend: TrendFit
    fitted_exponent: float = float("nan")
    fitted_log_exponent: float = float("nan")
    fit_residual: float = float("nan")
    subresults: tuple = ()
    note: str = ""


@dataclass(frozen=True)
class CarlesonVerdict:
    """Assembled three-way classification of one measure."""

    params: CarlesonParams
    sup_estimate: float
    limit_estimate: float
    fitted_exponent: float
    fitted_log_exponent: float
    per_criterion: dict
    agreement: bool
    criteria: tuple = field(repr=False)

    def to_dict(self) -> dict:
        """The labels and estimates, as the CLI reports them."""
        return {
            "per_criterion": dict(self.per_criterion),
            "agreement": self.agreement,
            "sup_estimate": self.sup_estimate,
            "limit_estimate": self.limit_estimate,
            "fitted_exponent": self.fitted_exponent,
            "fitted_log_exponent": self.fitted_log_exponent,
        }


def dyadic_t_ladder(depth: int = 14):
    """``t_j = 1 - 2**-j`` for ``j = 0..depth``."""
    if depth < 0:
        raise ValueError("ladder depth must be >= 0")
    return tuple(1.0 - 2.0 ** -j for j in range(depth + 1))


def _log_factor(t: float) -> float:
    # log(e / (1 - t)), written through log1p for accuracy near t = 0
    return 1.0 - math.log1p(-t)


def carleson_quotient(m: RadialMeasure, t: float,
                      params: CarlesonParams) -> float:
    """The defining quotient ``tail * log(e/(1-t))**alpha / (1-t)**s``."""
    if not 0.0 <= t < 1.0:
        raise ValueError("carleson_quotient requires t in [0, 1)")
    return (tail(m, t) * _log_factor(t) ** params.alpha
            / (1.0 - t) ** params.s)


def trend_label(values, *, min_points: int = MIN_LADDER_POINTS,
                slope_tol: float = SLOPE_TOL,
                vanish_ratio: float = VANISH_RATIO,
                burn_in: int = SLOPE_BURN_IN,
                settle_factor: float = SETTLE_FACTOR) -> TrendFit:
    """Label a ladder of nonnegative values by its trend.

    Decision order (each rule yields to the earlier ones):

    1. fewer than ``min_points`` values, or any nan -> inconclusive;
    2. any infinite value -> diverging;
    3. all values zero -> vanishing;
    4. terminal value below ``vanish_ratio`` of the peak with the last
       four points nonincreasing -> vanishing (checked before the slope
       so that ladders that die exactly, like atoms past their location,
       are not misread as growth);
    5. least-squares slope of log2(values) against the ladder index,
       after dropping the first ``burn_in`` points and any zeros,
       above ``slope_tol`` -> diverging;
    6. otherwise finite-looking, provided the last four points stay
       within a factor ``settle_factor`` of each other; an unsettled
       window is inconclusive.
    """
    vals = np.asarray(values, dtype=float)
    if vals.size < min_points or np.any(np.isnan(vals)):
        peak = float(np.max(vals)) if vals.size else float("nan")
        term = float(vals[-1]) if vals.size else float("nan")
        return TrendFit(LABEL_INCONCLUSIVE, float("nan"), peak, term,
                        float("nan"))
    peak = float(vals.max())
    terminal = float(vals[-1])
    if np.any(np.isinf(vals)):
        return TrendFit(LABEL_DIVERGING, float("inf"), peak, terminal,
                        float("nan"))
    if peak <= 0.0:
        return TrendFit(LABEL_VANISHING, float("nan"), peak, terminal,
                        float("nan"))
    last4 = vals[-4:]
    if (terminal < vanish_ratio * peak
            and np.all(last4[1:] <= last4[:-1] + 1e-300)):
        return TrendFit(LABEL_VANISHING, float("nan"), peak, terminal,
                        float("nan"))
    idx = np.arange(vals.size)
    live = vals > 0.0
    live[:burn_in] = False
    slope = float("nan")
    residual = float("nan")
    if live.sum() >= 4:
        x = idx[live].astype(float)
        y = np.log2(vals[live])
        coef = np.polyfit(x, y, 1)
        slope = float(coef[0])
        residual = float(np.sqrt(np.mean((np.polyval(coef, x) - y) ** 2)))
        if slope > slope_tol:
            return TrendFit(LABEL_DIVERGING, slope, peak, terminal, residual)
    else:
        return TrendFit(LABEL_INCONCLUSIVE, slope, peak, terminal, residual)
    settled = float(last4.max()) <= settle_factor * max(float(last4.min()),
                                                        1e-300)
    label = LABEL_FINITE if settled else LABEL_INCONCLUSIVE
    return TrendFit(label, slope, peak, terminal, residual)


def classify_tail(m: RadialMeasure, params: CarlesonParams,
                  ladder=None) -> CriterionResult:
    """Label the tail quotient along a dyadic ladder (default depth 14)."""
    ts = dyadic_t_ladder(14) if ladder is None else tuple(float(t)
                                                          for t in ladder)
    values = tuple(carleson_quotient(m, t, params) for t in ts)
    trend = trend_label(values)
    return CriterionResult("tail", trend.label, ts, values, trend)


def fit_moment_decay(mu: MomentSequence, n_lo: int = 64,
                     n_hi: int = 8192):
    """Two-regressor fit of ``log mu_n`` over dyadic ``n`` in [n_lo, n_hi].

    Returns ``(exponent, log_exponent, residual)`` from the least-squares
    model ``log mu_n ~ const + exponent*log(n+1) +
    log_exponent*log(log(n+1))``; a pure power law is recovered exactly.
    Entries that are not strictly positive are dropped; with fewer than
    three usable points all results are nan.
    """
    n_hi = min(n_hi, mu.n_max)
    ns, vals = [], []
    j = 0
    while 2 ** j <= n_hi:
        n = 2 ** j
        if n >= n_lo and mu.values[n] > 0.0:
            ns.append(n)
            vals.append(mu.values[n])
        j += 1
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
    values = tuple(
        mu.values[n] * (n + 1.0) ** params.s
        * math.log(n + 1.0) ** params.alpha
        for n in ns)
    trend = trend_label(values)
    exponent, log_exponent, resid = fit_moment_decay(mu)
    return CriterionResult("moments", trend.label, ns, values, trend,
                           fitted_exponent=exponent,
                           fitted_log_exponent=log_exponent,
                           fit_residual=resid)


def _variant_kernel(variant: str, a: complex, rho: float, theta: float):
    """Denominator factor ``1/(...)**theta`` for each integral variant."""
    if variant == "ii":
        def kernel(x):
            return (1.0 - rho * x) ** -theta
    elif variant == "iii":
        def kernel(x):
            return np.abs(1.0 - a * x) ** -theta
    elif variant == "iv":
        def kernel(x):
            return (1.0 - a * x) ** -theta
    else:
        raise ValueError("variant must be one of 'ii', 'iii', 'iv'")
    return kernel


def carleson_integral(m: RadialMeasure, a: complex, params: CarlesonParams,
                      variant: str = "ii", *,
                      rel_tol: float = 1e-10) -> float:
    """Weighted disk integral of the classification conditions.

    Computes ``(1-|a|)**t_exp * log(e/(1-|a|))**alpha * I`` where

        I = integral (1-x)**(-r_exp) * D(x)**(-theta) dm(x),
        theta = s + t_exp - r_exp,

    and ``D`` is ``1 - |a|x`` (variant ``"ii"``, depends on ``|a|``
    only), ``|1 - ax|`` (variant ``"iii"``), or the complex ``1 - ax``
    (variant ``"iv"``, where the modulus is taken after integrating).
    The result is ``inf`` when the integral diverges at the ``x = 1``
    endpoint, which happens exactly when some density component has
    power exponent at most ``r_exp``; a divergence that is logarithmic
    in nature but too slow to quantify raises ``QuadratureError``.
    """
    a = complex(a)
    rho = abs(a)
    if not rho < 1.0:
        raise ValueError("carleson_integral requires |a| < 1")
    theta = params.s + params.t_exp - params.r_exp
    r_exp = params.r_exp
    kernel = _variant_kernel(variant, a, rho, theta)

    bound_edge = (1.0 - rho) ** -theta   # bounds the kernel on [0, 1)
    tols = []
    for comp in m.components:
        size = comp.integral_bound(r_exp, bound_edge)
        if size == math.inf:
            return math.inf
        tols.append(rel_tol * max(1.0, size))

    prefactor = (1.0 - rho) ** params.t_exp * _log_factor(rho) ** params.alpha
    total = sum(comp.integrate(kernel, tol, r_exp=r_exp, bound=bound_edge)
                for comp, tol in zip(m.components, tols))
    if variant == "iv":
        return prefactor * abs(total)
    return prefactor * float(total.real)


def integral_profile(m: RadialMeasure, params: CarlesonParams,
                     variant: str = "ii", *, depth: int = 18,
                     rays=(0.0, math.pi / 3.0, 3.0 * math.pi / 4.0)
                     ) -> CriterionResult:
    """Trend of the integral condition as ``|a| -> 1`` along rays.

    ``|a|`` runs over the dyadic ladder up to the given depth.  Variant
    ``"ii"`` depends on ``|a|`` alone, so it is profiled on the real ray
    only; the other variants are profiled on every ray and labeled by
    consensus (disagreeing rays yield an inconclusive overall label).
    """
    rhos = dyadic_t_ladder(depth)
    use_rays = (0.0,) if variant == "ii" else tuple(rays)
    subresults = []
    labels = []
    note = ""
    for phi in use_rays:
        direction = complex(math.cos(phi), math.sin(phi))
        try:
            values = tuple(carleson_integral(m, rho * direction, params,
                                             variant) for rho in rhos)
        except QuadratureError as exc:
            trend = TrendFit(LABEL_INCONCLUSIVE, float("nan"), float("nan"),
                             float("nan"), float("nan"))
            subresults.append(CriterionResult(
                "integral ray phi=%.6f" % phi, LABEL_INCONCLUSIVE,
                rhos, (), trend, note=str(exc)))
            labels.append(LABEL_INCONCLUSIVE)
            note = str(exc)
            continue
        trend = trend_label(values)
        subresults.append(CriterionResult(
            "integral ray phi=%.6f" % phi, trend.label, rhos, values, trend))
        labels.append(trend.label)
    overall = labels[0] if len(set(labels)) == 1 else LABEL_INCONCLUSIVE
    lead = subresults[0]
    return CriterionResult("integral", overall, rhos, lead.values,
                           lead.trend, subresults=tuple(subresults),
                           note=note)


def classify_measure(m: RadialMeasure, params: CarlesonParams, *,
                     tail_depth: int = 14, n_max: int = 2 ** 14,
                     profile_depth: int = 18, variant: str = "ii",
                     probes=None, mu: MomentSequence | None = None
                     ) -> CarlesonVerdict:
    """Assemble the three-way verdict for one measure and parameter set.

    The integral criterion is probed at several ``(t_exp, r_exp)`` pairs
    (default ``(1, 0)``, ``(1, s/2)``, ``(2, s/2)``) and labeled by
    consensus among the probes, inconclusive probes excluded; conclusive
    probes that disagree make the criterion inconclusive.
    """
    from cesarops.measure import moments as compute_moments

    tail_res = classify_tail(m, params, dyadic_t_ladder(tail_depth))
    if mu is None:
        mu = compute_moments(m, n_max)
    moments_res = classify_moments(mu, params)

    if probes is None:
        probes = ((1.0, 0.0), (1.0, params.s / 2.0), (2.0, params.s / 2.0))
    probe_results = []
    for t_exp, r_exp in probes:
        probe_params = CarlesonParams(params.s, params.alpha, t_exp, r_exp)
        res = integral_profile(m, probe_params, variant, depth=profile_depth)
        res = replace(res, criterion="integral probe t_exp=%g r_exp=%g"
                      % (t_exp, r_exp))
        probe_results.append(res)
    conclusive = [r.label for r in probe_results
                  if r.label != LABEL_INCONCLUSIVE]
    if not conclusive:
        overall = LABEL_INCONCLUSIVE
    elif len(set(conclusive)) == 1:
        overall = conclusive[0]
    else:
        overall = LABEL_INCONCLUSIVE
    lead = probe_results[0]
    integral_res = CriterionResult(
        "integral", overall, lead.grid, lead.values, lead.trend,
        subresults=tuple(probe_results),
        note="; ".join(r.note for r in probe_results if r.note))

    per_criterion = {
        "tail": tail_res.label,
        "moments": moments_res.label,
        "integral": integral_res.label,
    }
    agreement = len(set(per_criterion.values())) == 1
    return CarlesonVerdict(
        params=params,
        sup_estimate=max(tail_res.values),
        limit_estimate=tail_res.values[-1],
        fitted_exponent=moments_res.fitted_exponent,
        fitted_log_exponent=moments_res.fitted_log_exponent,
        per_criterion=per_criterion,
        agreement=agreement,
        criteria=(tail_res, moments_res, integral_res),
    )


def conclusive_agreement(verdict: CarlesonVerdict) -> bool:
    """True when all conclusive criteria agree and at least one exists."""
    labels = [lab for lab in verdict.per_criterion.values()
              if lab != LABEL_INCONCLUSIVE]
    return bool(labels) and len(set(labels)) == 1
