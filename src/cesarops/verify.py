"""Empirical verification harness tying the operator, norms, and
classifier together.

Numerics cannot prove that an operator is bounded, but they can stress
the equivalences that the analysis predicts.  The experiments here play
three independent computations against each other for a measure ``m``
and exponent ``p`` (with conjugate ``q = p/(p-1)``):

* the ratio ``R(t) = |C_m f_t| / |f_t|`` between the mean-Lipschitz norm
  of the transformed test function and the Besov norm of the test
  function itself, along ``t -> 1`` (the test family consists of the
  extremals that witness unboundedness, so growth of R on it is the
  strongest desk-scale signal of an unbounded operator);
* the lower-bound statistic ``L_N = mu_N * N * log(N+1)**(1/q)`` on
  dyadic ``N``, whose divergence also certifies unboundedness;
* the Carleson classifier at ``(s, alpha) = (1, 1/q)``, which is the
  measure-theoretic side of the predicted equivalence.

The compactness experiment keeps the raw image norms ``|C_m f_t|``
instead of the ratio.  The test family tends to zero only like
``log(e/(1-t))**(-1/p)``, so their decay is judged after undoing that
factor: see :func:`decay_exponent` and ``DECAY_EXPONENT_TOL``.

A report is consistent when all conclusive pieces point the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cesarops.carleson import (
    LABEL_DIVERGING,
    LABEL_FINITE,
    LABEL_INCONCLUSIVE,
    LABEL_VANISHING,
    CarlesonParams,
    CarlesonVerdict,
    _consensus,
    _log_factor,
    classify_measure,
    classify_moments,
    classify_tail,
    dyadic_t_ladder,
    trend_label,
)
from cesarops.measure import MomentSequence, RadialMeasure, measure_to_dict
from cesarops.measure import moments as compute_moments
from cesarops.norms import besov_norm, bloch_norm, mean_lipschitz_norm
from cesarops.series import cesaro_like, test_function

__all__ = [
    "ExperimentConfig",
    "VerificationReport",
    "AgreementEntry",
    "AgreementMatrix",
    "lower_bound_statistic",
    "decay_exponent",
    "boundedness_experiment",
    "compactness_experiment",
    "proposition21_experiment",
]

VERDICT_BOUNDED = "bounded"
VERDICT_NOT_BOUNDED = "not bounded"
VERDICT_COMPACT = "compact-consistent"
VERDICT_NOT_COMPACT = "not compact-consistent"
VERDICT_INCONCLUSIVE = "inconclusive"

#: largest log-log slope of the rescaled compactness ladder (see
#: :func:`decay_exponent`) that still counts as decayed; measured slopes
#: at depth 12 are <= 0.03 for vanishing measures and >= 0.28 for
#: bounded non-compact ones
DECAY_EXPONENT_TOL = 0.1


@dataclass(frozen=True)
class ExperimentConfig:
    """Grids and truncations shared by the experiments.

    Test functions at ``t_j = 1 - 2**-j`` are truncated at degree
    ``min(max(8 * 2**j, 256), 2**15)``; the coefficient decay
    ``t**k / k`` makes the dropped tail a sub-0.1% perturbation, far
    below the factor-level thresholds the trend fits use.
    """

    ladder_depth: int = 12
    lower_depth: int = 14
    classifier_n_max: int = 2 ** 14

    def t_ladder(self):
        return dyadic_t_ladder(self.ladder_depth)[1:]

    def degree(self, j: int) -> int:
        # The floor of 256 matters for atoms: the transformed coefficients
        # then decay like t0**k regardless of t, so a short truncation at
        # small j would clip real norm mass.
        return min(max(8 * 2 ** j, 256), 2 ** 15)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one experiment, with every raw ladder it used."""

    theorem: str
    measure: dict
    p: float
    s: float
    q: float
    t_ladder: tuple
    ratios: tuple
    bloch_ratios: tuple
    lower_ns: tuple
    lower_values: tuple
    trend_fits: dict
    classifier: CarlesonVerdict
    verdict: str
    consistent: bool

    def to_dict(self) -> dict:
        ladder = []
        for i, t in enumerate(self.t_ladder):
            entry = {"t": t, "ratio": self.ratios[i]}
            if self.bloch_ratios:
                entry["bloch_ratio"] = self.bloch_ratios[i]
            ladder.append(entry)
        return {
            "theorem": self.theorem,
            "measure": self.measure,
            "p": self.p,
            "s": self.s,
            "q": self.q,
            "ladder": ladder,
            "lower_bound": [{"N": n, "L_N": v} for n, v in
                            zip(self.lower_ns, self.lower_values)],
            "classifier": self.classifier.to_dict(),
            "trends": {name: fit.label for name, fit in
                       self.trend_fits.items()},
            "verdict": self.verdict,
            "consistent": self.consistent,
        }


def _conjugate(p: float) -> float:
    if not (p > 1.0 and math.isfinite(p)):
        raise ValueError(
            "the exponent p must satisfy p > 1 (the boundary p -> 1, "
            "q -> infinity, is outside the theory)")
    return p / (p - 1.0)


def lower_bound_statistic(mu: MomentSequence, p: float, N: int) -> float:
    """``L_N = mu_N * N * log(N+1)**(1/q)`` with ``q = p/(p-1)``."""
    q = _conjugate(p)
    if N <= 2:
        raise ValueError("lower_bound_statistic requires N > 2")
    return mu[N] * N * math.log(N + 1.0) ** (1.0 / q)


def decay_exponent(ts, norms, p: float) -> float:
    """Log-log slope of ``g_j = norms[j] * L_j**(1/p)`` against ``L_j``
    over the last four rungs, with ``L_t = log(e/(1-t))``.

    The test family carries the factor ``L_t**(-1/p)``, so ``g`` is the
    image norm of the unnormalized kernel ``sum t**k z**k / k``: it
    settles (slope near 0) when the operator is compact, and grows like
    ``L**(1/p)`` or faster when it is not.
    """
    logs = np.log([_log_factor(t) for t in ts[-4:]])
    g = np.log(norms[-4:]) + logs / p
    return float(np.polyfit(logs, g, 1)[0])


def _bounded_sense(label: str):
    """Map a trend label to True (bounded), False (unbounded), or None."""
    if label in (LABEL_FINITE, LABEL_VANISHING):
        return True
    if label == LABEL_DIVERGING:
        return False
    return None


def _boundedness_verdict(ts, ratios, trends, label, p):
    """Verdict and consistency rule of :func:`boundedness_experiment`."""
    ratio_sense = _bounded_sense(trends["ratio"].label)
    lower_sense = _bounded_sense(trends["lower_bound"].label)
    if ratio_sense is False or lower_sense is False:
        verdict = VERDICT_NOT_BOUNDED
    elif ratio_sense and lower_sense:
        verdict = VERDICT_BOUNDED
    else:
        verdict = VERDICT_INCONCLUSIVE
    senses = (ratio_sense, lower_sense, _bounded_sense(label))
    return verdict, None not in senses and len(set(senses)) == 1


def _compactness_verdict(ts, norms, trends, label, p):
    """Verdict and consistency rule of :func:`compactness_experiment`."""
    tail4 = norms[-4:]
    decayed = (all(b <= a for a, b in zip(tail4, tail4[1:]))
               and (norms[-1] == 0.0
                    or decay_exponent(ts, norms, p) < DECAY_EXPONENT_TOL))
    if label == LABEL_INCONCLUSIVE:
        return VERDICT_INCONCLUSIVE, False
    says_vanishing = label == LABEL_VANISHING
    verdict = (VERDICT_COMPACT if says_vanishing and decayed
               else VERDICT_NOT_COMPACT)
    return verdict, says_vanishing == decayed


def _experiment(theorem, m, p, s, config, rule):
    """The sweep both theorems share: the norm ladder of the test family,
    the lower-bound statistic and the classifier at ``(1, 1/q)``, judged
    by ``rule(ts, ladder, trends, classifier_label, p)``.

    The boundedness ladder divides each image norm by the Besov norm of
    its test function and comes with a Bloch-norm ladder; the compactness
    ladder keeps the raw mean-Lipschitz norms only.
    """
    q = _conjugate(p)
    if not 1.0 < s < math.inf:
        raise ValueError("%s_experiment requires 1 < s < inf, got s = %r"
                         % (theorem, s))
    if config.ladder_depth < 4:
        raise ValueError("%s_experiment requires ladder_depth >= 4: the "
                         "decay exponent fits the last four rungs" % theorem)
    bounded = theorem == "boundedness"
    ts = config.t_ladder()
    mu = compute_moments(m, max(config.degree(config.ladder_depth),
                                config.classifier_n_max,
                                2 ** config.lower_depth))
    ladder, bloch = [], []
    for j, t in enumerate(ts, start=1):
        f = test_function(t, p, config.degree(j))
        cf = cesaro_like(mu, f)
        size = besov_norm(f, p).value if bounded else 1.0
        ladder.append(mean_lipschitz_norm(cf, s, 1.0 / s).value / size)
        if bounded:
            bloch.append(bloch_norm(cf).value / size)
    ladder, bloch = tuple(ladder), tuple(bloch)

    lower_ns = tuple(2 ** k for k in range(2, config.lower_depth + 1))
    lower_values = tuple(lower_bound_statistic(mu, p, n) for n in lower_ns)

    classifier = classify_measure(m, CarlesonParams(1.0, 1.0 / q),
                                  n_max=config.classifier_n_max, mu=mu)

    trends = {
        "ratio": trend_label(ladder),
        "lower_bound": trend_label(lower_values),
    }
    if bloch:
        trends["bloch_ratio"] = trend_label(bloch)
    verdict, consistent = rule(
        ts, ladder, trends, _consensus(classifier.per_criterion.values()), p)

    return VerificationReport(
        theorem=theorem, measure=measure_to_dict(m), p=p, s=s, q=q,
        t_ladder=ts, ratios=ladder, bloch_ratios=bloch,
        lower_ns=lower_ns, lower_values=lower_values, trend_fits=trends,
        classifier=classifier, verdict=verdict, consistent=consistent)


def boundedness_experiment(m: RadialMeasure, p: float, s: float,
                           config: ExperimentConfig | None = None
                           ) -> VerificationReport:
    """Play the ratio ladder, the lower-bound statistic, and the
    classifier at ``(1, 1/q)`` against each other.

    Requires finite ``p, s > 1``.  The verdict is "not bounded" as soon
    as the ratio ladder or the lower-bound ladder diverges, "bounded"
    when both stay tame, and "inconclusive" otherwise; the consistency
    flag records whether classifier and ladders tell the same story.
    """
    return _experiment("boundedness", m, p, s, config or ExperimentConfig(),
                       _boundedness_verdict)


def compactness_experiment(m: RadialMeasure, p: float, s: float,
                           config: ExperimentConfig | None = None
                           ) -> VerificationReport:
    """Track ``|C_m f_t|`` raw (the test family tends to zero locally
    uniformly, so a compact operator must send it to zero in norm).

    The family only tends to zero at the rate ``L_t**(-1/p)``, so the
    raw norms cannot fall faster than that.  The ladder counts as
    decayed when its last four rungs are nonincreasing and either the
    last one is zero (as for an identically zero image) or
    :func:`decay_exponent` stays below ``DECAY_EXPONENT_TOL``.  The
    ladder carries the raw mean-Lipschitz norms; the verdict is
    "compact-consistent" when the classifier reports a vanishing
    Carleson quotient and the ladder has decayed.
    """
    return _experiment("compactness", m, p, s, config or ExperimentConfig(),
                       _compactness_verdict)


@dataclass(frozen=True)
class AgreementEntry:
    """Tail label vs moment label for one (measure, parameters) cell."""

    measure: str
    s: float
    alpha: float
    tail_label: str
    moments_label: str

    @property
    def conclusive(self) -> bool:
        return LABEL_INCONCLUSIVE not in (self.tail_label,
                                          self.moments_label)

    @property
    def agree(self) -> bool:
        return self.conclusive and self.tail_label == self.moments_label


@dataclass(frozen=True)
class AgreementMatrix:
    """Cross-criterion comparison over a catalog and parameter grid."""

    entries: tuple

    @property
    def n_conclusive(self) -> int:
        return sum(e.conclusive for e in self.entries)

    @property
    def n_agree(self) -> int:
        return sum(e.agree for e in self.entries)

    @property
    def agreement_rate(self) -> float:
        if self.n_conclusive == 0:
            return float("nan")
        return self.n_agree / self.n_conclusive


def proposition21_experiment(catalog: dict, params_grid, *,
                             n_max: int = 2 ** 14,
                             tail_depth: int = 14) -> AgreementMatrix:
    """Label every catalog measure by tail and by moments on a grid of
    ``(s, alpha)`` pairs and tabulate where the two criteria agree.

    Inconclusive cells are flagged (``conclusive = False``) and left out
    of the agreement statistics rather than counted as disagreement.
    """
    if not catalog:
        raise ValueError("proposition21_experiment needs a nonempty catalog")
    entries = []
    for name, m in catalog.items():
        mu = compute_moments(m, n_max)
        for s, alpha in params_grid:
            params = CarlesonParams(s, alpha)
            t_res = classify_tail(m, params, tail_depth)
            m_res = classify_moments(mu, params)
            entries.append(AgreementEntry(name, s, alpha,
                                          t_res.label, m_res.label))
    return AgreementMatrix(tuple(entries))
