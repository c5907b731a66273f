"""Full-scale acceptance checks, one printed line per criterion.

Each test prints ``[criterion NN] PASS/FAIL -- detail`` before asserting,
so a complete scoreboard appears even when a criterion misses its
stated threshold.
"""

import math
import time

import mpmath
import numpy as np

from cesarops.carleson import (
    CarlesonParams,
    carleson_integral,
    classify_measure,
    conclusive_agreement,
    fit_moment_decay,
)
from cesarops.measure import (
    PowerLogDensity,
    RadialMeasure,
    moment_via_tail,
    moments,
)
from cesarops.norms import besov_norm, bloch_norm, integral_mean
from cesarops.series import (
    PowerSeries,
    cesaro_like,
    cesaro_like_integral_eval,
    evaluate,
    log_series,
    partial_sums,
)
from cesarops.series import test_function as make_test_function
from cesarops.verify import (
    DECAY_EXPONENT_TOL,
    boundedness_experiment,
    compactness_experiment,
    decay_exponent,
)

from conftest import random_series


def report(num, ok, detail):
    line = "[criterion %02d] %s -- %s" % (num, "PASS" if ok else "FAIL",
                                          detail)
    print(line)
    assert ok, line


def test_criterion_01_harmonic_moment_table(catalog):
    start = time.perf_counter()
    mu = moments(catalog["lebesgue"], 2 ** 14)
    elapsed = time.perf_counter() - start
    n = np.arange(2 ** 14 + 1, dtype=float)
    worst = float(np.max(np.abs(mu.values - 1.0 / (n + 1.0))))
    ok = worst <= 1e-12 and elapsed < 60.0
    report(1, ok, "uniform-measure moments match 1/(n+1): worst error "
           "%.3g (need <= 1e-12), %.1fs (need < 60s)" % (worst, elapsed))


def test_criterion_02_two_moment_routes_agree(catalog):
    worst = 0.0
    for name, m in catalog.items():
        mu = moments(m, 2 ** 13)
        for n in (4, 64, 1024, 8192):
            gap = abs(mu[n] - moment_via_tail(m, n))
            worst = max(worst, gap)
    ok = worst <= 1e-9
    report(2, ok, "direct vs tail-route moments across the catalog at "
           "n in {4, 64, 1024, 8192}: worst gap %.3g (need <= 1e-9)" % worst)


def test_criterion_03_power_law_exponents_are_recovered():
    worst = 0.0
    details = []
    for s in (0.5, 1.0, 2.0):
        m = RadialMeasure((PowerLogDensity(1.0, s, 0.0),))
        mu = moments(m, 2 ** 13)
        exponent, _, _ = fit_moment_decay(mu)
        gap = abs(exponent + s)
        worst = max(worst, gap)
        details.append("s=%g: %.4f" % (s, exponent))
    ok = worst <= 0.05
    report(3, ok, "fitted dyadic decay exponents (%s), worst offset %.3g "
           "(need <= 0.05)" % ("; ".join(details), worst))


def test_criterion_04_logarithmic_moments_are_flat_when_normalized(catalog):
    mu = moments(catalog["log_one"], 2 ** 14)
    scaled = [mu[n] * (n + 1.0) * math.log(n + 1.0)
              for n in (2 ** j for j in range(8, 15))]
    spread = max(scaled) / min(scaled)
    ok = spread < 2.0
    report(4, ok, "normalized moments of the logarithmic measure vary by "
           "factor %.4f over n in [256, 16384] (need < 2)" % spread)


def test_criterion_05_series_and_integral_routes_agree(catalog):
    degree = 4096

    def padded(head):
        # Same function, represented at the shared degree: the operator
        # output has nonzero coefficients at every order, so the
        # coefficient route needs the long window even for polynomials.
        buf = np.zeros(degree + 1, dtype=complex)
        buf[:len(head)] = head
        return PowerSeries(buf)

    functions = {
        "constant": padded([1.0]),
        "identity": padded([0.0, 1.0]),
        "log": log_series(degree),
        "localized": make_test_function(0.9, 2.0, degree),
    }
    angles = np.arange(8) * (math.pi / 4.0)
    worst = 0.0
    for name, m in catalog.items():
        mu = moments(m, degree)
        for fname, f in functions.items():
            transformed = cesaro_like(mu, f)
            for radius in (0.5, 0.9):
                for phi in angles:
                    z = radius * complex(math.cos(phi), math.sin(phi))
                    via_series = evaluate(transformed, z)
                    via_integral = cesaro_like_integral_eval(m, f, z)
                    worst = max(worst, abs(via_series - via_integral))
    ok = worst <= 1e-8
    report(5, ok, "series vs integral evaluation over catalog x 4 "
           "functions x 16 points: worst gap %.3g (need <= 1e-8)" % worst)


def test_criterion_06_uniform_measure_gives_classical_averages(catalog, rng):
    f = random_series(rng, 256)
    mu = moments(catalog["lebesgue"], 256)
    got = cesaro_like(mu, f).coeffs
    want = partial_sums(f) / np.arange(1.0, 258.0)
    worst = float(np.max(np.abs(got - want)))
    ok = worst <= 1e-12
    report(6, ok, "coefficient route reproduces classical averaging on a "
           "random degree-256 series: worst gap %.3g (need <= 1e-12)"
           % worst)


def test_criterion_07_quadratic_mean_matches_coefficient_sum(rng):
    f = random_series(rng, 1024)
    n = np.arange(1.0, 1025.0)
    worst = 0.0
    for r in (0.5, 1.0 - 2.0 ** -10):
        want = math.sqrt(float(np.sum(
            n ** 2 * np.abs(f.coeffs[1:]) ** 2 * r ** (2 * n - 2))))
        got = integral_mean(f, r, 2.0, use_derivative=True)
        worst = max(worst, abs(got - want) / want)
    ok = worst <= 1e-10
    report(7, ok, "derivative quadratic means on a random degree-1024 "
           "series at two radii: worst relative gap %.3g (need <= 1e-10)"
           % worst)


def test_criterion_08_integral_variants_are_ordered(catalog):
    params = CarlesonParams(1.0, 0.0)
    slack = 1e-8
    angles = (0.25, 1.25, 2.2, math.pi - 0.25)
    radii = np.linspace(0.3, 0.99, 21)
    samples = 0
    violations = 0
    for m in catalog.values():
        for phi in angles:
            direction = complex(math.cos(phi), math.sin(phi))
            for rho in radii:
                a = rho * direction
                two = carleson_integral(m, rho, params, "ii")
                three = carleson_integral(m, a, params, "iii")
                four = carleson_integral(m, a, params, "iv")
                samples += 1
                if (four > three * (1.0 + slack) + 1e-15
                        or three > two * (1.0 + slack) + 1e-15):
                    violations += 1
    ok = samples >= 500 and violations == 0
    report(8, ok, "variant ordering complex <= modulus <= radial "
           "over %d samples: %d violations (need 0)" % (samples, violations))


def test_criterion_09_three_classifiers_agree_on_the_grid(catalog):
    grid = ((1.0, 0.0), (1.0, 0.5), (2.0, 0.0), (0.5, 1.0))
    cells = 0
    disagreements = []
    for name, m in catalog.items():
        mu = moments(m, 2 ** 14)
        for s, alpha in grid:
            verdict = classify_measure(m, CarlesonParams(s, alpha), mu=mu)
            cells += 1
            labels = set(verdict.per_criterion.values())
            labels.discard("inconclusive")
            if labels and not conclusive_agreement(verdict):
                disagreements.append("%s@(%g,%g)" % (name, s, alpha))
    ok = cells >= 24 and not disagreements
    report(9, ok, "tail/moment/integral labels over %d catalog cells: "
           "%d conclusive disagreements (need 0)%s"
           % (cells, len(disagreements),
              " -- " + ", ".join(disagreements) if disagreements else ""))


def test_criterion_10_boundedness_experiments(catalog):
    flat = boundedness_experiment(catalog["lebesgue"], 2.0, 2.0)
    lower_by_n = dict(zip(flat.lower_ns, flat.lower_values))
    terminal_lower = lower_by_n[2 ** 14]
    flat_ok = (flat.verdict == "not bounded"
               and flat.trend_fits["ratio"].label == "diverging"
               and terminal_lower > 3.0)

    spreads = {}
    tame_ok = True
    for name in ("atom09", "log_one"):
        rep = boundedness_experiment(catalog[name], 2.0, 2.0)
        med = float(np.median(rep.ratios))
        spread = max(max(rep.ratios) / med, med / min(rep.ratios))
        spreads[name] = spread
        tame_ok = tame_ok and rep.verdict == "bounded" and spread <= 3.0

    ok = flat_ok and tame_ok
    report(10, ok, "uniform measure: ratio ladder diverging, terminal "
           "lower bound %.4f (need > 3); atom and logarithmic measures "
           "bounded with ratio spread %.3f / %.3f about the median "
           "(need <= 3)" % (terminal_lower, spreads["atom09"],
                            spreads["log_one"]))


def test_criterion_11_compactness_experiments(catalog):
    # The test family is normalized by log(e/(1-t))**(-1/p), so no image
    # ladder can fall faster than that; the experiment judges decay on
    # the rescaled scale (decay_exponent), and the raw ladder of the
    # atom must still be strictly decreasing once past its peak.
    atom = compactness_experiment(catalog["atom09"], 2.0, 2.0)
    top = int(np.argmax(atom.ratios))
    past_peak = atom.ratios[top:]
    decreasing = (len(past_peak) > 1 and
                  all(b < a for a, b in zip(past_peak, past_peak[1:])))
    atom_ok = (atom.verdict == "compact-consistent" and atom.consistent
               and decreasing)
    atom_exp = decay_exponent(atom.t_ladder, atom.ratios, atom.p)

    flat = compactness_experiment(catalog["lebesgue"], 2.0, 2.0)
    flat_ratio = flat.ratios[-1] / max(flat.ratios)
    flat_ok = (flat_ratio >= 0.1 and flat.consistent
               and flat.verdict == "not compact-consistent")
    flat_exp = decay_exponent(flat.t_ladder, flat.ratios, flat.p)

    # Bounded but not compact: a rule that only detects boundedness
    # would call this one decayed.
    control = compactness_experiment(catalog["log_one"], 2.0, 2.0)
    control_ok = (control.verdict == "not compact-consistent"
                  and control.consistent)

    ok = atom_ok and flat_ok and control_ok
    report(11, ok, "rescaled decay exponents: atom %.4f, uniform %.4f "
           "(compact below %g); atom %s, consistent %s, raw norms "
           "strictly decreasing past the peak %s; uniform %s, terminal "
           "norm over peak %.4f (need >= 0.1); logarithmic %s (need not "
           "compact-consistent)"
           % (atom_exp, flat_exp, DECAY_EXPONENT_TOL, atom.verdict,
              atom.consistent, decreasing, flat.verdict, flat_ratio,
              control.verdict))


def _truncated_log_bloch_sup(degree):
    """Exact Bloch norm of ``sum_{k=1}^{degree} z**k / k``.

    Its derivative is ``sum_{k<degree} z**k``, largest in modulus on the
    positive axis, so the norm is ``max_r (1 + r)(1 - r**degree)`` on
    ``[0, 1]``; the function is unimodal there, and a golden-section
    search in 40-digit arithmetic pins the maximum far below 1e-12.
    """
    with mpmath.workdps(40):
        def h(r):
            return (1 + r) * (1 - r ** degree)

        shrink = (mpmath.sqrt(5) - 1) / 2
        a, b = mpmath.mpf(0), mpmath.mpf(1)
        c, d = b - shrink * (b - a), a + shrink * (b - a)
        hc, hd = h(c), h(d)
        while b - a > mpmath.mpf("1e-30"):
            if hc > hd:
                b, d, hd = d, c, hc
                c = b - shrink * (b - a)
                hc = h(c)
            else:
                a, c, hc = c, d, hd
                d = a + shrink * (b - a)
                hd = h(d)
        return float(h((a + b) / 2))


def test_criterion_12_reference_norm_values():
    bloch_id = bloch_norm(PowerSeries([0.0, 1.0])).value
    besov_id = besov_norm(PowerSeries([0.0, 1.0]), 2.0).value
    bloch_log = bloch_norm(log_series(4096)).value
    # The truncation sits (1 + log 8192)/4096 ~ 2.4e-3 below the norm 2
    # of log(1/(1-z)) itself; the degree-16384 truncation is checked
    # against 2 in tests/test_norms.py.
    want_log = _truncated_log_bloch_sup(4096)
    ok = (abs(bloch_id - 1.0) <= 1e-6
          and abs(besov_id - 1.0) <= 1e-6
          and abs(bloch_log - want_log) <= 1e-3)
    report(12, ok, "radial-derivative norm of z: %.8f (need 1 +- 1e-6); "
           "disk-mean norm of z: %.8f (need 1 +- 1e-6); radial-derivative "
           "norm of the degree-4096 logarithm: %.10f (need exact sup "
           "%.10f +- 1e-3)" % (bloch_id, besov_id, bloch_log, want_log))
