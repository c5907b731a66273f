"""End-to-end experiments on configurations small enough for unit tests.

The full-size runs live in the acceptance suite; here the same pipeline
is exercised on shortened ladders where the expected verdicts are known
and fast to reproduce, plus the exactly computable pieces (the
lower-bound statistic, conjugate exponents, the agreement matrix).
"""

import json
import math

import pytest

from cesarops.carleson import CarlesonParams, classify_measure
from cesarops.cli import main
from cesarops.measure import PointMass, RadialMeasure, moments
from cesarops.verify import (
    VERDICT_BOUNDED,
    VERDICT_COMPACT,
    VERDICT_NOT_BOUNDED,
    VERDICT_NOT_COMPACT,
    AgreementEntry,
    AgreementMatrix,
    ExperimentConfig,
    boundedness_experiment,
    compactness_experiment,
    lower_bound_statistic,
    proposition21_experiment,
)


CHEAP = ExperimentConfig(ladder_depth=6, lower_depth=10,
                         classifier_n_max=2 ** 10)
ATOM_CHEAP = ExperimentConfig(ladder_depth=8, lower_depth=10,
                              classifier_n_max=2 ** 10)


# ----------------------------------------------------------- small pieces


def test_lower_bound_statistic_for_lebesgue(catalog):
    # mu_15 = 1/16, so L_15 = (15/16) * sqrt(log 16).
    mu = moments(catalog["lebesgue"], 16)
    want = 15.0 / 16.0 * math.sqrt(math.log(16.0))
    assert lower_bound_statistic(mu, 2.0, 15) == pytest.approx(want, rel=1e-9)


def test_lower_bound_statistic_dies_for_the_origin_atom():
    m = RadialMeasure((PointMass(1.0, 0.0),))
    mu = moments(m, 16)
    assert lower_bound_statistic(mu, 2.0, 8) == 0.0


def test_lower_bound_statistic_argument_validation(catalog):
    mu = moments(catalog["lebesgue"], 16)
    with pytest.raises(ValueError):
        lower_bound_statistic(mu, 2.0, 2)
    with pytest.raises(ValueError):
        lower_bound_statistic(mu, 1.0, 8)


def test_experiment_config_ladder_and_degrees():
    config = ExperimentConfig()
    ladder = config.t_ladder()
    assert len(ladder) == config.ladder_depth
    assert ladder[0] == 0.5
    assert config.degree(1) == 256        # floor keeps short waves honest
    assert config.degree(12) == 2 ** 15   # cap


def test_exponent_boundary_is_rejected(catalog):
    with pytest.raises(ValueError):
        boundedness_experiment(catalog["lebesgue"], 1.0, 2.0, CHEAP)
    with pytest.raises(ValueError):
        boundedness_experiment(catalog["lebesgue"], 2.0, 1.0, CHEAP)
    with pytest.raises(ValueError):
        compactness_experiment(catalog["lebesgue"], 2.0, 0.5, CHEAP)


@pytest.mark.filterwarnings("error")
def test_a_test_function_without_a_finite_besov_norm_is_refused(
        capsys, catalog):
    # at p = 1e300 the test functions' Besov norms underflow to 0, and the
    # ratio ladder once read inf behind two divide-by-zero warnings
    with pytest.raises(ValueError, match=r"p = 1e\+300, t = 0\.5 is 0\.0"):
        boundedness_experiment(catalog["lebesgue"], 1e300, 2.0, CHEAP)
    code = main(["verify", "--theorem", "boundedness", "--measure",
                 "lebesgue", "--p", "1e300", "--ladder-depth", "4"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "p = 1e+300, t = 0.5" in err and "Warning" not in err


# ------------------------------------------------------------ experiments


def test_boundedness_flags_lebesgue(catalog):
    report = boundedness_experiment(catalog["lebesgue"], 2.0, 2.0, CHEAP)
    assert report.verdict == VERDICT_NOT_BOUNDED
    assert report.consistent
    assert report.trend_fits["ratio"].label == "diverging"
    assert report.q == 2.0
    # The quotient climbs monotonically on this ladder.
    assert all(b > a for a, b in zip(report.ratios, report.ratios[1:]))


def test_boundedness_clears_the_atom(catalog):
    report = boundedness_experiment(catalog["atom09"], 2.0, 2.0, ATOM_CHEAP)
    assert report.verdict == VERDICT_BOUNDED
    assert report.consistent
    assert report.trend_fits["ratio"].label == "finite-looking"


def test_lower_depth_beyond_the_classifier_table_is_covered(catalog):
    # the moment table stopped at classifier_n_max: IndexError at N = 2048
    config = ExperimentConfig(ladder_depth=4, lower_depth=12,
                              classifier_n_max=2 ** 10)
    report = boundedness_experiment(catalog["atom09"], 2.0, 2.0, config)
    assert report.lower_ns[-1] == 4096
    assert all(math.isfinite(v) for v in report.lower_values)


def test_compactness_flags_lebesgue(catalog):
    report = compactness_experiment(catalog["lebesgue"], 2.0, 2.0, CHEAP)
    assert report.verdict == VERDICT_NOT_COMPACT
    assert report.consistent


def test_compactness_of_the_atom_needs_a_longer_ladder(catalog):
    # The classifier already says the quotient vanishes, but the
    # rescaled exponent (decay_exponent, 0.26 here) has not yet settled
    # at depth 8; the default depth 12 settles it.  The report records
    # the tension instead of hiding it.
    report = compactness_experiment(catalog["atom09"], 2.0, 2.0, ATOM_CHEAP)
    assert report.verdict == VERDICT_NOT_COMPACT
    assert not report.consistent
    assert report.classifier.per_criterion["tail"] == "vanishing"
    peak = max(report.ratios)
    assert report.ratios[-1] < peak  # past the peak, genuinely decreasing
    assert report.ratios[-1] > 0.1 * peak  # raw norms still far from zero


def test_compactness_of_the_origin_atom_with_a_zero_image():
    # f_t(0) = 0, so C_m f_t vanishes identically: the all-zero ladder
    # counts as decayed, in line with the vanishing classifier.
    m = RadialMeasure((PointMass(1.0, 0.0),))
    report = compactness_experiment(m, 2.0, 2.0, CHEAP)
    assert all(v == 0.0 for v in report.ratios)
    assert report.verdict == VERDICT_COMPACT
    assert report.consistent


def test_report_serializes_to_plain_json(catalog):
    report = boundedness_experiment(catalog["lebesgue"], 2.0, 2.0, CHEAP)
    data = json.loads(json.dumps(report.to_dict()))
    assert data["theorem"] == "boundedness"
    assert data["verdict"] == VERDICT_NOT_BOUNDED
    assert data["p"] == 2.0 and data["q"] == 2.0
    assert len(data["ladder"]) == 6
    assert set(data["ladder"][0]) == {"t", "ratio", "bloch_ratio"}
    assert data["lower_bound"][0]["N"] == 4
    assert set(data["classifier"]) == {
        "per_criterion", "agreement", "sup_estimate", "limit_estimate",
        "fitted_exponent", "fitted_log_exponent"}
    assert data["trends"]["ratio"] == "diverging"
    assert data["consistent"] is True


# -------------------------------------------------------- agreement matrix


def test_agreement_matrix_on_a_small_catalog(catalog):
    small = {k: catalog[k] for k in ("lebesgue", "atom09")}
    grid = ((1.0, 0.0), (2.0, 0.0))
    matrix = proposition21_experiment(small, grid, n_max=2 ** 11,
                                      tail_depth=12)
    assert len(matrix.entries) == 4
    assert matrix.n_conclusive == 4
    assert matrix.n_agree == 4
    assert matrix.agreement_rate == 1.0
    by_key = {(e.measure, e.s): e for e in matrix.entries}
    assert by_key[("lebesgue", 1.0)].tail_label == "finite-looking"
    assert by_key[("lebesgue", 2.0)].tail_label == "diverging"
    assert by_key[("atom09", 1.0)].tail_label == "vanishing"


def test_agreement_matrix_rejects_empty_catalog():
    with pytest.raises(ValueError):
        proposition21_experiment({}, ((1.0, 0.0),))


def test_agreement_entry_flags():
    entry = AgreementEntry("x", 1.0, 0.0, "vanishing", "vanishing")
    assert entry.conclusive and entry.agree
    entry = AgreementEntry("x", 1.0, 0.0, "vanishing", "inconclusive")
    assert not entry.conclusive and not entry.agree
    entry = AgreementEntry("x", 1.0, 0.0, "vanishing", "diverging")
    assert entry.conclusive and not entry.agree
    empty = AgreementMatrix(())
    assert math.isnan(empty.agreement_rate)


def test_classifier_honours_n_max_for_a_given_moment_table(catalog):
    # The experiment hands its one long moment table to the classifier,
    # which must cut it to n_max rather than run its ladder to mu.n_max.
    m = catalog["power_half"]
    params = CarlesonParams(1.0, 0.5)
    exact = classify_measure(m, params, n_max=2 ** 10,
                             mu=moments(m, 2 ** 10))
    longer = classify_measure(m, params, n_max=2 ** 10,
                              mu=moments(m, 2 ** 12))
    got, want = longer.criteria[1], exact.criteria[1]
    assert (got.label, got.grid, got.values) == (want.label, want.grid,
                                                 want.values)
    assert got.grid[-1] == 2 ** 10
    assert got.fitted_exponent == want.fitted_exponent
    with pytest.raises(ValueError, match="n_max = 2048.*up to 1024"):
        classify_measure(m, params, n_max=2 ** 11, mu=moments(m, 2 ** 10))
