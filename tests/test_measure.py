"""Measure construction, tails, and the two independent moment routes.

The closed forms used as oracles here are classical: a density
``(1-t)**(g-1)`` has moments given by the Beta function, an atom at
``t0`` has moments ``w * t0**n``, and the logarithmic density
``1/log(e/(1-t))`` has total mass ``e * E1(1)``.
"""

import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesarops.measure import (
    MeasureSpecError,
    MomentSequence,
    PointMass,
    PowerLogDensity,
    RadialMeasure,
    TabulatedDensity,
    load_measure,
    measure_from_dict,
    measure_to_dict,
    moment,
    moment_via_tail,
    moments,
    scale_measure,
    tail,
    total_mass,
)
from cesarops.quadrature import QuadratureError

LOG_ONE_MASS = 0.5963473623231941  # e * E1(1)


def test_lebesgue_moments_match_closed_form(catalog):
    mu = moments(catalog["lebesgue"], 1024)
    ns = np.arange(1025)
    err = np.abs(np.asarray(mu.values) - 1.0 / (ns + 1.0))
    assert err.max() <= 1e-12


def test_atom_moments_exact(catalog):
    mu = moments(catalog["atom09"], 256)
    ns = np.arange(257)
    assert np.allclose(mu.values, 0.9 ** ns, rtol=0.0, atol=1e-15)


def test_power_two_moments_closed_form(catalog):
    mu = moments(catalog["power_two"], 512)
    for n in (0, 1, 7, 64, 511):
        exact = 1.0 / ((n + 1.0) * (n + 2.0))
        assert mu.values[n] == pytest.approx(exact, abs=1e-12)


def test_power_half_moments_beta_function(catalog):
    mu = moments(catalog["power_half"], 1024)
    for n in (0, 1, 4, 64, 1024):
        exact = float(mpmath.beta(n + 1, 0.5))
        assert mu.values[n] == pytest.approx(exact, rel=1e-10, abs=1e-12)


def test_log_one_total_mass(catalog):
    assert total_mass(catalog["log_one"]) == pytest.approx(LOG_ONE_MASS,
                                                           abs=1e-12)
    assert tail(catalog["log_one"], 0.0) == pytest.approx(LOG_ONE_MASS,
                                                          abs=1e-12)


def test_tail_matches_brute_quadrature():
    comp = PowerLogDensity(1.3, 0.7, 1.4)
    m = RadialMeasure((comp,))
    for t in (0.0, 0.5, 0.9, 1.0 - 2.0 ** -12):
        brute = mpmath.quad(
            lambda x: 1.3 * (1.0 - x) ** (0.7 - 1.0)
            * (1.0 - mpmath.log(1.0 - x)) ** -1.4, [t, 1.0])
        assert tail(m, t) == pytest.approx(float(brute), rel=1e-10)


def test_tail_of_atom_is_a_step(catalog):
    m = catalog["atom09"]
    assert tail(m, 0.5) == 1.0
    assert tail(m, 0.9) == 1.0  # the tail integral is over [t, 1)
    assert tail(m, 0.9000000001) == 0.0


def test_tail_table_piecewise(hat_table):
    assert tail(hat_table, 0.0) == pytest.approx(total_mass(hat_table),
                                                 abs=1e-14)
    assert tail(hat_table, 0.95) == 0.0
    # the piecewise-linear density integrates in closed form from 0.5 on
    assert tail(hat_table, 0.5) == pytest.approx(
        0.3 * (1.0 + 1.2) / 2.0 + 0.15 * (1.2 + 0.0) / 2.0, abs=1e-14)


def test_moment_via_tail_is_consistent(catalog, hat_table):
    measures = dict(catalog)
    measures["hat_table"] = hat_table
    for name, m in measures.items():
        for n in (4, 64, 1024):
            a = moment(m, n)
            b = moment_via_tail(m, n)
            assert a == pytest.approx(b, abs=2e-10), (name, n)


def test_moments_batch_matches_single(catalog):
    m = catalog["mix_atom_power"]
    mu = moments(m, 128)
    for n in (0, 1, 17, 128):
        assert mu.values[n] == pytest.approx(moment(m, n), abs=1e-12)


def test_moment_sequence_validation(catalog):
    mu = moments(catalog["power_half"], 256)
    mu.validate()  # positivity and total monotonicity hold
    assert mu[0] > mu[1] > mu[255] > 0.0
    with pytest.raises(IndexError):
        mu[257]
    bad = MomentSequence((0.5, 0.6), 1, 1e-12)
    with pytest.raises(ValueError):
        bad.validate()


def test_total_mass_is_moment_zero(catalog):
    for m in catalog.values():
        assert total_mass(m) == pytest.approx(moment(m, 0), abs=1e-12)


def test_scale_measure_scales_moments(catalog):
    m = catalog["power_two"]
    doubled = scale_measure(m, 2.0)
    assert total_mass(doubled) == pytest.approx(2.0 * total_mass(m),
                                                abs=1e-12)
    assert moment(doubled, 8) == pytest.approx(2.0 * moment(m, 8), abs=1e-12)


def test_measure_dict_round_trip(catalog, hat_table):
    for m in list(catalog.values()) + [hat_table]:
        again = measure_from_dict(measure_to_dict(m))
        assert again == m


def test_load_measure_from_file(tmp_path, catalog):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(measure_to_dict(catalog["mix_atom_power"])))
    m = load_measure(str(path))
    assert m == catalog["mix_atom_power"]


@pytest.mark.parametrize("bad", [
    {"components": []},
    {"components": [{"kind": "point", "w": -1.0, "t0": 0.5}]},
    {"components": [{"kind": "point", "w": 1.0, "t0": 1.0}]},
    {"components": [{"kind": "power_log", "c": 1.0, "gamma": 0.0,
                     "beta": 0.0}]},
    {"components": [{"kind": "power_log", "c": -0.1, "gamma": 1.0,
                     "beta": 0.0}]},
    {"components": [{"kind": "table", "x": [0.0, 0.5], "v": [1.0, -1.0]}]},
    {"components": [{"kind": "table", "x": [0.5, 0.2], "v": [1.0, 1.0]}]},
    {"components": [{"kind": "table", "x": [0.0, 1.0], "v": [1.0, 1.0]}]},
    {"components": [{"kind": "point", "w": 0.0, "t0": 0.5}]},
    {"components": [{"kind": "mystery"}]},
])
def test_invalid_specs_rejected(bad):
    with pytest.raises((MeasureSpecError, KeyError, TypeError)):
        measure_from_dict(bad)


def test_moment_arguments_validated(catalog):
    with pytest.raises(ValueError):
        moment(catalog["lebesgue"], -1)
    with pytest.raises(ValueError):
        moments(catalog["lebesgue"], -2)


@settings(max_examples=25, deadline=None)
@given(c=st.floats(0.1, 3.0), gamma=st.floats(0.15, 3.0),
       beta=st.floats(0.0, 2.0))
def test_powerlog_moments_decrease_and_match_tail_route(c, gamma, beta):
    m = RadialMeasure((PowerLogDensity(c, gamma, beta),))
    mu = moments(m, 32)
    vals = np.asarray(mu.values)
    assert np.all(vals[1:] <= vals[:-1] + 1e-12)
    assert vals[16] == pytest.approx(moment_via_tail(m, 16), abs=2e-10)


@settings(max_examples=25, deadline=None)
@given(w=st.floats(0.05, 2.0), t0=st.floats(0.0, 0.99),
       t=st.floats(0.0, 0.999))
def test_atom_tail_step_property(w, t0, t):
    m = RadialMeasure((PointMass(w, t0),))
    assert tail(m, t) == (w if t <= t0 else 0.0)


# ------------------------------------------------------- component protocol


def test_slow_power_density_is_refused_not_truncated():
    # The u-cutoff for 1e-14 of neglected mass is about 3684 here.  It used
    # to be clamped at 400, which returned 98.17 for a total mass of 100.
    m = RadialMeasure((PowerLogDensity(1.0, 0.01),))
    assert total_mass(m) == pytest.approx(100.0, rel=1e-12)
    with pytest.raises(QuadratureError, match="u-cutoff 3684"):
        moments(m, 16)
    with pytest.raises(QuadratureError, match="u-cutoff"):
        moment(m, 16)


def test_integrate_power_density_with_r_exp_closed_form():
    comp = PowerLogDensity(1.5, 0.8)
    for r_exp in (0.3, 0.7):
        value = comp.integrate(np.ones_like, 1e-13, r_exp=r_exp)
        assert value == pytest.approx(1.5 / (0.8 - r_exp), rel=1e-11)
        assert value <= comp.integral_bound(r_exp)


def test_integrate_atom_with_r_exp_closed_form():
    comp = PointMass(0.7, 0.6)
    r_exp = 0.4
    assert comp.integrate(np.ones_like, 1e-13, r_exp=r_exp) == (
        0.7 * 0.4 ** -r_exp)
    assert comp.integrate(lambda t: t ** 3, 1e-13, r_exp=r_exp) == (
        pytest.approx(0.7 * 0.4 ** -r_exp * 0.6 ** 3, rel=1e-15))


def test_integrate_table_with_r_exp_matches_mpmath(hat_table):
    comp, = hat_table.components
    assert isinstance(comp, TabulatedDensity)
    r_exp = 0.6

    def kernel(t):
        return np.cos(3.0 * t)

    def density(t):
        return np.interp(float(t), comp.x, comp.v)

    brute = mpmath.quad(lambda t: mpmath.cos(3 * t) * (1 - t) ** -r_exp
                        * density(t), comp.x)
    value = comp.integrate(kernel, 1e-13, r_exp=r_exp)
    assert value == pytest.approx(float(brute), abs=1e-12)
    assert abs(value) <= comp.integral_bound(r_exp)


def test_integrate_monomial_reproduces_the_moments(catalog, hat_table):
    measures = dict(catalog, hat_table=hat_table)
    tol = 1e-13
    for name, m in measures.items():
        mu = moments(m, 64)
        for n in (0, 5, 64):
            total = sum(comp.integrate(lambda t: t ** n, tol)
                        for comp in m.components)
            slack = mu.abs_tolerance + tol * len(m.components)
            assert total == pytest.approx(mu[n], abs=slack), (name, n)
