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

from cesarops.carleson import (
    CarlesonParams,
    carleson_integral,
    classify_measure,
)
from cesarops.catalog import (
    builtin_measure_names,
    load_builtin_measure,
    resolve_measure,
)
from cesarops.measure import (
    MeasureSpecError,
    MomentSequence,
    PointMass,
    PowerLogDensity,
    RadialMeasure,
    TabulatedDensity,
    measure_from_dict,
    measure_to_dict,
    moment,
    moment_via_tail,
    moments,
    tail,
    total_mass,
)
from cesarops.quadrature import QuadratureError
from cesarops.series import (
    cesaro_like_derivative_eval,
    cesaro_like_integral_eval,
    log_series,
)

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


def test_zero_weight_components_change_nothing(catalog):
    lebesgue = catalog["lebesgue"]
    padded = RadialMeasure(lebesgue.components + (
        PowerLogDensity(0.0, 0.3, 2.0),
        PointMass(0.0, 0.5),
        TabulatedDensity((0.0, 0.5), (0.0, 0.0))))
    assert total_mass(padded) == total_mass(lebesgue)
    for t in (0.0, 0.25, 0.5, 0.9):
        assert tail(padded, t) == tail(lebesgue, t)
    assert moment_via_tail(padded, 7) == moment_via_tail(lebesgue, 7)
    assert moment(padded, 7) == pytest.approx(1.0 / 8.0, abs=1e-12)
    mu, mu_padded = moments(lebesgue, 256), moments(padded, 256)
    assert np.max(np.abs(mu_padded.values - mu.values)) <= mu.abs_tolerance
    params = CarlesonParams(1.0, 0.5)
    labels = [{c.criterion: c.label for c in classify_measure(
        m, params, tail_depth=8, n_max=1024).criteria}
        for m in (lebesgue, padded)]
    assert labels[0] == labels[1]


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


def test_total_mass_is_the_tail_at_zero(hat_table):
    for name in builtin_measure_names():
        m = load_builtin_measure(name)
        assert total_mass(m) == tail(m, 0.0), name
    # closed-form panel areas: 0.15 + 0.33 + 0.24
    assert total_mass(hat_table) == 0.72


def test_measure_dict_round_trip(catalog, hat_table):
    for m in list(catalog.values()) + [hat_table]:
        again = measure_from_dict(measure_to_dict(m))
        assert again == m


def test_measure_file_round_trip(tmp_path, catalog):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(measure_to_dict(catalog["mix_atom_power"])))
    m = resolve_measure(str(path))
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
    # a misspelled beta was skipped and read as beta = 0
    {"components": [{"kind": "power_log", "c": 1.0, "gamma": 1.0,
                     "bta": 1.0}]},
    # strings and bools were coerced to numbers
    {"components": [{"kind": "point", "w": True, "t0": 0.5}]},
    {"components": [{"kind": "point", "w": 1, "t0": False}]},
    {"components": [{"kind": "power_log", "c": "1", "gamma": "1"}]},
    {"components": [{"kind": "table", "x": [0, 0.5], "v": [True, True]}]},
    {"components": [{"kind": "power_log", "c": 1.0}]},
    # finite components of infinite total mass gave mu_0 = inf at exit 0
    {"components": [{"kind": "point", "w": 1e308, "t0": 0.5},
                    {"kind": "point", "w": 1e308, "t0": 0.25}]},
    {"components": [{"kind": "power_log", "c": 1e308, "gamma": 1e-10}]},
])
def test_invalid_specs_rejected(bad):
    with pytest.raises(MeasureSpecError):
        measure_from_dict(bad)


@pytest.mark.parametrize("component, key", [
    ({"kind": "power_log", "c": 1.0, "gamma": 1.0, "bta": 1.0}, "bta"),
    ({"kind": "point", "w": 1.0, "t0": 0.5, "t": 0.5}, "t"),
    ({"kind": "table", "x": [0.0, 0.5], "v": [1.0, 1.0], "y": [0.0]}, "y"),
])
def test_each_kind_refuses_a_key_outside_its_fields(component, key):
    message = "unknown key %r in %s component" % (key, component["kind"])
    with pytest.raises(MeasureSpecError, match=message):
        measure_from_dict({"components": [component]})


_NUMBERS = st.one_of(st.integers(1, 5), st.floats(0.05, 5.0))
_TABLES = st.lists(st.floats(0.001, 0.999), min_size=1, max_size=4,
                   unique=True).flatmap(lambda xs: st.fixed_dictionaries({
                       "kind": st.just("table"), "x": st.just([0] + sorted(xs)),
                       "v": st.lists(_NUMBERS, min_size=len(xs) + 1,
                                     max_size=len(xs) + 1)}))
_COMPONENTS = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.just("power_log"), "c": _NUMBERS, "gamma": _NUMBERS},
        optional={"beta": st.one_of(st.integers(0, 3), st.floats(0.0, 3.0))}),
    st.fixed_dictionaries({"kind": st.just("point"), "w": _NUMBERS,
                           "t0": st.one_of(st.just(0), st.floats(0.0, 0.999))}),
    _TABLES)


@settings(max_examples=60, deadline=None)
@given(components=st.lists(_COMPONENTS, min_size=1, max_size=3))
def test_spec_round_trip_gives_the_numbers_as_floats(components):
    m = measure_from_dict({"components": components})
    written = measure_to_dict(m)["components"]
    for spec, back in zip(components, written, strict=True):
        want = {key: (value if key == "kind" else
                      tuple(map(float, value)) if isinstance(value, list)
                      else float(value)) for key, value in spec.items()}
        if spec["kind"] == "power_log":
            want.setdefault("beta", 0.0)
        assert back == want
        for key, value in back.items():
            if key != "kind":
                values = value if isinstance(value, tuple) else (value,)
                assert all(type(v) is float for v in values)
    assert measure_from_dict({"components": written}) == m


def test_moment_arguments_validated(catalog):
    with pytest.raises(ValueError):
        moment(catalog["lebesgue"], -1)
    with pytest.raises(ValueError):
        moments(catalog["lebesgue"], -2)


@settings(max_examples=60, deadline=None)
@given(tol=st.one_of(st.floats(), st.sampled_from(
    [-1.0, 0.0, math.nan, math.inf, 5e-324, 1e300])))
def test_moment_tolerance_must_be_positive_and_finite(catalog, tol):
    atom = catalog["atom09"]
    if 0.0 < tol < math.inf:
        assert moment(atom, 3, abs_tol=tol) == pytest.approx(0.9 ** 3)
        assert moments(atom, 8, abs_tol=tol).abs_tolerance == tol
        return
    for m in (atom, catalog["lebesgue"]):
        with pytest.raises(ValueError, match="abs_tol"):
            moment(m, 3, abs_tol=tol)
        with pytest.raises(ValueError, match="abs_tol"):
            moments(m, 8, abs_tol=tol)


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


@settings(max_examples=40, deadline=None)
@given(c=st.floats(0.1, 10.0), gamma=st.floats(0.1, 5.0),
       n=st.integers(0, 2 ** 15), share=st.floats(0.0, 1.0),
       tol=st.floats(1e-12, 1e-8))
def test_power_density_meets_the_beta_integral_on_graded_panels(
        c, gamma, n, share, tol):
    # c (1 - t)**(gamma - 1 - rho) against t**n is c B(n + 1, gamma - rho).
    # A decay gamma - rho >= 0.1 keeps the u-cutoff below 400, and the
    # tolerance stays ten times above the kernel's own rounding: t**n
    # carries (n + 1) 2**-53 of relative error, on a mass c / (gamma - rho).
    rho = share * (gamma - 0.1)
    decay = gamma - rho
    tol = max(tol, 10.0 * (n + 1) * 2.0 ** -53 * c / decay)
    value = PowerLogDensity(c, gamma).integrate(lambda t: t ** n, tol,
                                                r_exp=rho)
    with mpmath.workdps(30):
        exact = float(c * mpmath.beta(n + 1, decay))
    assert abs(value - exact) <= tol


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


def _densities_asked(m, mp, compute=True):
    """``{caller: (tol, [tolerance asked of each density])}`` for each
    caller that integrates against ``m``, from spies on every component's
    ``integrate`` and ``moments``; with ``compute`` false the spies return
    zeros in place of the integral or the moments."""
    asked = []
    for cls in (PointMass, PowerLogDensity, TabulatedDensity):
        for name in ("integrate", "moments"):
            def spy(self, arg, tol, *, original=getattr(cls, name), name=name,
                    **kwargs):
                asked.append((type(self).__name__, tol))
                if compute:
                    return original(self, arg, tol, **kwargs)
                return 0.0 if name == "integrate" else np.zeros(arg + 1)
            mp.setattr(cls, name, spy)
    f = log_series(16)
    callers = {
        "moment": (1e-12, lambda: moment(m, 3)),
        "integral route": (
            1e-12, lambda: cesaro_like_integral_eval(m, f, 0.5)),
        "derivative route": (
            1e-12, lambda: cesaro_like_derivative_eval(m, f, 0.5j)),
        "carleson_integral": (
            1e-10, lambda: carleson_integral(m, 0.5, CarlesonParams(1.0))),
        "moments": (1e-10, lambda: moments(m, 64, abs_tol=1e-10)),
    }
    out = {}
    for caller, (tol, call) in callers.items():
        asked.clear()
        call()
        out[caller] = (tol, [t for kind, t in asked if kind != "PointMass"])
    return out


def test_an_atom_takes_no_share_of_a_kernel_integral(monkeypatch):
    # an atom's part is a closed form, so the power-log density of
    # mix_atom_power is asked for each caller's full tolerance
    m = load_builtin_measure("mix_atom_power")
    for caller, (tol, densities) in _densities_asked(m, monkeypatch).items():
        assert densities == [tol], caller


def test_two_densities_share_every_kernel_integral(monkeypatch):
    # carleson_integral too: each density gets half of its 1e-10, so the
    # two parts together meet the tolerance its docstring states
    m = measure_from_dict({"components": [
        {"kind": "power_log", "c": 0.5, "gamma": 1.0},
        {"kind": "table", "x": [0, 0.5, 0.8, 0.95], "v": [0.2, 1, 1.2, 0]}]})
    for caller, (tol, densities) in _densities_asked(m, monkeypatch).items():
        assert densities == [tol / 2, tol / 2], caller


@settings(max_examples=40, deadline=None)
@given(components=st.lists(_COMPONENTS, min_size=1, max_size=4))
def test_the_densities_split_each_tolerance_equally(components):
    m = measure_from_dict({"components": components})
    count = sum(spec["kind"] != "point" for spec in components)
    with pytest.MonkeyPatch.context() as mp:
        asked = _densities_asked(m, mp, compute=False)
    for caller, (tol, densities) in asked.items():
        share = tol / count if count else tol
        assert densities == [share] * count, caller
