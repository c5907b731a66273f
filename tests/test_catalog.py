"""Packaged measure/function data: listing, loading, and resolution."""

import json

import numpy as np
import pytest

from cesarops.catalog import (
    CATALOG_MEASURES,
    builtin_function_names,
    builtin_measure_names,
    catalog_measures,
    load_builtin_measure,
    resolve_function,
    resolve_measure,
)
from cesarops.measure import RadialMeasure, total_mass
from cesarops.series import PowerSeries


def test_measure_names_are_sorted_and_complete():
    names = builtin_measure_names()
    assert names == tuple(sorted(names))
    assert set(CATALOG_MEASURES) <= set(names)
    assert "hat_table" in names  # packaged but outside the catalog


def test_catalog_order_is_stable():
    cat = catalog_measures()
    assert tuple(cat) == CATALOG_MEASURES
    assert tuple(cat) == ("lebesgue", "power_half", "power_two", "log_one",
                          "atom09", "mix_atom_power")


def test_every_builtin_measure_loads():
    for name in builtin_measure_names():
        m = load_builtin_measure(name)
        assert isinstance(m, RadialMeasure)
        assert total_mass(m) > 0.0


def test_every_builtin_function_loads():
    names = builtin_function_names()
    assert "ones" in names and "log_series" in names
    for name in names:
        f = resolve_function(name)
        assert isinstance(f, PowerSeries)


def test_unknown_names_raise_key_error():
    with pytest.raises(KeyError):
        load_builtin_measure("no_such_measure")
    with pytest.raises(KeyError):
        resolve_function("no_such_function")


def test_resolution_prefers_existing_files(tmp_path):
    spec = tmp_path / "lebesgue"  # shadows the builtin name on purpose
    spec.write_text(json.dumps(
        {"components": [{"kind": "point", "w": 2.0, "t0": 0.5}]}))
    m = resolve_measure(str(spec))
    assert total_mass(m) == pytest.approx(2.0)


def test_function_resolution_reads_json_files(tmp_path):
    f = PowerSeries([0.5, -1.0 + 2.0j, 0.25j])
    spec = tmp_path / "f.json"
    spec.write_text(json.dumps({"coeffs_re": [0.5, -1.0, 0.0],
                                "coeffs_im": [0.0, 2.0, 0.25]}))
    assert np.array_equal(resolve_function(str(spec)).coeffs, f.coeffs)


def test_resolution_falls_back_to_builtins(tmp_path):
    m = resolve_measure("atom09")
    assert total_mass(m) == pytest.approx(1.0)
    assert resolve_measure("atom09.json").components == m.components
    f = resolve_function("identity")
    assert f.coeffs[1] == 1.0
    with pytest.raises(KeyError):
        resolve_measure(str(tmp_path / "missing.json"))
