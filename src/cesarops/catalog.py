"""Built-in measure and function fixtures.

The catalogs are shipped as JSON spec files (``data/measures`` and
``data/functions``) rather than hardcoded constructors, so command-line
runs, tests, and documentation all exercise the same parsing path and
share the same fixtures.
"""

from __future__ import annotations

import json
import os
from importlib import resources

from cesarops.measure import RadialMeasure, measure_from_dict
from cesarops.series import PowerSeries, function_from_dict

__all__ = [
    "CATALOG_MEASURES",
    "builtin_measure_names",
    "builtin_function_names",
    "load_builtin_measure",
    "catalog_measures",
    "resolve_measure",
    "resolve_function",
]

#: the six measures used by catalog-wide experiments, in a fixed order
CATALOG_MEASURES = (
    "lebesgue",
    "power_half",
    "power_two",
    "log_one",
    "atom09",
    "mix_atom_power",
)


def _data_dir(kind: str):
    return resources.files("cesarops").joinpath("data", kind)


def _list_names(kind: str):
    names = []
    for entry in _data_dir(kind).iterdir():
        if entry.name.endswith(".json"):
            names.append(entry.name[:-5])
    return tuple(sorted(names))


def builtin_measure_names():
    """Names accepted by :func:`load_builtin_measure`."""
    return _list_names("measures")


def builtin_function_names():
    """Builtin names accepted by :func:`resolve_function`."""
    return _list_names("functions")


def _load_json(kind: str, name: str) -> dict:
    path = _data_dir(kind).joinpath(name + ".json")
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise KeyError("no builtin %s named %r (available: %s)"
                       % (kind[:-1], name, ", ".join(_list_names(kind))))
    return json.loads(text)


def load_builtin_measure(name: str) -> RadialMeasure:
    return measure_from_dict(_load_json("measures", name))


def catalog_measures() -> dict:
    """The standard six-measure catalog, name -> measure."""
    return {name: load_builtin_measure(name) for name in CATALOG_MEASURES}


def _resolve(kind: str, spec: str) -> dict:
    """The JSON spec behind a file path or a builtin name of ``kind``.

    An existing file wins; otherwise the name (with or without the
    ``.json`` suffix) is looked up among the builtins.
    """
    if not os.path.exists(spec):
        return _load_json(kind, spec[:-5] if spec.endswith(".json") else spec)
    with open(spec, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError("invalid JSON in %s: %s" % (spec, exc)) from exc


def resolve_measure(spec: str) -> RadialMeasure:
    """Load a measure from a file path or a builtin name."""
    return measure_from_dict(_resolve("measures", spec))


def resolve_function(spec: str) -> PowerSeries:
    """Load a power series from a file path or a builtin name."""
    return function_from_dict(_resolve("functions", spec))
