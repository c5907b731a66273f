import warnings

import numpy as np
import pytest

from cesarops.catalog import catalog_measures, load_builtin_measure

# hypothesis explains a failing property through hypothesis.extra._patching,
# whose libcst import warns of the deprecated mypy_extensions.TypedDict.
# Under -W error that warning ends the run in INTERNALERROR instead of the
# falsifying example, so the module is imported once here with the warning
# ignored; without libcst the import fails and hypothesis skips the patch.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@pytest.fixture(scope="session")
def catalog():
    return catalog_measures()


@pytest.fixture(scope="session")
def hat_table():
    return load_builtin_measure("hat_table")


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def random_series(rng, degree, scale=1.0):
    """Random complex polynomial coefficients as a PowerSeries."""
    from cesarops.series import PowerSeries
    coeffs = (rng.standard_normal(degree + 1)
              + 1j * rng.standard_normal(degree + 1)) * scale
    return PowerSeries(coeffs)
