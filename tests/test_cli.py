"""Command-line interface, run in-process through ``main(argv)``.

Covers each subcommand's happy path, the output-file path, the exit
code contract (0 success, 2 input error, 3 numerical failure), and byte
determinism of repeated runs.
"""

import json
import math
import os
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cesarops.cli import _dump_json, _fmt, main
from cesarops.series import FunctionSpecError, function_from_dict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ moments


def test_moments_csv_on_stdout(capsys):
    code, out, _ = run(capsys, "moments", "--measure", "lebesgue",
                       "--n-max", "16")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,mu_n,tol"
    assert len(lines) == 18
    row3 = lines[4].split(",")
    assert int(row3[0]) == 3
    assert float(row3[1]) == pytest.approx(0.25, abs=1e-12)


def test_moments_to_file_and_atom_values(capsys, tmp_path):
    target = tmp_path / "mu.csv"
    code, out, _ = run(capsys, "moments", "--measure", "atom09",
                       "--n-max", "8", "--out", str(target))
    assert code == 0 and out == ""
    rows = target.read_text().strip().splitlines()
    last = rows[-1].split(",")
    assert int(last[0]) == 8
    assert float(last[1]) == pytest.approx(0.9 ** 8, rel=1e-15)


def test_moments_are_deterministic(capsys):
    _, first, _ = run(capsys, "moments", "--measure", "mix_atom_power",
                      "--n-max", "32")
    _, second, _ = run(capsys, "moments", "--measure", "mix_atom_power",
                       "--n-max", "32")
    assert first == second


# -------------------------------------------------------------------- apply


def test_apply_lebesgue_to_ones_gives_harmonic_coefficients(capsys):
    code, out, _ = run(capsys, "apply", "--measure", "lebesgue",
                       "--function", "ones", "--n-max", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,re,im"
    assert len(lines) == 10  # constant input zero-padded up to n = 8
    for n, line in enumerate(lines[1:]):
        _, re, im = line.split(",")
        assert float(re) == pytest.approx(1.0 / (n + 1.0), rel=1e-12)
        assert float(im) == 0.0


# ----------------------------------------------------------------- classify


def test_classify_reports_the_three_way_verdict(capsys):
    code, out, _ = run(capsys, "classify", "--measure", "lebesgue",
                       "--n-max", "1024")
    assert code == 0
    data = json.loads(out)
    assert data["per_criterion"] == {"tail": "finite-looking",
                                     "moments": "finite-looking",
                                     "integral": "finite-looking"}
    assert data["agreement"] is True
    assert data["s"] == 1.0 and data["alpha"] == 0.0


def test_classify_integral_of_a_heavy_atom_does_not_overflow(capsys,
                                                             tmp_path):
    # The Carleson tolerance was once scaled by the mass times the
    # kernel's supremum, which overflows to inf at w = 1e300; the integral
    # criterion then read "diverging" where it reads "vanishing" at w = 1.
    for w in (1.0, 1e300):
        spec = tmp_path / "atom.json"
        spec.write_text(json.dumps(
            {"components": [{"kind": "point", "w": w, "t0": 0.5}]}))
        code, out, _ = run(capsys, "classify", "--measure", str(spec),
                           "--s", "1", "--alpha", "1")
        assert code == 0
        assert json.loads(out)["per_criterion"]["integral"] == "vanishing"


def test_classify_at_a_large_log_order_reads_diverging(capsys):
    # log(e/(1-t))**400 is beyond the float range from t = 1 - 2**-8 on;
    # the criteria once raised OverflowError there (exit 3).
    code, out, err = run(capsys, "classify", "--measure", "lebesgue",
                         "--s", "1", "--alpha", "400")
    assert code == 0, err
    assert set(json.loads(out)["per_criterion"].values()) == {"diverging"}


def _peak_and_terminal_are_read_off_the_ladder(criterion):
    values = criterion["values"]
    if values:
        assert criterion["peak"] == max(values)
        assert criterion["terminal"] == values[-1]
    else:
        assert math.isnan(criterion["peak"])
        assert math.isnan(criterion["terminal"])


def test_classify_reads_peak_and_terminal_off_each_ladder(capsys):
    code, out, _ = run(capsys, "classify", "--measure", "lebesgue",
                       "--n-max", "1024")
    assert code == 0
    criteria = json.loads(out)["criteria"]
    assert len(criteria) == 3 and all(c["values"] for c in criteria)
    for criterion in criteria:
        _peak_and_terminal_are_read_off_the_ladder(criterion)


def test_classify_with_a_refused_lead_probe_keeps_an_empty_ladder(
        capsys, tmp_path):
    # the lead probe (r_exp = 0) decays at the rate gamma = 0.1 only and
    # refuses its u-cutoff at the deep rungs; the other two probes
    # (r_exp = 1/2 > gamma) read inf and label the integral criterion
    spec = tmp_path / "slow.json"
    spec.write_text(json.dumps({"components": [
        {"kind": "power_log", "c": 1, "gamma": 0.1}]}))
    code, out, err = run(capsys, "classify", "--measure", str(spec),
                         "--s", "1", "--alpha", "0")
    assert code == 0, err
    criteria = json.loads(out)["criteria"]
    for criterion in criteria:
        _peak_and_terminal_are_read_off_the_ladder(criterion)
    integral = criteria[2]
    assert integral["label"] == "diverging" and integral["values"] == []
    assert all(math.isnan(integral[key])
               for key in ("slope", "peak", "terminal"))


def test_classify_ladder_csv(capsys, tmp_path):
    target = tmp_path / "ladders.csv"
    code, out, _ = run(capsys, "classify", "--measure", "atom09",
                       "--n-max", "1024", "--out", str(target))
    assert code == 0 and out == ""
    text = target.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "criterion,index,grid,value"
    criteria = {line.split(",")[0] for line in lines[1:]}
    # the integral probes profile the real ray alone: no per-ray rows
    assert criteria == {"tail", "moments", "integral",
                        "integral probe t_exp=1 r_exp=0",
                        "integral probe t_exp=1 r_exp=0.5",
                        "integral probe t_exp=2 r_exp=0.5"}


def test_non_finite_values_print_as_json_tokens(capsys, tmp_path):
    # the atom's three ladders all vanish, and a vanishing fit has no slope
    code, out, _ = run(capsys, "classify", "--measure", "atom09", "--s", "1",
                       "--n-max", "1024", "--ladder-depth", "8")
    assert code == 0 and '"slope": NaN' in out
    slopes = [c["slope"] for c in json.loads(out)["criteria"]]
    assert slopes and all(s != s for s in slopes)
    # the r_exp = 1/2 probe diverges against the density (1-t)**(-1/2)
    target = tmp_path / "ladders.csv"
    code, _, _ = run(capsys, "classify", "--measure", "power_half",
                     "--s", "1", "--n-max", "1024", "--ladder-depth", "8",
                     "--out", str(target))
    values = [line.rsplit(",", 1)[1]
              for line in target.read_text().splitlines()[1:]]
    assert code == 0 and "Infinity" in values
    assert (_fmt(float("nan")), _fmt(float("inf")), _fmt(float("-inf"))) \
        == ("NaN", "Infinity", "-Infinity")


def _bits(x):
    return "NaN" if math.isnan(x) else struct.pack("<d", x)


@settings(max_examples=300, deadline=None)
@given(x=st.floats(), n=st.integers(-2 ** 63, 2 ** 63 - 1), b=st.booleans())
@example(x=-0.0, n=-2 ** 63, b=False)
@example(x=0.0, n=2 ** 63 - 1, b=True)
@example(x=5e-324, n=0, b=True)
@example(x=-2.2250738585072009e-308, n=-1, b=False)
@example(x=1.7976931348623157e308, n=1, b=True)
@example(x=-math.inf, n=0, b=False)
@example(x=math.inf, n=0, b=True)
@example(x=math.nan, n=0, b=False)
def test_floats_come_back_to_the_bit_from_json_and_csv(x, n, b):
    back = json.loads(_dump_json({"v": [x]}))["v"][0]
    assert _bits(back) == _bits(x) and _bits(float(_fmt(x))) == _bits(x)
    # numpy scalars are written as their Python counterparts
    assert _dump_json([np.float64(x), np.int64(n), np.bool_(b)]) \
        == _dump_json([x, n, b])
    assert _fmt(np.float64(x)) == _fmt(x)


# --------------------------------------------------------------------- norm


def test_norm_bloch_of_identity(capsys):
    code, out, _ = run(capsys, "norm", "--kind", "bloch",
                       "--function", "identity")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == pytest.approx(1.0, abs=1e-12)
    assert data["converged"] is True
    assert data["kind"] == "bloch"


def test_norm_besov_and_growth(capsys):
    code, out, _ = run(capsys, "norm", "--kind", "besov",
                       "--function", "identity", "--p", "2.0")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(1.0, abs=1e-9)

    code, out, _ = run(capsys, "norm", "--kind", "growth",
                       "--function", "identity", "--p", "2.0")
    assert code == 0
    data = json.loads(out)
    assert 0.0 < data["value"] < 1.0


def test_norm_mean_lipschitz(capsys):
    code, out, _ = run(capsys, "norm", "--kind", "mean-lipschitz",
                       "--function", "identity", "--p", "2.0",
                       "--alpha", "0.5")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kind, keys", [
    ("bloch", ["kind", "value", "converged", "refinements", "grid"]),
    ("besov", ["kind", "p", "value", "converged", "refinements", "grid"]),
    ("mean-lipschitz", ["kind", "p", "alpha", "value", "converged",
                        "refinements", "grid"]),
    ("growth", ["kind", "p", "value"]),
])
def test_norm_payload_keys_in_order(capsys, kind, keys):
    code, out, _ = run(capsys, "norm", "--kind", kind,
                       "--function", "identity")
    assert code == 0
    assert list(json.loads(out)) == keys


@pytest.mark.parametrize("function, kind", [
    ("identity", "besov"),          # was a numerical failure
    ("identity", "growth"),         # was a numerical failure
    ("test09", "mean-lipschitz"),   # was a numerical failure
    ("identity", "mean-lipschitz"),  # printed the value 1
])
def test_infinite_p_is_an_input_error(capsys, function, kind):
    code, out, err = run(capsys, "norm", "--function", function,
                         "--kind", kind, "--p", "inf")
    assert code == 2 and out == ""
    assert "p < inf" in err


@pytest.mark.parametrize("spec, message", [
    ([0.0, 1.0], "must be an object"),
    ({"coeffs": [0.0, 1.0]}, "needs 'coeffs_re' or 'builtin'"),
    ({"coeffs_re": [0.0, 1.0], "coeffs_im": [1.0]}, "lengths differ"),
    ({"builtin": "identity"},   # the packaged identity.json replaces it
     "expected one of log_one_over_one_minus_z, test_function"),
    # a degree that is not a JSON integer was truncated, or read from a bool
    ({"builtin": "log_one_over_one_minus_z", "degree": 16.9},
     "'degree' must be an integer >= 1, got 16.9"),
    ({"builtin": "log_one_over_one_minus_z", "degree": True},
     "'degree' must be an integer >= 1, got True"),
    ({"builtin": "log_one_over_one_minus_z", "degree": "16"},
     "'degree' must be an integer >= 1, got '16'"),
    # strings and bools were coerced to numbers, and unknown keys skipped
    ({"coeffs_re": "12"}, "'12' is not a number"),
    ({"coeffs_re": [1, 2], "coeffs_im": [True, False]},
     "True is not a number"),
    ({"builtin": "test_function", "t": "0.5", "p": "2", "degree": 4},
     "'0.5' is not a number"),
    ({"builtin": "test_function", "t": 0.5, "p": 2, "degree": 4, "tt": 1},
     "unknown key 'tt' in builtin 'test_function'"),
])
def test_malformed_function_spec_is_an_input_error(capsys, tmp_path, spec,
                                                    message):
    with pytest.raises(FunctionSpecError, match=re.escape(message)):
        function_from_dict(spec)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "norm", "--function", str(path))
    assert code == 2 and out == "" and message in err


# ------------------------------------------------------------------- verify


def test_verify_short_ladder_is_honestly_inconclusive(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "boundedness",
                       "--measure", "atom09", "--ladder-depth", "4")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "inconclusive"
    assert len(data["ladder"]) == 4
    assert set(data["ladder"][0]) == {"t", "ratio", "bloch_ratio"}
    assert data["lower_bound"][0]["N"] == 4


@pytest.mark.parametrize("theorem", ["boundedness", "compactness"])
@pytest.mark.parametrize("depth", ["0", "3"])
def test_verify_ladder_shorter_than_four_rungs_is_an_input_error(
        capsys, theorem, depth):
    # the decay exponent fits the last four rungs of the ladder
    code, out, err = run(capsys, "verify", "--theorem", theorem,
                         "--measure", "atom09", "--ladder-depth", depth)
    assert code == 2 and out == ""
    assert "ladder_depth >= 4" in err


@pytest.mark.parametrize("theorem", ["boundedness", "compactness"])
@pytest.mark.parametrize("s", ["inf", "nan"])
def test_verify_non_finite_s_is_an_input_error(capsys, theorem, s):
    # --s inf once ran the whole moment batch, then failed in the mean
    # Lipschitz norm with a message about p
    code, out, err = run(capsys, "verify", "--theorem", theorem,
                         "--measure", "atom09", "--s", s)
    assert code == 2 and out == ""
    assert "requires 1 < s < inf, got s = %s" % s in err


@pytest.mark.parametrize("argv", [
    ("classify", "--measure", "lebesgue"),
    ("verify", "--theorem", "compactness", "--measure", "atom09"),
])
def test_ladder_deeper_than_53_is_an_input_error(capsys, argv):
    # 1 - 2**-54 rounds to 1.0; this used to surface as a domain error
    # of carleson_quotient or of the test function
    code, out, err = run(capsys, *argv, "--ladder-depth", "54")
    assert code == 2 and out == ""
    assert "ladder depth 54 is outside 0..53" in err


def test_verify_reports_the_classify_verdict(capsys):
    # at p = 2 the classifier runs at (s, alpha) = (1, 1/q) = (1, 0.5)
    code, out, _ = run(capsys, "verify", "--theorem", "boundedness",
                       "--measure", "lebesgue", "--ladder-depth", "4")
    assert code == 0
    block = json.loads(out)["classifier"]
    code, out, _ = run(capsys, "classify", "--measure", "lebesgue",
                       "--s", "1", "--alpha", "0.5")
    assert code == 0
    verdict = json.loads(out)
    for key in ("s", "alpha", "criteria"):
        del verdict[key]
    # dumped again so that NaN compares equal and key order counts
    assert json.dumps(block) == json.dumps(verdict)


def test_verify_agreement_matrix_over_the_catalog(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "proposition21")
    assert code == 0
    data = json.loads(out)
    assert len(data["entries"]) == 24
    assert data["n_conclusive"] == data["n_agree"]
    assert data["agreement_rate"] == 1.0


# --------------------------------------------------------------- exit codes


def test_unknown_measure_is_an_input_error(capsys):
    code, _, err = run(capsys, "moments", "--measure", "no_such_measure")
    assert code == 2
    assert "no_such_measure" in err


@pytest.mark.parametrize("flag", ["--t-exp", "--r-exp"])
def test_classify_rejects_the_removed_exponent_flags(capsys, flag):
    with pytest.raises(SystemExit) as info:
        main(["classify", "--measure", "lebesgue", flag, "0.5"])
    assert info.value.code == 2
    assert "unrecognized arguments: %s" % flag in capsys.readouterr().err


def test_classify_rejects_the_removed_variant_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["classify", "--measure", "lebesgue", "--variant", "iii"])
    assert info.value.code == 2
    assert "unrecognized arguments: --variant" in capsys.readouterr().err


def test_bad_parameters_are_an_input_error(capsys):
    code, _, err = run(capsys, "classify", "--measure", "lebesgue",
                       "--s", "0.0")
    assert code == 2 and "error" in err


def test_unwritable_output_is_an_input_error(capsys, tmp_path):
    target = tmp_path / "missing_dir" / "out.csv"
    code, _, _ = run(capsys, "moments", "--measure", "lebesgue",
                     "--n-max", "4", "--out", str(target))
    assert code == 2


def test_failed_write_leaves_no_partial_file(capsys, tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    code, out, err = run(capsys, "moments", "--measure", "lebesgue",
                         "--n-max", "4", "--out", str(tmp_path / "m.csv"))
    assert code == 2 and out == "" and "replace refused" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["norm", "apply"])
def test_allocation_failure_is_an_input_error(capsys, monkeypatch, command):
    # a builtin degree too large to allocate fails in resolve_function
    def refuse(spec):
        raise MemoryError("Unable to allocate 1.46 TiB")

    monkeypatch.setattr("cesarops.cli.resolve_function", refuse)
    argv = (command, "--function", "log_series")
    if command == "apply":
        argv += ("--measure", "lebesgue")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: Unable to allocate 1.46 TiB\n"


@pytest.mark.parametrize("argv", [
    ("moments", "--measure"),
    ("norm", "--function"),
])
def test_malformed_json_file_is_an_input_error(capsys, tmp_path, argv):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: invalid JSON in %s: " % path)


def test_misspelled_measure_key_is_an_input_error(capsys, tmp_path):
    # read as beta = 0, this measure was classified "diverging" at exit 0
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"components": [
        {"kind": "power_log", "c": 1.0, "gamma": 1.0, "bta": 1.0}]}))
    code, out, err = run(capsys, "classify", "--measure", str(path),
                         "--s", "1", "--alpha", "1")
    assert code == 2 and out == ""
    assert "unknown key 'bta' in power_log component" in err


@pytest.mark.parametrize("components", [
    [{"kind": "point", "w": 1e308, "t0": 0.5},
     {"kind": "point", "w": 1e308, "t0": 0.25}],
    [{"kind": "power_log", "c": 1e308, "gamma": 1e-10}],
], ids=["two-atoms", "power-log"])
@pytest.mark.parametrize("argv", [
    ("moments", "--n-max", "4"),
    ("classify", "--s", "1", "--alpha", "1"),
], ids=["moments", "classify"])
def test_infinite_total_mass_is_an_input_error(capsys, tmp_path, components,
                                               argv):
    # the atoms printed mu_0 = Infinity at exit 0, the power-log density
    # failed at exit 3 on an infinite u-cutoff
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"components": components}))
    code, out, err = run(capsys, argv[0], "--measure", str(path), *argv[1:])
    assert code == 2 and out == ""
    assert "measure must have positive, finite total mass" in err


@pytest.mark.parametrize("argv, template, message", [
    (("moments", "--measure"),
     '{"components": [{"kind": "point", "w": %s, "t0": 0.5}]}',
     "point component: an integer beyond the float range"),
    (("norm", "--function"), '{"coeffs_re": [1, %s]}',
     "coefficient spec: an integer beyond the float range"),
], ids=["measure", "function"])
def test_integer_beyond_the_float_range_is_an_input_error(
        capsys, tmp_path, argv, template, message):
    # float() of 10**400 raised OverflowError, reported as a numerical
    # failure with exit 3
    path = tmp_path / "huge.json"
    path.write_text(template % ("1" + "0" * 400))
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2 and out == "" and message in err


def test_missing_required_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["moments"])
    assert info.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("measure, tol", [
    ("atom09", "-1"),      # was misreported as negative moments
    ("atom09", "nan"),     # was accepted, printing a NaN tol column
    ("lebesgue", "-1"),    # was misreported as a numerical failure
])
def test_invalid_tolerance_is_an_input_error(capsys, measure, tol):
    code, out, err = run(capsys, "moments", "--measure", measure,
                         "--n-max", "16", "--tol", tol)
    assert code == 2 and out == ""
    assert "abs_tol must be positive and finite" in err


def test_unreachable_tolerance_is_a_numerical_failure(capsys):
    code, _, err = run(capsys, "moments", "--measure", "power_half",
                       "--n-max", "64", "--tol", "1e-30")
    assert code == 3
    assert "numerical failure" in err


def test_truncated_measure_is_a_numerical_failure(capsys, tmp_path):
    spec = tmp_path / "slow.json"
    spec.write_text(json.dumps({"components": [
        {"kind": "power_log", "c": 1.0, "gamma": 0.01, "beta": 0.0}]}))
    code, out, err = run(capsys, "moments", "--measure", str(spec),
                         "--n-max", "16")
    assert code == 3 and out == ""
    assert "numerical failure" in err and "u-cutoff" in err
