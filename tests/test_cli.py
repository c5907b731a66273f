"""Command-line interface, run in-process through ``main(argv)``.

Covers each subcommand's happy path, the output-file path, the exit
code contract (0 success, 2 input error, 3 numerical failure), and byte
determinism of repeated runs.
"""

import json

import pytest

from cesarops.cli import main


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


def test_classify_ladder_csv(capsys, tmp_path):
    target = tmp_path / "ladders.csv"
    code, out, _ = run(capsys, "classify", "--measure", "atom09",
                       "--n-max", "1024", "--out", str(target))
    assert code == 0 and out == ""
    text = target.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "criterion,index,grid,value"
    criteria = {line.split(",")[0] for line in lines[1:]}
    assert "tail" in criteria and "moments" in criteria
    assert any(c.startswith("integral ray") for c in criteria)


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


def test_bad_parameters_are_an_input_error(capsys):
    code, _, err = run(capsys, "classify", "--measure", "lebesgue",
                       "--s", "0.0")
    assert code == 2 and "error" in err


def test_unwritable_output_is_an_input_error(capsys, tmp_path):
    target = tmp_path / "missing_dir" / "out.csv"
    code, _, _ = run(capsys, "moments", "--measure", "lebesgue",
                     "--n-max", "4", "--out", str(target))
    assert code == 2


def test_missing_required_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["moments"])
    assert info.value.code == 2
    capsys.readouterr()


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
