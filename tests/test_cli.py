import hashlib
import json
import math

import numpy as np
import pytest

from bellsim.behaviors import pr_box
from bellsim.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, main
from bellsim.core import CounterfactualTable, project_bundle
from bellsim.fileio import read_bundle_csv, write_behavior, write_bundle_csv, write_density
from bellsim.quantum import TSIRELSON_BOUND, singlet


def digest_tree(root):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(root.iterdir())
    }


def run_twice_identical(argv_template, tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(argv_template + ["--out", str(out1)]) == EXIT_OK
    assert main(argv_template + ["--out", str(out2)]) == EXIT_OK
    return digest_tree(out1) == digest_tree(out2)


class TestSimulateLhv:
    def test_deterministic_model_summary(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["simulate-lhv", "--variant", "deterministic", "--outcomes", "1", "1", "1", "1",
             "--n", "50", "--seed", "1", "--out", str(out)]
        )
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["s_hat"] == 2.0
        assert summary["exact_s"] == 2.0
        assert summary["version"] == "0.1.0"
        bundle = read_bundle_csv(out / "bundle.csv")
        assert all(d.n_pairs == 50 for d in bundle.datasets)

    def test_byte_identical_rerun(self, tmp_path):
        argv = ["simulate-lhv", "--variant", "boundary_mixture", "--n", "300", "--seed", "7"]
        assert run_twice_identical(argv, tmp_path)

    def test_sign_cosine_matches_quadrature(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["simulate-lhv", "--variant", "sign_cosine",
             "--angles", "0.0", "1.0", "2.0", "3.0",
             "--n", "20000", "--seed", "3", "--out", str(out)]
        )
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert abs(summary["s_hat"] - summary["exact_s"]) <= 4 * summary["standard_error"]

    def test_model_file_input(self, tmp_path):
        model_file = tmp_path / "model.txt"
        model_file.write_text("variant = boundary_mixture\n")
        out = tmp_path / "out"
        code = main(["simulate-lhv", "--model", str(model_file), "--n", "10", "--seed", "2",
                     "--out", str(out)])
        assert code == EXIT_OK

    def test_missing_model_is_config_error(self, tmp_path):
        code = main(["simulate-lhv", "--n", "10", "--seed", "2", "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG

    def test_seed_is_required(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate-lhv", "--variant", "boundary_mixture", "--n", "10",
                  "--out", str(tmp_path / "x")])
        assert exc.value.code == 2


class TestSimulateQuantum:
    def test_singlet_default_angles(self, tmp_path):
        out = tmp_path / "out"
        code = main(["simulate-quantum", "--state", "singlet", "--n", "100", "--seed", "5",
                     "--out", str(out)])
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["exact_s"] == pytest.approx(-TSIRELSON_BOUND, abs=1e-12)
        assert summary["tsirelson_margin"] == pytest.approx(0.0, abs=1e-12)

    def test_mixed_state_zero(self, tmp_path):
        out = tmp_path / "out"
        code = main(["simulate-quantum", "--state", "mixed", "--n", "100", "--seed", "5",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert json.loads((out / "summary.json").read_text())["exact_s"] == pytest.approx(
            0.0, abs=1e-12
        )

    def test_rho_file_input(self, tmp_path):
        rho_file = tmp_path / "rho.txt"
        write_density(rho_file, singlet())
        out = tmp_path / "out"
        code = main(["simulate-quantum", "--rho", str(rho_file), "--n", "50", "--seed", "1",
                     "--out", str(out)])
        assert code == EXIT_OK

    def test_byte_identical_rerun(self, tmp_path):
        argv = ["simulate-quantum", "--state", "singlet", "--n", "200", "--seed", "9"]
        assert run_twice_identical(argv, tmp_path)


class TestFeasibility:
    def test_pr_box_behavior_infeasible_exit(self, tmp_path):
        box_file = tmp_path / "box.txt"
        write_behavior(box_file, pr_box())
        out = tmp_path / "out"
        code = main(["feasibility", "--behavior", str(box_file), "--out", str(out)])
        assert code == EXIT_INFEASIBLE
        result = json.loads((out / "result.json").read_text())
        assert result["status"] == "infeasible"
        assert result["certificate"]["value"] == pytest.approx(4.0)
        assert result["behavior_s"] == pytest.approx(4.0)

    def test_projected_bundle_feasible_exit(self, tmp_path):
        rng = np.random.default_rng(2)
        table = CounterfactualTable(rng.choice([-1, 1], size=(60, 4)))
        bundle_file = tmp_path / "bundle.csv"
        write_bundle_csv(bundle_file, project_bundle(table))
        out = tmp_path / "out"
        code = main(["feasibility", "--bundle", str(bundle_file), "--out", str(out)])
        assert code == EXIT_OK
        result = json.loads((out / "result.json").read_text())
        assert result["status"] == "feasible"
        assert result["integrality"] == "integer"
        assert len(result["witness_weights"]) == 16

    def test_malformed_file_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a behavior at all\n")
        code = main(["feasibility", "--behavior", str(bad), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG

    def test_missing_input_is_config_error(self, tmp_path):
        code = main(["feasibility", "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG

    def test_distribution_level_on_bundle(self, tmp_path):
        rng = np.random.default_rng(2)
        table = CounterfactualTable(rng.choice([-1, 1], size=(30, 4)))
        bundle_file = tmp_path / "bundle.csv"
        write_bundle_csv(bundle_file, project_bundle(table))
        out = tmp_path / "out"
        code = main(["feasibility", "--bundle", str(bundle_file), "--level", "distribution",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert "integrality" not in json.loads((out / "result.json").read_text())


class TestViolationCurve:
    def test_boundary_curve(self, tmp_path):
        out = tmp_path / "out"
        code = main(["violation-curve", "--generator", "boundary_mixture",
                     "--n", "100", "400", "--trials", "400", "--seed", "3",
                     "--out", str(out)])
        assert code == EXIT_OK
        lines = [
            ln for ln in (out / "curve.csv").read_text().splitlines()
            if ln and not ln.startswith("#")
        ]
        assert lines[0] == "n,trials,frequency,ci_lo,ci_hi,mean_s,sd_s,z"
        rows = [ln.split(",") for ln in lines[1:]]
        assert [int(r[0]) for r in rows] == [100, 400]
        for r in rows:
            assert 0.35 <= float(r[2]) <= 0.65  # near one half at the boundary
        record = json.loads((out / "run.json").read_text())
        assert record["exact_s"] == 2.0

    def test_sub_boundary_curve_decreases(self, tmp_path):
        out = tmp_path / "out"
        code = main(["violation-curve", "--generator", "sign_cosine",
                     "--angles", "0.0", str(math.pi / 20), str(math.pi), str(5 * math.pi / 4),
                     "--n", "100", "4000", "--trials", "500", "--seed", "3",
                     "--out", str(out)])
        assert code == EXIT_OK
        lines = [
            ln for ln in (out / "curve.csv").read_text().splitlines()
            if ln and not ln.startswith("#")
        ]
        freqs = [float(ln.split(",")[2]) for ln in lines[1:]]
        assert freqs[-1] < freqs[0]

    def test_quantum_z_increases(self, tmp_path):
        out = tmp_path / "out"
        code = main(["violation-curve", "--generator", "singlet",
                     "--n", "200", "1600", "--trials", "200", "--seed", "3",
                     "--out", str(out)])
        assert code == EXIT_OK
        lines = [
            ln for ln in (out / "curve.csv").read_text().splitlines()
            if ln and not ln.startswith("#")
        ]
        zs = [float(ln.split(",")[7]) for ln in lines[1:]]
        assert zs[1] > zs[0] > 0

    def test_byte_identical_rerun(self, tmp_path):
        argv = ["violation-curve", "--generator", "boundary_mixture", "--n", "50", "150",
                "--trials", "100", "--seed", "8"]
        assert run_twice_identical(argv, tmp_path)

    def test_study_spec_file(self, tmp_path):
        spec = tmp_path / "study.txt"
        spec.write_text(
            "generator = boundary_mixture\nn = 50 100\ntrials = 80\nseed = 6\n"
        )
        out = tmp_path / "out"
        assert main(["violation-curve", "--spec", str(spec), "--out", str(out)]) == EXIT_OK
        record = json.loads((out / "run.json").read_text())
        assert record["spec"]["n_values"] == [50, 100]
        assert record["spec"]["seed"] == 6
        # identical flags produce identical bytes (the spec round-trips)
        flags_out = tmp_path / "flags"
        assert main(["violation-curve", "--generator", "boundary_mixture", "--n", "50", "100",
                     "--trials", "80", "--seed", "6", "--out", str(flags_out)]) == EXIT_OK
        assert digest_tree(out) == digest_tree(flags_out)

    def test_study_spec_rejects_unknown_keys(self, tmp_path):
        spec = tmp_path / "study.txt"
        spec.write_text("generator = boundary_mixture\nn = 10\ntrials = 5\nseed = 1\nbogus = 2\n")
        assert main(["violation-curve", "--spec", str(spec), "--out", str(tmp_path / "x")]) == EXIT_CONFIG

    def test_missing_required_fields(self, tmp_path):
        spec = tmp_path / "study.txt"
        spec.write_text("generator = boundary_mixture\nn = 10\ntrials = 5\n")
        assert main(["violation-curve", "--spec", str(spec), "--out", str(tmp_path / "x")]) == EXIT_CONFIG


class TestWeakBValues:
    def test_calibrated_exceedance(self, tmp_path):
        out = tmp_path / "out"
        code = main(["weak-bvalues", "--source", "calibrated",
                     "--target-s", repr(TSIRELSON_BOUND), "--n", "10000", "--seed", "2",
                     "--out", str(out)])
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["exceedance_tsirelson"] == pytest.approx(0.5, abs=0.02)
        assert "no counterfactual table" in summary["source_description"]

    def test_lhv_source_noiseless(self, tmp_path):
        out = tmp_path / "out"
        code = main(["weak-bvalues", "--source", "lhv", "--variant", "boundary_mixture",
                     "--n", "500", "--sigma", "0.0", "--seed", "2", "--out", str(out)])
        assert code == EXIT_OK
        values = [
            float(ln.split(",")[5])
            for ln in (out / "records.csv").read_text().splitlines()
            if ln and not ln.startswith("#") and not ln.startswith("trial")
        ]
        assert set(values) <= {-2.0, 2.0}

    def test_lhv_source_mean_matches_reference(self, tmp_path):
        out = tmp_path / "out"
        code = main(["weak-bvalues", "--source", "lhv", "--variant", "boundary_mixture",
                     "--n", "20000", "--sigma", "1.0", "--seed", "2", "--out", str(out)])
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        se = summary["sd_b"] / math.sqrt(20000)
        assert abs(summary["mean_b"] - summary["reference_value"]) <= 4 * se

    def test_missing_target_is_config_error(self, tmp_path):
        code = main(["weak-bvalues", "--source", "calibrated", "--n", "10", "--seed", "1",
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG

    def test_byte_identical_rerun(self, tmp_path):
        argv = ["weak-bvalues", "--source", "calibrated", "--target-s", "2.0",
                "--n", "500", "--seed", "4"]
        assert run_twice_identical(argv, tmp_path)


class TestFloatArguments:
    ANGLES = ["0", "-1e-05", "0.7", "-2.5E-7"]

    @pytest.mark.parametrize(
        ("argv", "record"),
        [
            (["simulate-lhv", "--variant", "sign_cosine", "--n", "20", "--seed", "1"], "run.json"),
            (["simulate-quantum", "--state", "singlet", "--n", "20", "--seed", "1"], "run.json"),
            (["violation-curve", "--generator", "singlet", "--n", "10", "--trials", "3",
              "--seed", "1"], "run.json"),
            (["weak-bvalues", "--source", "lhv", "--variant", "sign_cosine", "--n", "20",
              "--seed", "1"], "summary.json"),
        ],
        ids=["simulate-lhv", "simulate-quantum", "violation-curve", "weak-bvalues"],
    )
    def test_negative_angles_in_exponent_notation(self, tmp_path, argv, record):
        out = tmp_path / "out"
        assert main([*argv, "--angles", *self.ANGLES, "--out", str(out)]) == EXIT_OK
        spec = json.loads((out / record).read_text())["spec"]
        # the parsed values reach the spec: an 'angles' list, or the LHV model's name
        angles = spec.get("angles") or spec["model"]
        assert "-1e-05" in str(angles) and "-2.5e-07" in str(angles)
