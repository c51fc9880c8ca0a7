import hashlib
import json
import math

import numpy as np
import pytest

from bellsim import cli
from bellsim.behaviors import Behavior, pr_box
from bellsim.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, EXIT_RUNTIME, main
from bellsim.core import CounterfactualTable, project_bundle
from bellsim.fileio import read_bundle_csv, write_behavior, write_bundle_csv
from bellsim.quantum import TSIRELSON_BOUND, random_density_matrix, singlet
from bellsim.rng import MAX_SAMPLE_SIZE


def digest_tree(root):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(root.iterdir())
    }


def run_twice_identical(argv_template, tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(argv_template + ["--out", str(out1)]) == EXIT_OK
    assert main(argv_template + ["--out", str(out2)]) == EXIT_OK
    return digest_tree(out1) == digest_tree(out2)


# Context (1,1) has probabilities but no pairs; the other three hold PR-box counts.
EMPTY_CONTEXT_BEHAVIOR = "".join(f"context {i} {j} = 0.25 0.25 0.25 0.25\n" for i in (1, 2) for j in (1, 2)) + (
    "counts 1 1 = 0 0 0 0\ncounts 1 2 = 5 0 0 5\ncounts 2 1 = 5 0 0 5\ncounts 2 2 = 0 5 5 0\n"
)


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
        lines = [f"{v.real!r} {v.imag!r}\n" for v in singlet().matrix.reshape(-1).tolist()]
        rho_file.write_text("".join(lines))
        out = tmp_path / "out"
        code = main(["simulate-quantum", "--rho", str(rho_file), "--n", "50", "--seed", "1",
                     "--out", str(out)])
        assert code == EXIT_OK

    def test_byte_identical_rerun(self, tmp_path):
        argv = ["simulate-quantum", "--state", "singlet", "--n", "200", "--seed", "9"]
        assert run_twice_identical(argv, tmp_path)

    @pytest.mark.parametrize("seed", [3, 8, 21])
    @pytest.mark.parametrize("state", ["singlet", "rho"])
    def test_photon_is_spin_at_doubled_angles(self, tmp_path, state, seed):
        """--convention photon --angles X samples and reports what --convention spin --angles 2X does."""
        state_args = ["--state", "singlet"]
        if state == "rho":
            rho_file = tmp_path / "rho.txt"
            matrix = random_density_matrix(np.random.default_rng(5)).matrix
            rho_file.write_text("".join(f"{v.real!r} {v.imag!r}\n" for v in matrix.reshape(-1).tolist()))
            state_args = ["--rho", str(rho_file)]
        angles = np.random.default_rng(seed).uniform(-math.pi, math.pi, size=4).tolist()
        runs = {}
        for convention, given in (("photon", angles), ("spin", [2.0 * a for a in angles])):
            out = tmp_path / convention
            argv = ["simulate-quantum", *state_args, "--convention", convention,
                    "--angles", *map(repr, given), "--n", "60", "--seed", str(seed), "--out", str(out)]
            assert main(argv) == EXIT_OK
            # the spec, and with it the spec hash, records the convention and the angles as given
            lines = (out / "bundle.csv").read_text().splitlines()
            runs[convention] = ([line for line in lines if not line.startswith("# spec-hash")],
                                json.loads((out / "summary.json").read_text()))
            assert runs[convention][1]["spec"]["angles"] == given
        (photon_rows, photon), (spin_rows, spin) = runs["photon"], runs["spin"]
        assert photon_rows == spin_rows
        for key in ("s_hat", "standard_error", "exact_s", "tsirelson_margin"):
            assert photon[key] == spin[key]

    def test_photon_angle_overflow_is_config_error(self, tmp_path, capsys):
        code = main(["simulate-quantum", "--convention", "photon", "--angles", "1e308", "0", "0", "0",
                     "--n", "10", "--seed", "1", "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "configuration error: angles a1, a2, b1, b2 must be finite" in capsys.readouterr().err


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

    def test_slack_at_distribution_level_is_config_error(self, tmp_path, capsys):
        box_file = tmp_path / "box.txt"
        write_behavior(box_file, pr_box())
        out = tmp_path / "out"
        code = main(["feasibility", "--behavior", str(box_file), "--level", "distribution",
                     "--slack", "3", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "--slack" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("slack", ["3", "20"])
    def test_empty_context_count_table_is_config_error(self, tmp_path, capsys, slack):
        behavior_file = tmp_path / "empty.behavior"
        behavior_file.write_text(EMPTY_CONTEXT_BEHAVIOR)
        out = tmp_path / "out"
        code = main(["feasibility", "--behavior", str(behavior_file), "--level", "counts",
                     "--slack", slack, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "empty count table in context (1,1)" in capsys.readouterr().err
        assert not out.exists()


class TestRuntimeExit:
    """A NumericError, an OSError from the output directory and a MemoryError end the run with exit 1."""

    def test_unresolved_counts_are_runtime_error(self, tmp_path, capsys):
        # N = 10**16 per context: float64 no longer resolves the counts, so the rounded vertex misses them
        counts = np.array([
            [6784289675738202, 518988682217997, 1567727383978802, 1128994258064999],
            [6312058455973871, 991219901982328, 1323832876503324, 1372888765540477],
            [7093086512332160, 944106569705221, 1258930547384844, 703876370577775],
            [6998917778655067, 1038275303382314, 636973553822128, 1325833364140491],
        ])
        behavior_file = tmp_path / "big.behavior"
        write_behavior(behavior_file, Behavior(counts / counts.sum(axis=1, keepdims=True), counts))
        code = main(["feasibility", "--behavior", str(behavior_file), "--level", "counts",
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err == "bellsim: runtime error: rounded LP vertex does not reproduce the count tables\n"

    def test_out_naming_a_file_is_runtime_error(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        code = main(["simulate-lhv", "--variant", "deterministic", "--outcomes", "1", "1", "1", "1",
                     "--n", "5", "--seed", "1", "--out", str(out)])
        assert code == EXIT_RUNTIME
        assert "File exists" in capsys.readouterr().err

    # 2**50 pairs need 8 PiB of uniforms, beyond any x86-64 address space, so the
    # allocation fails at once and touches no memory; numpy cannot even represent
    # an (n, 4) float64 array of 2**62 rows, so that n is a configuration error
    @pytest.mark.parametrize("n", [2**50, 2**62])
    @pytest.mark.parametrize(
        "command",
        [
            ["violation-curve", "--generator", "boundary_mixture", "--trials", "3"],
            ["simulate-lhv", "--variant", "boundary_mixture"],
            ["simulate-quantum", "--state", "singlet"],
            ["weak-bvalues", "--source", "calibrated", "--target-s", "2.5"],
        ],
        ids=["violation-curve", "simulate-lhv", "simulate-quantum", "weak-bvalues"],
    )
    def test_n_beyond_memory_is_one_line(self, tmp_path, capsys, command, n):
        out = tmp_path / "out"
        code = main([*command, "--n", str(n), "--seed", "1", "--out", str(out)])
        err = capsys.readouterr().err
        if n <= MAX_SAMPLE_SIZE:
            assert code == EXIT_RUNTIME
            assert err.startswith("bellsim: runtime error: ")
        else:
            assert code == EXIT_CONFIG
            assert err.startswith("bellsim: configuration error: ") and f"at most {MAX_SAMPLE_SIZE}" in err
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not out.exists()

    def test_memory_error_without_message(self, tmp_path, monkeypatch, capsys):
        def exhausted(args):
            raise MemoryError

        monkeypatch.setattr(cli, "cmd_simulate_lhv", exhausted)
        argv = ["simulate-lhv", "--variant", "boundary_mixture", "--n", "5", "--seed", "1", "--out", str(tmp_path)]
        assert main(argv) == EXIT_RUNTIME
        assert capsys.readouterr().err == "bellsim: runtime error: out of memory\n"


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


class TestParserReuse:
    """main builds its parser once per process and looks each subcommand up when it is called."""

    @pytest.fixture
    def fresh_parser(self):
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()  # later tests get a parser built by the real build_parser

    def test_one_build_per_process(self, tmp_path, monkeypatch, fresh_parser):
        real_build_parser, builds = cli.build_parser, []

        def counting_build_parser():
            builds.append(None)
            return real_build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        box_file = tmp_path / "box.txt"
        write_behavior(box_file, pr_box())
        assert main(["feasibility", "--behavior", str(box_file), "--out", str(tmp_path / "f")]) == EXIT_INFEASIBLE
        assert main(["simulate-lhv", "--variant", "boundary_mixture", "--n", "5", "--seed", "1",
                     "--out", str(tmp_path / "s")]) == EXIT_OK
        assert main(["weak-bvalues", "--source", "calibrated", "--target-s", "2.0", "--n", "5",
                     "--seed", "1", "--out", str(tmp_path / "w")]) == EXIT_OK
        assert len(builds) == 1

    def test_rebound_command_is_the_one_run(self, tmp_path, monkeypatch):
        box_file = tmp_path / "box.txt"
        write_behavior(box_file, pr_box())
        argv = ["feasibility", "--behavior", str(box_file), "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_INFEASIBLE  # the parser is cached from here on
        seen = []

        def fake_feasibility(args):
            seen.append(args.subcommand)
            return EXIT_OK

        monkeypatch.setattr(cli, "cmd_feasibility", fake_feasibility)
        assert main(argv) == EXIT_OK
        assert seen == ["feasibility"]

    def test_spec_values_do_not_reach_the_next_call(self, tmp_path, capsys):
        spec = tmp_path / "study.txt"
        spec.write_text("trials = 3\nseed = 4\n")
        flags = ["violation-curve", "--generator", "boundary_mixture", "--n", "10", "20"]
        assert main([*flags, "--spec", str(spec), "--out", str(tmp_path / "spec")]) == EXIT_OK
        capsys.readouterr()
        out = tmp_path / "flags"
        assert main([*flags, "--out", str(out)]) == EXIT_CONFIG
        assert "--trials is required" in capsys.readouterr().err
        assert not out.exists()


class TestConfigErrorPaths:
    """Configuration errors found after parsing exit 2 with their message and write no output."""

    CURVE = ["violation-curve", "--n", "10", "--trials", "2", "--seed", "1"]

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            ([*CURVE, "--generator", "model"], "--generator model needs --model FILE"),
            ([*CURVE, "--generator", "behavior"], "--generator behavior needs --behavior FILE"),
            (["feasibility", "--behavior", "{box}", "--level", "counts"],
             "count-level feasibility needs counts"),
        ],
        ids=["model-without-file", "behavior-without-file", "counts-without-counts"],
    )
    def test_exit_2_without_output(self, tmp_path, capsys, argv, message):
        box_file = tmp_path / "box.txt"
        write_behavior(box_file, pr_box())  # probabilities only: no counts lines
        out = tmp_path / "out"
        argv = [arg.format(box=box_file) for arg in argv]
        assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()
