"""Bad input ends in a BellSimError: a ConfigError or DomainError, CLI exit 2.

Covers model files and study specs whose values do not parse as their key's
type, files that are not UTF-8, non-finite behavior and state entries,
repeated behavior-file lines, sample sizes that are not positive integers,
study settings (trials, threshold, slack) out of range or of the wrong type,
non-numeric angles and pointer settings, and b-values whose mean or sd
overflows float64.  No JSON output holds NaN or an infinity.  A context law
that is not a probability vector over +/-1 pairs, a law count other than four,
a CHSH sum of other than four values and a model specification that is not a
mapping are BellSimErrors too.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellsim.behaviors import OUTCOME_PAIRS, Behavior, pr_box, sample_bundle_from_behavior
from bellsim.cli import EXIT_CONFIG, EXIT_OK, _write_json, main
from bellsim.core import ContextStreams, CounterfactualTable, chsh_sum, project_bundle, s_from_counts
from bellsim.errors import BellSimError, ConfigError, DomainError, NumericError
from bellsim.feasibility import ReshuffleProblem
from bellsim.fileio import (
    STUDY_KEYS,
    read_behavior,
    read_bundle_csv,
    read_density,
    read_keyvalue,
    read_model,
    write_bundle_csv,
    write_curve_csv,
)
from bellsim.lhv import (
    boundary_mixture_model,
    model_from_mapping,
    sample_bundle,
    sample_counterfactual_table,
    sign_cosine_model,
)
from bellsim.quantum import (
    TSIRELSON_ANGLES,
    AngleQuadruple,
    DensityMatrix,
    born_probabilities,
    expectation,
    observable,
    optimize_angles,
    s_quantum,
    sample_bundle_quantum,
    singlet,
)
from bellsim.stats import ViolationStudy, generator_from_lhv, significance_curve, violation_frequency
from bellsim.rng import derive_seed, derive_seeds
from bellsim.weak import PointerConfig, exceedance_fraction, per_pair_b_values_calibrated
from scalars import SCALARS

SIGN_COSINE = "variant = sign_cosine\na1 = 0\na2 = 1\nb1 = 2\nb2 = 3\n"
STUDY = "n = 10\ntrials = 3\nseed = 1\n"


@pytest.mark.parametrize(
    ("command", "text"),
    [
        ("--model", "variant = deterministic\noutcomes = 1.5 1 1 1\n"),
        ("--model", "variant = deterministic\noutcomes = 1 1 1\n"),
        ("--model", SIGN_COSINE.replace("a1 = 0", "a1 = x")),
        ("--model", SIGN_COSINE + "bob_sign = minus\n"),
        ("--model", "variant = boundary_mixture\nweights = a b\n"),
        ("--model", "variant = boundary_mixture\nstrategies = 1,1,1,1 ; 1,1,1\n"),
        ("--model", "variant = boundary_mixture\nstrategies = 1,1,1,1 ; 1,1,1,0.5\n"),
        ("--spec", "generator = boundary_mixture\n" + STUDY.replace("trials = 3", "trials = five")),
        ("--spec", "generator = deterministic\noutcomes = 1 x 1 1\n" + STUDY),
        ("--spec", "generator = deterministic\noutcomes = 1 1 1\n" + STUDY),
        ("--spec", "generator = singlet\nangles = 0 1 2\n" + STUDY),
        ("--spec", "generator = sign_cosine\nangles = 0 1 2 3 4\n" + STUDY),
        ("--spec", "generator = boundary_mixture\nn = 10 ten\ntrials = 3\nseed = 1\n"),
        ("--spec", "generator = boundary_mixture\nthreshold = high\n" + STUDY),
        ("--spec", "generator = boundary_mixture\nmode = sideways\n" + STUDY),
        ("--spec", "generator = bogus\n" + STUDY),
    ],
    ids=["outcomes-non-integral", "outcomes-three", "angle-text", "bob-sign-text", "weights-text",
         "strategies-ragged", "strategies-non-integral", "trials-text", "outcomes-text",
         "spec-outcomes-three", "spec-angles-three", "spec-angles-five", "n-text", "threshold-text",
         "mode-unknown", "generator-unknown"],
)
def test_malformed_model_and_spec_files_exit_2(tmp_path, capsys, command, text):
    path = tmp_path / "input.txt"
    path.write_text(text)
    if command == "--model":
        argv = ["simulate-lhv", "--model", str(path), "--n", "10", "--seed", "1"]
    else:
        argv = ["violation-curve", "--spec", str(path)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("bellsim: configuration error:")


@pytest.mark.parametrize(
    "mapping",
    [
        {"variant": "deterministic", "outcomes": [1.5, 1, 1, 1]},
        {"variant": "deterministic", "outcomes": ["1", "1", "1", "1"]},
        {"variant": "deterministic"},
        {"variant": "sign_cosine", "a1": "x", "a2": 1.0, "b1": 2.0, "b2": 3.0},
        {"variant": "sign_cosine", "a1": [0.0], "a2": 1.0, "b1": 2.0, "b2": 3.0},
        {"variant": "sign_cosine", "a1": 0.0, "a2": 1.0, "b1": 2.0, "b2": 3.0, "bob_sign": None},
        {"variant": "boundary_mixture", "weights": ["a", "b"]},
        {"variant": "boundary_mixture", "weights": [float("nan"), float("nan")]},
        {"variant": "boundary_mixture", "strategies": [[1, 1, 1, 1], [1, 1, 1]]},
        {"variant": "boundary_mixture", "strategies": [[1, 1, 1, 1], [1, 1, 1, 1.5]]},
    ],
    ids=["outcomes-non-integral", "outcomes-text", "outcomes-missing", "angle-text", "angle-list",
         "bob-sign-none", "weights-text", "weights-nan", "strategies-ragged",
         "strategies-non-integral"],
)
def test_model_from_mapping_rejects_bad_values(mapping):
    with pytest.raises(ConfigError):
        model_from_mapping(mapping)


def test_model_file_values_keep_their_types(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text("variant = sign_cosine\na1 = 0\na2 = 1\nb1 = 2\nb2 = -3e-1\nbob_sign = 1\n")
    assert read_model(path).name == "sign_cosine(a1=0.0,a2=1.0,b1=2.0,b2=-0.3,bob_sign=1)"
    path.write_text("generator = deterministic\noutcomes = 1, -1 1 1\nn = 5 50\nthreshold = 2\n")
    assert read_keyvalue(path, STUDY_KEYS) == {
        "generator": "deterministic", "outcomes": [1, -1, 1, 1], "n": [5, 50], "threshold": 2.0,
    }


READERS = {
    "behavior": (read_behavior, "context 1 1 = 1 0 0 0\n"),
    "model": (read_model, "variant = boundary_mixture\n"),
    "density": (read_density, "1 0\n"),
    "spec": (lambda path: read_keyvalue(path, STUDY_KEYS), "trials = 3\n"),
    "bundle": (read_bundle_csv, "trial,context_i,context_j,a,b\n0,1,1,1,1\n"),
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_non_utf8_file_is_config_error(tmp_path, reader):
    read, text = READERS[reader]
    path = tmp_path / "input.txt"
    path.write_bytes(text.encode() + b"# note \xff\n" + text.encode()[:4] + b"\xff\n")
    with pytest.raises(ConfigError):
        read(path)


def test_non_utf8_model_file_exits_2(tmp_path):
    path = tmp_path / "model.txt"
    path.write_bytes(b"variant = boundary_mixture\xff\n")
    argv = ["simulate-lhv", "--model", str(path), "--n", "10", "--seed", "1", "--out", str(tmp_path)]
    assert main(argv) == EXIT_CONFIG


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_behavior_rejects_non_finite_entries(value):
    probs = np.array(pr_box().probs)
    probs[2, 1] = value
    with pytest.raises(DomainError, match="finite"):
        Behavior(probs)


@pytest.mark.parametrize("value", [float("nan"), complex(0.0, float("nan")), float("inf")])
def test_density_matrix_rejects_non_finite_entries(value):
    matrix = np.array(singlet().matrix)
    matrix[3, 3] = value
    with pytest.raises(DomainError, match="finite"):
        DensityMatrix(matrix)


MODEL = boundary_mixture_model()


@pytest.mark.parametrize("n", [0, -3, 1.5, 2.0, "10", True, None])
@pytest.mark.parametrize(
    "sample",
    [
        lambda n: sample_bundle(MODEL, n, 1),
        lambda n: sample_counterfactual_table(MODEL, n, 1),
        lambda n: sample_bundle_from_behavior(pr_box(), n, 1),
        lambda n: sample_bundle_quantum(singlet(), TSIRELSON_ANGLES, n, 1),
        lambda n: per_pair_b_values_calibrated(2.0, PointerConfig(), n, 1),
        lambda n: ViolationStudy(generator_from_lhv(MODEL), n, 5, 1),
        lambda n: significance_curve(generator_from_lhv(MODEL), [n], 5, 1),
        lambda n: generator_from_lhv(MODEL).streams.plus_counts(n, [1]),
    ],
    ids=["lhv-bundle", "lhv-table", "behavior", "quantum", "weak", "study", "curve", "counts"],
)
def test_sample_size_must_be_a_positive_integer(sample, n):
    with pytest.raises(ConfigError, match="integer >= 1"):
        sample(n)


def test_numpy_integer_sample_sizes_match_python_ints():
    generator = generator_from_lhv(MODEL)
    assert significance_curve(generator, np.array([10, 20]), 5, 1) == significance_curve(
        generator, [10, 20], 5, 1
    )
    for a, b in zip(sample_bundle(MODEL, np.int64(7), 3).datasets, sample_bundle(MODEL, 7, 3).datasets):
        assert np.array_equal(a.pairs, b.pairs)


def test_significance_curve_rejects_unknown_mode():
    with pytest.raises(ConfigError, match="mode"):
        significance_curve(generator_from_lhv(MODEL), [10], 5, 1, mode="sideways")


@pytest.mark.parametrize(
    ("n_values", "trials", "seed", "threshold", "mode", "message"),
    [
        ([10], 5, "x", 2.0, "signed", "seed must be an integer"),
        ([10], 5, "x", -1.0, "signed", "threshold must be finite and positive"),
        ([10], 0, "x", 2.0, "signed", "trials must be an integer >= 1"),
        ([10], 5, None, 2.0, "sideways", "mode must be 'signed' or 'absolute'"),
        ([10], 0, 1, float("nan"), "sideways", "threshold must be finite and positive"),
        ([10], 2.5, 1, 2.0, "sideways", "mode must be 'signed' or 'absolute'"),
        ([10, 0], 0, "x", -1.0, "sideways", "each n must be an integer >= 1"),
        ([], 0, "x", -1.0, "sideways", "n_values must be nonempty"),
        ([20, 10], 0, True, -1.0, "signed", "n_values must be strictly ascending"),
        (10, 0, "x", -1.0, "signed", "n_values must be a sequence of integers"),
        (None, 5, 1, 2.0, "signed", "n_values must be a sequence of integers"),
    ],
    ids=["seed", "seed-threshold", "seed-trials", "seed-mode", "threshold-mode-trials", "mode-trials",
         "n-and-all", "empty-and-all", "descending-and-all", "scalar-and-all", "none"],
)
def test_curve_reports_the_first_bad_setting(n_values, trials, seed, threshold, mode, message):
    # n values first, then threshold, mode and trials, and the seed last
    with pytest.raises(ConfigError, match=message):
        significance_curve(generator_from_lhv(MODEL), n_values, trials, seed, threshold, mode)


@pytest.mark.parametrize(
    ("n", "trials", "threshold", "mode", "message"),
    [
        (0, 0, -1.0, "sideways", "n_per_context must be an integer >= 1"),
        (10, 0, -1.0, "sideways", "threshold must be finite and positive"),
        (10, 0, 2.0, "sideways", "mode must be 'signed' or 'absolute'"),
        (10, 0, 2.0, "signed", "trials must be an integer >= 1"),
    ],
    ids=["n-and-all", "threshold-mode-trials", "mode-trials", "trials"],
)
def test_study_reports_the_first_bad_setting_and_the_seed_when_run(n, trials, threshold, mode, message):
    generator = generator_from_lhv(MODEL)
    with pytest.raises(ConfigError, match=message):
        ViolationStudy(generator, n, trials, "x", threshold, mode)
    with pytest.raises(ConfigError, match="seed must be an integer"):
        violation_frequency(ViolationStudy(generator, 10, 5, "x"))


BEHAVIOR_LINES = ["context 1 1 = 0.5 0 0 0.5", "context 1 2 = 0.5 0 0 0.5",
                  "context 2 1 = 0.5 0 0 0.5", "context 2 2 = 0 0.5 0.5 0"]
COUNT_LINES = ["counts 1 1 = 5 0 0 5", "counts 1 2 = 5 0 0 5",
               "counts 2 1 = 5 0 0 5", "counts 2 2 = 0 5 5 0"]


@pytest.mark.parametrize(
    ("lines", "error", "message"),
    [
        (["context 1 1 = nan 0 0 1", *BEHAVIOR_LINES[1:]], DomainError, "finite"),
        ([*BEHAVIOR_LINES, "context 1 1 = 1 0 0 0"], ConfigError, "duplicate key 'context 1 1'"),
        ([*BEHAVIOR_LINES, *COUNT_LINES, "counts 2 2 = 0 5 5 0"], ConfigError,
         "duplicate key 'counts 2 2'"),
        ([*BEHAVIOR_LINES, "counts 1 1 = nan 0 0 10", *COUNT_LINES[1:]], ConfigError,
         "bad value for 'counts 1 1': 'nan 0 0 10'"),
        ([*BEHAVIOR_LINES, "counts 1 1 = 2.5 0 0 7.5", *COUNT_LINES[1:]], ConfigError,
         "bad value for 'counts 1 1': '2.5 0 0 7.5'"),
        ([*BEHAVIOR_LINES, COUNT_LINES[0]], ConfigError, "counts given for only some contexts"),
    ],
    ids=["nan-probability", "repeated-context", "repeated-counts", "nan-count", "fractional-count",
         "partial-counts"],
)
def test_behavior_file_lines(tmp_path, capsys, lines, error, message):
    path = tmp_path / "input.behavior"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(error, match=message):
        read_behavior(path)
    assert main(["feasibility", "--behavior", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("bellsim: configuration error:")


@pytest.mark.parametrize(
    "threshold", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0, pytest.param(10**400, id="10**400")]
)
def test_study_threshold_must_be_finite_and_positive(threshold):
    generator = generator_from_lhv(MODEL)
    with pytest.raises(ConfigError, match="threshold must be finite and positive"):
        ViolationStudy(generator, 10, 5, 1, threshold=threshold)
    with pytest.raises(ConfigError, match="threshold must be finite and positive"):
        significance_curve(generator, [10], 5, 1, threshold=threshold)


@pytest.mark.parametrize(
    ("source", "text"),
    [
        ("--threshold", "nan"),
        ("--threshold", "inf"),
        ("--spec", "threshold = nan\n"),
        ("--spec", "threshold = inf\n"),
        ("--trials", "0"),
    ],
    ids=["flag-nan", "flag-inf", "spec-nan", "spec-inf", "trials-zero"],
)
def test_violation_curve_rejects_study_settings_out_of_range(tmp_path, capsys, source, text):
    argv = ["violation-curve", "--generator", "boundary_mixture", "--n", "10", "--trials", "3",
            "--seed", "1", "--out", str(tmp_path / "out")]
    if source == "--spec":
        (tmp_path / "study.spec").write_text(text)
        argv += ["--spec", str(tmp_path / "study.spec")]
    else:
        argv += [source, text]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("bellsim: configuration error:")
    assert not (tmp_path / "out" / "curve.csv").exists()


@pytest.mark.parametrize(
    "angles",
    [("x", 1, 2, 3), (0, [1, 2], 2, 3), (0, 1, None, 3), (0, 1, 2, float("nan"))],
    ids=["text", "list", "none", "nan"],
)
def test_sign_cosine_model_rejects_non_numeric_angles(angles):
    with pytest.raises(ConfigError, match="a1|a2|b1|b2"):
        sign_cosine_model(*angles)


@pytest.mark.parametrize("slack", [float("nan"), float("inf"), float("-inf"), pytest.param(10**400, id="10**400")])
def test_reshuffle_problem_rejects_non_finite_slack(slack):
    with pytest.raises(DomainError, match="slack must be finite"):
        ReshuffleProblem(np.full((4, 4), 5), slack)


@pytest.mark.parametrize("level", [[], ["--level", "counts"], ["--level", "distribution"]],
                         ids=["default", "counts", "distribution"])
@pytest.mark.parametrize("source", ["--bundle", "--behavior"])
def test_feasibility_rejects_non_finite_or_negative_slack(tmp_path, capsys, source, level):
    if source == "--bundle":
        path = tmp_path / "bundle.csv"
        write_bundle_csv(path, project_bundle(sample_counterfactual_table(MODEL, 20, 1)))
    else:
        path = tmp_path / "input.behavior"
        path.write_text("\n".join([*BEHAVIOR_LINES, *COUNT_LINES]) + "\n")
    argv = ["feasibility", source, str(path), *level]
    for slack in ("inf", "nan", "-1"):
        assert main([*argv, "--slack", slack, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("bellsim: configuration error: --slack must be finite")
        assert not (tmp_path / "out").exists()
    if source == "--bundle":  # a projected table is feasible at every level and slack
        expected = EXIT_CONFIG if level == ["--level", "distribution"] else EXIT_OK  # no slack there
        assert main([*argv, "--slack", "1e308", "--out", str(tmp_path / "out")]) == expected


@pytest.mark.parametrize("trials", [2.5, True, "5", None, 0])
def test_study_trials_must_be_a_positive_integer(trials):
    generator = generator_from_lhv(MODEL)
    with pytest.raises(ConfigError, match="trials must be an integer >= 1"):
        ViolationStudy(generator, 10, trials, 1)
    with pytest.raises(ConfigError, match="trials must be an integer >= 1"):
        significance_curve(generator, [10], trials, 1)


@pytest.mark.parametrize(
    ("run", "message"),
    [
        (lambda: significance_curve(None, [10], 5, 1), "got NoneType"),
        (lambda: violation_frequency(ViolationStudy("x", 10, 5, 1)), "got str"),
    ],
    ids=["curve", "study"],
)
def test_generator_must_be_a_bundle_generator(run, message):
    with pytest.raises(ConfigError, match=f"generator must be a BundleGenerator, {message}"):
        run()


def test_generator_is_checked_after_the_other_settings():
    # after n, threshold, mode and trials, so the error-order tests above keep their messages
    with pytest.raises(ConfigError, match="trials must be an integer >= 1"):
        ViolationStudy(None, 10, 0, 1)
    with pytest.raises(ConfigError, match="each n must be an integer >= 1"):
        significance_curve(None, [0], 5, 1)


@pytest.mark.parametrize("threshold", ["2", None, [2.0], complex(2.0, 0.0)])
def test_study_threshold_must_be_a_number(threshold):
    generator = generator_from_lhv(MODEL)
    with pytest.raises(ConfigError, match="threshold must be finite and positive"):
        ViolationStudy(generator, 10, 5, 1, threshold=threshold)
    with pytest.raises(ConfigError, match="threshold must be finite and positive"):
        significance_curve(generator, [10], 5, 1, threshold=threshold)


@pytest.mark.parametrize(
    "angles",
    [("x", 0, 0, 0), (0, None, 0, 0), (0, 0, [1, 2], 0), (0, 0, 0, float("inf"))],
    ids=["text", "none", "list", "inf"],
)
def test_angle_quadruple_rejects_non_numeric_angles(angles):
    with pytest.raises(DomainError, match="angles"):
        AngleQuadruple(*angles)


@settings(max_examples=500, deadline=None)
@given(angles=st.tuples(*[SCALARS] * 4), bob_sign=SCALARS, grid_points=SCALARS, refine_iters=SCALARS)
@example(angles=(10**400, 0.0, 0.0, 0.0), bob_sign=-1.0, grid_points=24, refine_iters=64)
@example(angles=(0.0, 0.0, 0.0, 0.0), bob_sign=-1.0, grid_points=None, refine_iters=64)
@example(angles=(0.0, 0.0, 0.0, 0.0), bob_sign=-1.0, grid_points="x", refine_iters=64)
@example(angles=(0, 0, 0, 0), bob_sign=np.array([1, 1]), grid_points=24, refine_iters=64)
def test_bare_scalar_angles_raise_only_bellsim_errors(angles, bob_sign, grid_points, refine_iters):
    rho = singlet()
    calls = [
        lambda: observable(angles[0]),
        lambda: expectation(rho, angles[0], angles[1]),
        lambda: born_probabilities(rho, angles[2], angles[3]),
        lambda: s_quantum(rho, AngleQuadruple(*angles)),
        lambda: optimize_angles(rho, grid_points, refine_iters),
        lambda: sign_cosine_model(*angles, bob_sign=bob_sign),
    ]
    for call in calls:
        try:
            call()
        except BellSimError:
            pass


@pytest.mark.parametrize(
    ("coupling", "noise_sd"),
    [("x", 1.0), (1.0, None), (None, 1.0), (1.0, "0.5"), (float("nan"), 1.0)],
    ids=["coupling-text", "noise-none", "coupling-none", "noise-text", "coupling-nan"],
)
def test_pointer_config_rejects_non_numeric_settings(coupling, noise_sd):
    with pytest.raises(ConfigError, match="coupling|noise_sd"):
        PointerConfig(coupling, noise_sd)


def test_numpy_integer_trials_give_the_same_curve_bytes(tmp_path):
    generator = generator_from_lhv(MODEL)
    for trials, name in ((5, "int.csv"), (np.int64(5), "numpy.csv")):
        result = significance_curve(generator, [10, 20], trials, 1)
        assert all(type(row.frequency) is float and type(row.trials) is int for row in result.rows)
        write_curve_csv(tmp_path / name, result)
    assert (tmp_path / "int.csv").read_bytes() == (tmp_path / "numpy.csv").read_bytes()
    assert type(ViolationStudy(generator, 10, np.int64(5), 1).trials) is int


def test_numpy_integer_sample_size_gives_the_same_study():
    # the exact tie test multiplies threshold's numerator (~2**52 for 2.1) by n:
    # with an int64 n that product overflows and every trial counted as a violation
    generator = generator_from_lhv(boundary_mixture_model())
    study = ViolationStudy(generator, np.int64(10_000), 200, 1, threshold=2.1)
    assert type(study.n_per_context) is int
    result = violation_frequency(study)
    assert result.violation_frequency == 0.0
    assert result == violation_frequency(ViolationStudy(generator, 10_000, 200, 1, threshold=2.1))


def test_non_numeric_slack_and_target_are_bellsim_errors():
    with pytest.raises(DomainError, match="slack must be finite"):
        ReshuffleProblem(np.full((4, 4), 5), "1")
    with pytest.raises(ConfigError, match="target_s must be finite"):
        per_pair_b_values_calibrated("2", PointerConfig(), 3, 1)


@pytest.mark.parametrize(
    "rows", [[(1, 1, 1)], [(1, 1, 1, 1), (1, 1)], [("1", "1", "1", "1")]], ids=["three", "ragged", "text"]
)
def test_table_rows_must_be_four_numbers(rows):
    with pytest.raises(DomainError, match="outcomes"):
        CounterfactualTable.from_rows(rows)
    assert CounterfactualTable.from_rows([]).outcomes.shape == (0, 4)


def _strict_json(path):
    """The file's JSON; NaN and infinities, which JSON does not allow, are errors."""
    return json.loads(path.read_text(), parse_constant=lambda name: pytest.fail(f"{path.name} holds {name}"))


@pytest.mark.parametrize("target_s", ["1e308", "-1e308"])
def test_weak_bvalues_whose_mean_overflows_exit_2_before_writing(tmp_path, capsys, target_s):
    argv = ["weak-bvalues", "--source", "calibrated", "--target-s", target_s, "--seed", "1"]
    assert main([*argv, "--n", "3", "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("bellsim: configuration error: b-value mean ")
    assert not (tmp_path / "out").exists()
    assert main([*argv, "--n", "1", "--out", str(tmp_path / "one")]) == EXIT_OK  # one pair: no sum
    assert _strict_json(tmp_path / "one" / "summary.json")["mean_b"] == float(target_s)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_json_outputs_reject_nan_and_infinities(tmp_path, value):
    with pytest.raises(NumericError, match="summary.json: Out of range float values"):
        _write_json(tmp_path / "summary.json", {"mean_b": value})
    assert not (tmp_path / "summary.json").exists()


UNIFORM_LAW = (np.full(4, 0.25), OUTCOME_PAIRS)
# each core sampler, run on a tuple of laws
SAMPLERS = {
    "sample": lambda laws: ContextStreams(laws, "bad-law").sample(1000, 1),
    "plus_counts": lambda laws: ContextStreams(laws, "bad-law").plus_counts(1000, [1]),
}


@pytest.mark.parametrize("sampler", SAMPLERS.values(), ids=SAMPLERS)
@pytest.mark.parametrize(
    ("laws", "message"),
    [
        ([((math.nan, 0.5, 0.25, 0.25), OUTCOME_PAIRS)] * 4, "a law needs 4 probabilities in [0, 1] summing to 1"),
        ([((-0.5, 1.5, 0.0, 0.0), OUTCOME_PAIRS)] * 4, "a law needs 4 probabilities in [0, 1] summing to 1"),
        ([((0.1, 0.1, 0.1, 0.1), OUTCOME_PAIRS)] * 4, "a law needs 4 probabilities in [0, 1] summing to 1"),
        ([((0.5, 0.5), OUTCOME_PAIRS)] * 4, "a law needs 4 probabilities in [0, 1] summing to 1"),
        ([((0.5, 0.5, 0.0, 0.0, 0.0), OUTCOME_PAIRS)] * 4, "a law needs 4 probabilities in [0, 1] summing to 1"),
        ([UNIFORM_LAW] * 3, "expected one law per context (4), got 3"),
        ([UNIFORM_LAW] * 5, "expected one law per context (4), got 5"),
        ([(np.full(4, 0.25), [[1, 1], [1, 0], [0, 1], [-1, -1]])] * 4, "context (1,1): a law's outcome pairs must"),
        ([(np.full(4, 0.25), [1, 1, -1, -1])] * 4, "context (1,1): a law's outcome pairs must"),
    ],
    ids=["nan", "negative", "mass-missing", "too-few-probabilities", "too-many-probabilities", "three-laws",
         "five-laws", "zero-outcome", "flat-pairs"],
)
def test_core_samplers_reject_malformed_laws(sampler, laws, message):
    with pytest.raises(DomainError) as raised:
        sampler(laws)
    assert str(raised.value).startswith(message)


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda: chsh_sum([0.5, 0.5, 0.5]), "chsh_sum takes four values, one per context, got fewer"),
        (lambda: chsh_sum(iter([0.5] * 5)), "chsh_sum takes four values, one per context, got more"),
        (lambda: s_from_counts([(1, 2)] * 3), "expected one (plus, n) count per context (4), got 3"),
        (lambda: s_from_counts([(1, 2)] * 5), "expected one (plus, n) count per context (4), got 5"),
    ],
    ids=["chsh-three", "chsh-five", "counts-three", "counts-five"],
)
def test_chsh_layout_needs_four_contexts(call, message):
    with pytest.raises(DomainError) as raised:
        call()
    assert str(raised.value) == message


@pytest.mark.parametrize("spec", ["x", None, [("variant", "boundary_mixture")]], ids=["text", "none", "pairs"])
def test_model_specification_must_be_a_mapping(spec):
    with pytest.raises(ConfigError, match="^model specification must be a mapping of keys to values, got "):
        model_from_mapping(spec)


@pytest.mark.parametrize(
    ("counts", "message"),
    [
        ((5, 2), "context (1,1): plus counts must be integers in [0, 2], got 5"),
        ((-1, 2), "context (1,1): plus counts must be integers in [0, 2], got -1"),
        ((1, -2), "context (1,1): n must be an integer >= 1, got -2"),
        ((1.5, 2), "context (1,1): plus counts must be integers in [0, 2], got 1.5"),
        ((True, 2), "context (1,1): plus counts must be integers in [0, 2], got True"),
        ((1, True), "context (1,1): n must be an integer >= 1, got True"),
        ((1, 2.0), "context (1,1): n must be an integer >= 1, got 2.0"),
        ((np.array([0, 3]), 2), "context (1,1): plus counts must be integers in [0, 2], got array([0, 3])"),
        ((np.array([-1, 0]), 2), "context (1,1): plus counts must be integers in [0, 2], got array([-1,  0])"),
        ((np.array([0.0, 1.0]), 2), "context (1,1): plus counts must be integers in [0, 2], got array([0., 1.])"),
        ((np.array([True, False]), 2), "context (1,1): plus counts must be integers in [0, 2], got array([ True, False])"),
    ],
    ids=["above-n", "negative", "negative-n", "fractional", "bool", "bool-n", "float-n", "array-above-n",
         "array-negative", "float-array", "bool-array"],
)
def test_counts_no_bundle_can_have_raise(counts, message):
    # each pair given for all four contexts; S-hat outside [-4, 4] or off the count grid must not come back
    with pytest.raises(DomainError) as raised:
        s_from_counts([counts] * 4)
    assert str(raised.value) == message


@pytest.mark.parametrize(
    ("path", "last"),
    [("trial", [0]), (["trial"], [0]), (("trial",), "01"), (("trial",), b"01")],
    ids=["string-path", "list-path", "string-last", "bytes-last"],
)
def test_derive_seeds_takes_a_tuple_path_and_no_string(path, last):
    with pytest.raises(ConfigError, match="^derive_seeds takes a tuple path and an iterable last, got "):
        derive_seeds([7], path, last)
    assert derive_seeds([7], ("trial",), [0]) == [derive_seed(7, "trial", 0)]


@pytest.mark.parametrize(
    ("call", "error", "message"),
    [
        (lambda b: ReshuffleProblem(np.full((4, 4), 5), slack=b), DomainError, "slack must be finite and >= 0, got "),
        (lambda b: ViolationStudy(generator_from_lhv(MODEL), 10, 3, 1, threshold=b), ConfigError,
         "threshold must be finite and positive, got "),
        (lambda b: PointerConfig(b, 1.0), ConfigError, "coupling g must be positive, got "),
        (lambda b: PointerConfig(1.0, b), ConfigError, "noise_sd must be >= 0, got "),
        (lambda b: exceedance_fraction([1.0, 2.0], b), ConfigError, "threshold must be a finite number, got "),
        (lambda b: per_pair_b_values_calibrated(b, PointerConfig(), 3, 1), ConfigError, "target_s must be finite, got "),
        (lambda b: observable(b), DomainError, "angle must be a finite real number, got "),
    ],
    ids=["reshuffle-slack", "study-threshold", "pointer-coupling", "pointer-noise", "exceedance-threshold",
         "calibrated-target", "observable-angle"],
)
def test_a_bool_is_not_a_real_number(call, error, message):
    # each read True as 1.0; a bool is no number here, as in sample_size and the seeds
    with pytest.raises(error) as raised:
        call(True)
    assert str(raised.value) == f"{message}True"
