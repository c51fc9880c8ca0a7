"""Bad input ends in a BellSimError: a ConfigError or DomainError, CLI exit 2.

Covers model files and study specs whose values do not parse as their key's
type, files that are not UTF-8, non-finite behavior and state entries, and
sample sizes that are not positive integers.
"""

import numpy as np
import pytest

from bellsim.behaviors import Behavior, pr_box, sample_bundle_from_behavior
from bellsim.cli import EXIT_CONFIG, main
from bellsim.errors import ConfigError, DomainError
from bellsim.fileio import (
    STUDY_KEYS,
    read_angles,
    read_behavior,
    read_bundle_csv,
    read_density,
    read_keyvalue,
    read_model,
    read_table_csv,
)
from bellsim.lhv import boundary_mixture_model, model_from_mapping, sample_bundle, sample_counterfactual_table
from bellsim.quantum import TSIRELSON_ANGLES, DensityMatrix, sample_bundle_quantum, singlet
from bellsim.stats import ViolationStudy, generator_from_lhv, significance_curve
from bellsim.weak import PointerConfig, per_pair_b_values_calibrated

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
    "angles": (read_angles, "0 1 2 3\n"),
    "spec": (lambda path: read_keyvalue(path, STUDY_KEYS), "trials = 3\n"),
    "table": (read_table_csv, "trial,a1,a2,b1,b2\n0,1,1,1,1\n"),
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
    ],
    ids=["lhv-bundle", "lhv-table", "behavior", "quantum", "weak", "study", "curve"],
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
