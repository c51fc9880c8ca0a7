"""Fuzzed argv through the one cached parser: main only returns or exits with 0-3.

The argv grammar covers the five subcommands and their flags, with good and bad
values, input files that are valid, malformed, missing or a directory, and junk
tokens.  Every size is bounded (--n <= 50, --trials <= 5, at most 3 n values), and
no token the grammar can draw reads as a large count, so no case asks for a large
sample or many trials.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bellsim import cli
from bellsim.behaviors import Behavior, behavior_from_bundle, pr_box
from bellsim.core import CounterfactualTable, project_bundle
from bellsim.fileio import write_behavior, write_bundle_csv
from bellsim.quantum import singlet

# Paths are drawn as "{in}/name" (an input file) and "{out}/name" (an output
# directory); the test fills in its directories.


def flag_values(good, bad, count=1, max_count=None):
    """A flag's value tokens: all from ``bad`` when a draw of 0..15 is 0, else all from ``good``."""
    return st.integers(0, 15).flatmap(
        lambda k: st.lists(bad if k == 0 else good, min_size=count, max_size=max_count or count))


def choice(*names):
    return flag_values(st.sampled_from(names), st.just("bogus"))


def input_file(good, bad=()):
    """Input paths: mostly a good file, else a malformed file, a missing one or a directory."""
    names = flag_values(st.sampled_from(good), st.sampled_from(["junk.bin", "missing", ".", *bad]))
    return names.map(lambda names: ["{in}/" + name for name in names])


SIZES = flag_values(st.integers(1, 50).map(str), st.sampled_from(["-2", "0", "1.5", "x"]))
SEEDS = flag_values(st.sampled_from(["0", "1", "2", "3", str(2**63), str(2**64 - 1)]),
                    st.sampled_from(["-1", str(2**64), "1.5", "x"]))
REAL = st.floats(-7.0, 7.0).map(repr)
ODD_REAL = st.one_of(st.sampled_from(["nan", "inf", "-inf", "1e308", "1e-300", "-1e-05", "x"]), st.floats().map(repr))
REALS = flag_values(REAL, ODD_REAL)
ANGLES = flag_values(REAL, ODD_REAL, count=4)
MODEL_FLAGS = {
    "--model": (input_file(["model.txt"], ["bad_model.txt"]), 4),
    "--outcomes": (flag_values(st.sampled_from(["1", "-1"]), st.sampled_from(["0", "2", "x"]), count=4), 4),
    "--angles": (ANGLES, 8),
    "--bob-sign": (flag_values(st.sampled_from(["-1", "1"]), st.sampled_from(["0.5", "x"])), 4),
}
VARIANT = choice("deterministic", "sign_cosine", "boundary_mixture")
OUT = flag_values(st.sampled_from(["{out}/run", "{out}/nested/run"]), st.just("{in}/model.txt"))

# subcommand -> flag -> (strategy of the flag's value tokens, odds in 16 that the flag is given)
GRAMMAR = {
    "simulate-lhv": {"--variant": (VARIANT, 12), **MODEL_FLAGS, "--n": (SIZES, 15), "--seed": (SEEDS, 15),
                     "--out": (OUT, 15)},
    "simulate-quantum": {
        "--state": (choice("singlet", "mixed"), 8),
        "--rho": (input_file(["rho.txt"]), 4),
        "--angles": (ANGLES, 8),
        "--convention": (choice("spin", "photon"), 8),
        "--n": (SIZES, 15),
        "--seed": (SEEDS, 15),
        "--out": (OUT, 15),
    },
    "feasibility": {
        "--behavior": (input_file(["counts.behavior", "probs.behavior", "box.behavior"], ["bundle.csv"]), 10),
        "--bundle": (input_file(["bundle.csv"]), 8),
        "--level": (choice("distribution", "counts"), 8),
        "--slack": (flag_values(st.sampled_from(["0", "0.5", "2", "40"]), ODD_REAL), 6),
        "--out": (OUT, 15),
    },
    "violation-curve": {
        "--spec": (input_file(["study.txt", "study_trials.txt"], ["study_sign.txt", "study_mode.txt", "study_behavior.txt"]), 5),
        "--generator": (choice("deterministic", "sign_cosine", "boundary_mixture", "model", "behavior",
                               "singlet", "mixed"), 14),
        "--behavior": (input_file(["counts.behavior", "probs.behavior"]), 4),
        **MODEL_FLAGS,
        "--n": (flag_values(st.integers(1, 50).map(str), st.sampled_from(["-2", "0", "x"]), 1, 3), 14),
        "--trials": (flag_values(st.integers(1, 5).map(str), st.sampled_from(["-1", "0", "x"])), 14),
        "--threshold": (REALS, 4),
        "--mode": (choice("signed", "absolute"), 6),
        "--seed": (SEEDS, 14),
        "--out": (OUT, 15),
    },
    "weak-bvalues": {
        "--source": (choice("calibrated", "lhv"), 15),
        "--target-s": (REALS, 10),
        "--variant": (VARIANT, 10),
        **MODEL_FLAGS,
        "--n": (SIZES, 15),
        "--g": (REALS, 6),
        "--sigma": (REALS, 6),
        "--seed": (SEEDS, 15),
        "--out": (OUT, 15),
    },
}
# Junk is never a flag that takes a value, nor a prefix of one, nor an integer
# (--n takes several values, so a stray integer would become another sample size).
JUNK = st.one_of(
    st.sampled_from(["--bogus", "-x", "", "-", "--", "nan", "-1e-05", "1e400", "-h", "bellsim", "feasibility"]),
    st.text(st.characters(blacklist_categories=("Nd", "Cs"), blacklist_characters="-"), max_size=3),
)


@st.composite
def argvs(draw):
    subcommand = draw(st.sampled_from(sorted(GRAMMAR)))
    groups = [[flag, *draw(tokens)] for flag, (tokens, odds) in GRAMMAR[subcommand].items()
              if draw(st.integers(0, 15)) < odds]
    groups = draw(st.permutations(groups))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):  # junk lands between flag groups
        groups.insert(draw(st.integers(0, len(groups))), [draw(JUNK)])
    return [subcommand, *(token for group in groups for token in group)]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    table = CounterfactualTable(np.random.default_rng(3).choice([-1, 1], size=(12, 4)))
    bundle = project_bundle(table)
    write_bundle_csv(root / "bundle.csv", bundle)
    behavior = behavior_from_bundle(bundle)
    write_behavior(root / "counts.behavior", behavior)
    write_behavior(root / "probs.behavior", Behavior(behavior.probs))
    write_behavior(root / "box.behavior", pr_box())
    (root / "model.txt").write_text("variant = boundary_mixture\n")
    (root / "bad_model.txt").write_text("variant = deterministic\noutcomes = 1 1 1 2\n")
    (root / "rho.txt").write_text("".join(f"{v.real!r} {v.imag!r}\n" for v in singlet().matrix.reshape(-1).tolist()))
    (root / "junk.bin").write_bytes(b"\xff\x00not = a\nfile\n")
    (root / "study.txt").write_text("generator = boundary_mixture\nn = 10 20\ntrials = 3\nseed = 1\n")
    (root / "study_sign.txt").write_text(
        "generator = sign_cosine\nangles = 0 1 2 3\nbob_sign = 0.5\nn = 5\ntrials = 2\nseed = 1\n")
    (root / "study_mode.txt").write_text("generator = singlet\nmode = sideways\nn = 5\ntrials = 2\nseed = 1\n")
    (root / "study_behavior.txt").write_text(
        f"generator = behavior\nbehavior = {root / 'counts.behavior'}\nn = 0 5\ntrials = 0\nseed = -1\n")
    (root / "study_trials.txt").write_text("trials = 2\n")
    return root


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=argvs())
def test_main_exits_with_a_documented_code(inputs, tmp_path, argv):
    argv = [token.replace("{in}", str(inputs)).replace("{out}", str(tmp_path)) for token in argv]
    parser = cli._parser()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's usage error (2) or --help (0)
        code = exc.code
    assert code in (0, 1, 2, 3)
    assert cli._parser() is parser
