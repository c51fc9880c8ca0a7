"""Fuzzed argv and fuzzed input files through the one cached parser: main only returns or exits with 0-3.

The argv grammar covers the five subcommands and their flags, with good and bad
values, input files that are valid, malformed, missing or a directory, and junk
tokens.  Every size is bounded (--n <= 50, --trials <= 5, at most 3 n values), and
no token the grammar can draw reads as a large count, so no case asks for a large
sample or many trials.

The file fuzz keeps the command line valid and draws the contents of the file
given to --bundle, --behavior, --model, --rho or --spec: a seed file with up to
three lines inserted, deleted or given a value from ``scalars.SCALARS``, or raw
bytes.  A study spec that asks for more than the argv grammar's sizes is skipped.
Most such edits break a behavior file (a copied line is a repeated key, a new
value breaks its row's sum), so a behavior file may instead get up to three
edits that keep it valid: one context's four cells permuted together with its
counts, a counts line scaled by an integer, or two contexts' lines swapped.
Those files reach the feasibility LPs, their certificates, the slack system,
the integer reshuffle and the behavior generator.  Neither fuzz may print a
numpy scalar's repr to stderr: its text differs between numpy 1.24 and 2.
"""

import itertools
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from bellsim import cli
from bellsim.behaviors import Behavior, behavior_from_bundle, pr_box
from bellsim.core import CounterfactualTable, project_bundle
from bellsim.errors import ConfigError
from bellsim.fileio import STUDY_KEYS, read_keyvalue, write_behavior, write_bundle_csv
from bellsim.quantum import singlet
from scalars import SCALARS

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
    (root / "sign_model.txt").write_text("variant = sign_cosine\na1 = 0\na2 = 1.5\nb1 = 0.7\nb2 = 2.9\nbob_sign = 1\n")
    (root / "mixture_model.txt").write_text(
        "variant = boundary_mixture\nstrategies = 1,1,1,1 ; 1,1,1,-1\nweights = 0.25 0.75\n")
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


# numpy 2's repr of a scalar, "np.float64(0.75)", where numpy 1.24 prints "0.75"
NUMPY_REPR = re.compile(r"np\.\w+\(")


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=argvs())
def test_main_exits_with_a_documented_code(inputs, tmp_path, capsys, argv):
    argv = [token.replace("{in}", str(inputs)).replace("{out}", str(tmp_path)) for token in argv]
    parser = cli._parser()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's usage error (2) or --help (0)
        code = exc.code
    assert code in (0, 1, 2, 3)
    assert cli._parser() is parser
    assert not NUMPY_REPR.search(capsys.readouterr().err)


CURVE_SIZES = ["--n", "10", "--trials", "2", "--seed", "1"]
# input flag -> (its seed files in the inputs directory, command lines that read the file "{file}")
FILE_FLAGS = {
    "--bundle": (["bundle.csv"], [
        ["feasibility", "--bundle", "{file}"],
        ["feasibility", "--bundle", "{file}", "--level", "distribution"],
        ["feasibility", "--bundle", "{file}", "--slack", "3"],
    ]),
    "--behavior": (["counts.behavior", "probs.behavior", "box.behavior"], [
        ["feasibility", "--behavior", "{file}"],
        ["feasibility", "--behavior", "{file}", "--level", "counts"],
        ["feasibility", "--behavior", "{file}", "--level", "counts", "--slack", "3"],
        ["violation-curve", "--generator", "behavior", "--behavior", "{file}", *CURVE_SIZES],
    ]),
    "--model": (["model.txt", "sign_model.txt", "mixture_model.txt"], [
        ["simulate-lhv", "--model", "{file}", "--n", "10", "--seed", "1"],
        ["weak-bvalues", "--source", "lhv", "--model", "{file}", "--n", "10", "--seed", "1"],
        ["violation-curve", "--generator", "model", "--model", "{file}", *CURVE_SIZES],
    ]),
    "--rho": (["rho.txt"], [["simulate-quantum", "--rho", "{file}", "--n", "10", "--seed", "1"]]),
    "--spec": (["study.txt", "study_sign.txt", "study_mode.txt", "study_behavior.txt", "study_trials.txt"], [
        ["violation-curve", "--spec", "{file}", "--generator", "boundary_mixture", *CURVE_SIZES],
    ]),
}
# An edit: (kind, line position, token position, text); positions wrap around the file's lines and tokens.
EDITS = st.tuples(
    st.sampled_from(["copy", "insert", "delete", "token"]), st.integers(0, 99), st.integers(0, 9),
    st.builds(lambda values, sep: sep.join(values), st.lists(SCALARS.map(str), min_size=1, max_size=5),
              st.sampled_from([" ", ",", " = "])),
)

# An edit that keeps a behavior file valid: (kind, context index, argument), where the argument is
# the permutation of the four cells, the integer that scales the counts, or the other context's index.
KEEPING = st.one_of(
    st.tuples(st.just("permute"), st.integers(0, 3), st.sampled_from(list(itertools.permutations(range(4))))),
    st.tuples(st.just("scale"), st.integers(0, 3), st.sampled_from([0, 2, 3, 1000, 10**15])),
    st.tuples(st.just("swap"), st.integers(0, 3), st.integers(0, 3)),
)
BEHAVIOR_LINE = re.compile(r"(context|counts) ([12]) ([12]) = (\S+) (\S+) (\S+) (\S+)")


@st.composite
def file_cases(draw):
    """(argv with "{file}", contents): raw bytes, or (seed file name, edits) applied by ``edited``."""
    flag = draw(st.sampled_from(sorted(FILE_FLAGS)))
    seeds, commands = FILE_FLAGS[flag]
    contents = st.binary(max_size=200) | st.tuples(st.sampled_from(seeds), st.lists(EDITS, max_size=3))
    if flag == "--behavior":
        contents |= st.tuples(st.sampled_from(seeds), st.lists(KEEPING, min_size=1, max_size=3))
    return draw(st.sampled_from(commands)), draw(contents)


def kept_valid(lines, kind, index, arg):
    """Behavior-file lines with context ``index`` (0-3) permuted, its counts scaled, or swapped with context ``arg``."""
    for at, line in enumerate(lines):
        match = BEHAVIOR_LINE.fullmatch(line)
        if not match:
            continue
        key, i, j, *cells = match.groups()
        here = (int(i) - 1) * 2 + int(j) - 1
        if kind == "swap" and here in (index, arg):
            i, j = (str(k + 1) for k in divmod(index + arg - here, 2))  # the other context's labels
        elif kind == "permute" and here == index:
            cells = [cells[k] for k in arg]
        elif kind == "scale" and here == index and key == "counts" and all(c.isdigit() for c in cells):
            cells = [str(int(c) * arg) for c in cells]
        lines[at] = f"{key} {i} {j} = {' '.join(cells)}"
    return lines


def edited(data, edits):
    """The lines of ``data`` with each edit applied: a line copied, inserted or deleted, a token replaced, or kept valid."""
    lines = data.decode().splitlines()
    for kind, at, *rest in edits:
        if kind in ("permute", "scale", "swap"):
            lines = kept_valid(lines, kind, at, *rest)
            continue
        token, text = rest
        where = at % (len(lines) + 1)
        if kind == "insert":
            lines.insert(where, text)
        elif lines and kind == "copy":
            lines.insert(where, lines[at % len(lines)])
        elif lines and kind == "delete":
            del lines[at % len(lines)]
        elif lines:
            tokens = re.split("([ ,])", lines[at % len(lines)])  # separators at the odd positions
            tokens[2 * (token % ((len(tokens) + 1) // 2))] = text
            lines[at % len(lines)] = "".join(tokens)
    return "".join(line + "\n" for line in lines).encode()


def small_study(path):
    """Whether the study spec, if it parses, asks for at most the argv grammar's sizes."""
    try:
        spec = read_keyvalue(path, STUDY_KEYS)
    except ConfigError:
        return True
    n = spec.get("n", [1])
    return len(n) <= 3 and max(n, default=1) <= 50 and spec.get("trials", 1) <= 5


# A behavior whose context (1,1) has probabilities but no counts: once "context rows must each sum
# to 1" at slack 3 and "feasible" at slack 20, now an empty-context error (exit 2).
EMPTY_CONTEXT = (
    "".join(f"context {i} {j} = 0.25 0.25 0.25 0.25\n" for i in (1, 2) for j in (1, 2))
    + "counts 1 1 = 0 0 0 0\ncounts 1 2 = 5 0 0 5\ncounts 2 1 = 5 0 0 5\ncounts 2 2 = 0 5 5 0\n"
).encode()


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=file_cases())
@example(case=(FILE_FLAGS["--behavior"][1][1], EMPTY_CONTEXT))
@example(case=(FILE_FLAGS["--model"][1][0], b"variant = boundary_mixture\nstrategies = 1,1,1,1 ; 1,1,1,-1\nweights = 0.5 0.25\n"))
def test_main_on_fuzzed_input_files_exits_with_a_documented_code(inputs, tmp_path_factory, capsys, case):
    command, contents = case
    if isinstance(contents, tuple):
        name, edits = contents
        contents = edited((inputs / name).read_bytes(), edits)
    root = tmp_path_factory.mktemp("fuzzed")
    path = root / "input"
    path.write_bytes(contents)
    assume(command[1] != "--spec" or small_study(path))
    argv = [token.replace("{file}", str(path)) for token in command]
    try:
        code = cli.main([*argv, "--out", str(root / "out")])
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2, 3)
    assert not NUMPY_REPR.search(capsys.readouterr().err)
