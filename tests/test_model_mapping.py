"""A built-in LHV model has one copy of its values: its builder's.

``model_from_mapping`` only checks the keys and hands them to the variant's
builder, so a mapping, a model file and a direct builder call with the same
values give equal models, names included, whatever the numbers' types.  A
name shows each number as a Python float, so it reads the same on every numpy.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellsim.errors import ConfigError
from bellsim.fileio import read_model
from bellsim.lhv import ANGLE_KEYS, boundary_mixture_model, model_from_mapping, sign_cosine_model

# Every deterministic strategy (a1, a2, b1, b2) with C = a1 (b1 + b2) + a2 (b1 - b2) = +2.
C_PLUS_TWO = [s for s in itertools.product((1, -1), repeat=4) if s[0] * (s[2] + s[3]) + s[1] * (s[2] - s[3]) == 2]
THREE_STRATEGIES = [(1, 1, 1, 1), (1, 1, 1, -1), (1, -1, 1, 1)]


def typed(number: st.SearchStrategy) -> st.SearchStrategy:
    """A number drawn as a Python int or float, or as a numpy int64 or float64."""
    return st.one_of(number.map(int), number.map(float), number.map(np.int64), number.map(np.float64))


ANGLES = st.one_of(typed(st.integers(-7, 7)), st.floats(-7.0, 7.0), st.floats(-7.0, 7.0).map(np.float64))


@settings(max_examples=200, deadline=None)
@given(angles=st.tuples(*[ANGLES] * 4), bob_sign=typed(st.sampled_from([-1, 1])))
@example(angles=(0, 1, 2, 3), bob_sign=-1)
@example(angles=(np.float64(0.5), 1, 2, 3), bob_sign=np.int64(1))
def test_sign_cosine_mapping_equals_the_builder(angles, bob_sign):
    model = sign_cosine_model(*angles, bob_sign=bob_sign)
    mapped = model_from_mapping({"variant": "sign_cosine", **dict(zip(ANGLE_KEYS, angles)), "bob_sign": bob_sign})
    assert mapped == model
    assert "np." not in model.name
    values = ",".join(f"{key}={float(angle)!r}" for key, angle in zip(ANGLE_KEYS, angles))
    assert model.name == f"sign_cosine({values},bob_sign={int(bob_sign)})"


@settings(max_examples=200, deadline=None)
@given(
    strategies=st.lists(st.sampled_from(C_PLUS_TWO), min_size=1, max_size=8, unique=True),
    shares=st.one_of(st.none(), st.lists(typed(st.integers(1, 9)), min_size=8, max_size=8)),
)
@example(strategies=THREE_STRATEGIES, shares=None)
def test_boundary_mixture_mapping_equals_the_builder(strategies, shares):
    shares = None if shares is None else shares[: len(strategies)]
    weights = None if shares is None else [share / sum(shares) for share in shares]
    model = boundary_mixture_model(strategies, weights)
    assert model_from_mapping({"variant": "boundary_mixture", "strategies": strategies, "weights": weights}) == model
    if weights is None:
        assert model_from_mapping({"variant": "boundary_mixture", "strategies": strategies}) == model
        assert model.weights.tolist() == [1.0 / len(strategies)] * len(strategies)
    assert "np." not in model.name


def test_three_strategies_without_weights_are_mixed_uniformly():
    model = boundary_mixture_model(THREE_STRATEGIES)
    assert model.weights.tolist() == [1 / 3] * 3
    assert model == model_from_mapping({"variant": "boundary_mixture", "strategies": THREE_STRATEGIES})


def test_the_default_boundary_mixture_is_half_half():
    assert boundary_mixture_model().weights.tolist() == [0.5, 0.5]
    assert boundary_mixture_model() == model_from_mapping({"variant": "boundary_mixture"})


def test_numpy_angles_name_the_model_as_floats():
    assert sign_cosine_model(np.float64(0.5), 1, 2, 3).name == "sign_cosine(a1=0.5,a2=1.0,b1=2.0,b2=3.0,bob_sign=-1)"
    assert sign_cosine_model(0, 1, 2, 3) == sign_cosine_model(0.0, 1.0, 2.0, 3.0)


@pytest.mark.parametrize(
    ("text", "build"),
    [
        ("variant = sign_cosine\na1 = 0\na2 = 1\nb1 = 2\nb2 = 3\n", lambda: sign_cosine_model(0, 1, 2, 3)),
        ("variant = sign_cosine\na1 = 0.5\na2 = -1\nb1 = 2\nb2 = 3\nbob_sign = 1\n",
         lambda: sign_cosine_model(np.float64(0.5), -1, 2, 3, bob_sign=1)),
        ("variant = boundary_mixture\nstrategies = 1 1 1 1; 1 1 1 -1; 1 -1 1 1\n",
         lambda: boundary_mixture_model(THREE_STRATEGIES)),
        ("variant = boundary_mixture\n", boundary_mixture_model),
        ("variant = boundary_mixture\nweights = 0.25 0.75\n", lambda: boundary_mixture_model(weights=[0.25, 0.75])),
    ],
    ids=["sign-cosine-integers", "sign-cosine-bob-plus", "three-strategies", "default", "weights"],
)
def test_model_file_equals_the_builder(tmp_path, text, build):
    path = tmp_path / "model.txt"
    path.write_text(text)
    assert read_model(path) == build()


def test_a_mapping_reports_bob_sign_before_a_bad_angle():
    # the builder checks bob_sign first; model files and CLI flags give floats, so no CLI message depends on it
    with pytest.raises(ConfigError, match="^bob_sign must be"):
        model_from_mapping({"variant": "sign_cosine", "a1": "x", "a2": 1, "b1": 2, "b2": 3, "bob_sign": 0})
    with pytest.raises(ConfigError, match="^angle a1 must be finite"):
        model_from_mapping({"variant": "sign_cosine", "a1": math.inf, "a2": 1, "b1": 2, "b2": 3})
