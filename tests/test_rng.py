import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim.rng import categorical, category_counts, derive_seed, spawn_rng


def test_derivation_is_deterministic():
    assert derive_seed(42, "trial", 7) == derive_seed(42, "trial", 7)
    assert spawn_rng(1, "a").random() == spawn_rng(1, "a").random()


def test_paths_are_unambiguous():
    # string/int boundaries must not collide
    assert derive_seed(1, "ab", 1) != derive_seed(1, "a", "b1")
    assert derive_seed(1, "x", 12) != derive_seed(1, "x1", 2)
    assert derive_seed(1, 2) != derive_seed(1, "2")
    assert derive_seed(0) != derive_seed(1)


def test_streams_are_independent_of_evaluation_order():
    forward = [spawn_rng(9, "ctx", k).random(3).tolist() for k in range(4)]
    backward = [spawn_rng(9, "ctx", k).random(3).tolist() for k in reversed(range(4))]
    assert forward == backward[::-1]


def test_categorical_matches_probabilities():
    rng = np.random.default_rng(0)
    probs = np.array([0.05, 0.45, 0.3, 0.2])
    draws = categorical(rng, probs, 200_000)
    freqs = np.bincount(draws, minlength=4) / draws.size
    assert np.abs(freqs - probs).max() < 0.005
    assert draws.min() >= 0 and draws.max() <= 3


def test_categorical_degenerate_vector():
    rng = np.random.default_rng(1)
    draws = categorical(rng, np.array([0.0, 1.0, 0.0, 0.0]), 1000)
    assert (draws == 1).all()


@settings(max_examples=200, deadline=None)
@given(
    masses=st.lists(st.sampled_from([0.0, 0.0, 1e-9, 0.1, 0.25, 0.3, 1.0, 7.0]), min_size=1, max_size=16)
    .filter(lambda m: sum(m) > 0),
    size=st.one_of(st.just(1), st.integers(1, 3000)),
    seed=st.integers(0, 2**64 - 1),
)
def test_category_counts_equal_bincount_of_categorical(masses, size, seed):
    probs = np.array(masses) / sum(masses)  # zero-mass categories included
    counts = category_counts(np.random.default_rng(seed), probs, size)
    draws = categorical(np.random.default_rng(seed), probs, size)
    assert np.array_equal(counts, np.bincount(draws, minlength=len(probs)))


def test_numpy_and_python_int_seeds_give_equal_streams():
    for make in (np.int64, np.int32, np.uint64, np.uint8):
        assert derive_seed(make(7), "x") == derive_seed(7, "x")
        assert derive_seed(7, "trial", make(3)) == derive_seed(7, "trial", 3)
        assert spawn_rng(make(9), "ctx", make(2)).random(4).tolist() == spawn_rng(9, "ctx", 2).random(4).tolist()
    # bool keeps its own encoding; it is not the integer 1
    assert derive_seed(1, True) != derive_seed(1, 1)


def test_python_int_seeds_are_unchanged():
    # values recorded before integer seeds were normalized; existing streams must not move
    assert derive_seed(7, "x") == 15647060205696623661
    assert derive_seed(42, "trial", 7) == 1837239193255546802
    assert derive_seed(0) == 10859181324133925864
    assert derive_seed(2**63 + 5, "curve-n", 10000) == 1471924542904625261
    assert derive_seed(-3, "a", 0) == 13440618888737295997
    assert derive_seed(1, True) == 16888354520136515430
    assert derive_seed(9, "ctx", 3, "weak-source") == 12970295843029836468
    assert spawn_rng(42, "trial", 7).random(3).tolist() == [
        0.38277346550837044, 0.30790164072816373, 0.8606150415921476,
    ]
