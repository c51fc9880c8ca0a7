import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as nph

from bellsim.behaviors import (
    Behavior,
    behavior_correlation,
    behavior_from_bundle,
    behavior_from_quantum,
    behavior_s,
    behavior_streams,
    no_signaling,
    pr_box,
    random_no_signaling_behavior,
    sample_bundle_from_behavior,
)
from bellsim.core import CANONICAL_CONTEXTS, Context, ContextDataset, ContextStreams, ExperimentBundle, s_statistic
from bellsim.errors import DomainError
from bellsim.fileio import read_bundle_csv, write_bundle_csv
from bellsim.lhv import boundary_mixture_model, sample_bundle
from bellsim.quantum import (
    TSIRELSON_ANGLES,
    TSIRELSON_BOUND,
    AngleQuadruple,
    random_density_matrix,
    sample_bundle_quantum,
    singlet,
)

ANGLE = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi, allow_nan=False)


def behaviors():
    def normalize(raw):
        raw = raw + 1e-9  # keep rows strictly positive before normalizing
        return Behavior(raw / raw.sum(axis=1, keepdims=True))

    return nph.arrays(
        np.float64, (4, 4), elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    ).map(normalize)


class TestCorrelationAndS:
    def test_correlation_examples(self):
        uniform = Behavior(np.full((4, 4), 0.25))
        assert behavior_correlation(uniform, Context(1, 1)) == 0.0
        perfect = Behavior(np.tile([0.5, 0.0, 0.0, 0.5], (4, 1)))
        assert behavior_correlation(perfect, Context(2, 1)) == 1.0
        mixed = Behavior(np.tile([0.4, 0.1, 0.1, 0.4], (4, 1)))
        assert behavior_correlation(mixed, Context(1, 2)) == pytest.approx(0.6)

    def test_s_examples(self):
        assert behavior_s(pr_box()) == 4.0
        assert behavior_s(Behavior(np.full((4, 4), 0.25))) == 0.0
        bq = behavior_from_quantum(singlet(), TSIRELSON_ANGLES)
        assert behavior_s(bq) == pytest.approx(-TSIRELSON_BOUND, abs=1e-9)

    @settings(max_examples=200)
    @given(behaviors())
    def test_a_priori_bound(self, behavior):
        assert abs(behavior_s(behavior)) <= 4.0 + 1e-12


class TestNoSignaling:
    def test_pr_box_is_no_signaling(self):
        report = no_signaling(pr_box())
        assert report.max_deficit == 0.0

    def test_hand_built_deficit(self):
        # Alice's P(+) is 0.6 in context (1,1) and 0.5 in (1,2)
        rows = np.array(
            [
                [0.3, 0.3, 0.2, 0.2],
                [0.25, 0.25, 0.25, 0.25],
                [0.25, 0.25, 0.25, 0.25],
                [0.25, 0.25, 0.25, 0.25],
            ]
        )
        report = no_signaling(Behavior(rows))
        assert report.alice_deficit == pytest.approx(0.1)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), ANGLE, ANGLE, ANGLE, ANGLE)
    def test_quantum_behaviors_never_signal(self, seed, a1, a2, b1, b2):
        rho = random_density_matrix(np.random.default_rng(seed))
        behavior = behavior_from_quantum(rho, AngleQuadruple(a1, a2, b1, b2))
        assert no_signaling(behavior).max_deficit <= 1e-12

    def test_random_no_signaling_generator(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            behavior = random_no_signaling_behavior(rng)
            assert no_signaling(behavior).max_deficit <= 1e-12

    def test_floats_are_pinned(self):
        """Generated cells and deficits, bit for bit, over seeded draws (residues of about 1e-16 included)."""
        probs, deficits = hashlib.sha256(), hashlib.sha256()
        for seed in range(8):
            behavior = random_no_signaling_behavior(np.random.default_rng(seed))
            probs.update(behavior.probs.tobytes())
            signaling = Behavior(np.random.default_rng(seed).dirichlet(np.ones(4), size=4))
            for report in (no_signaling(behavior), no_signaling(signaling)):
                deficits.update(np.array([report.alice_deficit, report.bob_deficit]).tobytes())
        assert probs.hexdigest() == "b278ce64dd7a638cf438a5b9eceedcf599bf84afccddb23e091c0337f7b58131"
        assert deficits.hexdigest() == "accd61767228014b30d4748823a1b4bc8778c32c7709f8520de301f247109b3a"


class TestEmpirical:
    def test_all_plus_bundle(self):
        datasets = tuple(ContextDataset(c, [[1, 1]] * 3) for c in CANONICAL_CONTEXTS)
        behavior = behavior_from_bundle(ExperimentBundle(datasets))
        assert behavior.probs.tolist() == [[1.0, 0.0, 0.0, 0.0]] * 4
        assert behavior.counts.tolist() == [[3, 0, 0, 0]] * 4

    def test_behavior_s_equals_s_statistic(self):
        rng = np.random.default_rng(3)
        datasets = tuple(
            ContextDataset(c, rng.choice([-1, 1], size=(50, 2))) for c in CANONICAL_CONTEXTS
        )
        bundle = ExperimentBundle(datasets)
        assert behavior_s(behavior_from_bundle(bundle)) == pytest.approx(
            s_statistic(bundle), abs=1e-14
        )

    def test_total_variation_concentration(self):
        # TV distance per context <= 0.01 at n = 1e5 in >= 99/100 seeded runs
        behavior = behavior_from_quantum(singlet(), TSIRELSON_ANGLES)
        n = 100_000
        hits = 0
        for seed in range(100):
            bundle = sample_bundle_from_behavior(behavior, n, seed=seed)
            empirical = behavior_from_bundle(bundle)
            tv = 0.5 * np.abs(empirical.probs - behavior.probs).sum(axis=1).max()
            hits += tv <= 0.01
        assert hits >= 99

    def test_sampling_deterministic(self):
        behavior = pr_box()
        b1 = sample_bundle_from_behavior(behavior, 100, seed=4)
        b2 = sample_bundle_from_behavior(behavior, 100, seed=4)
        for d1, d2 in zip(b1.datasets, b2.datasets):
            assert np.array_equal(d1.pairs, d2.pairs)


class TestValidation:
    def test_row_sums_checked(self):
        bad = np.full((4, 4), 0.3)
        with pytest.raises(DomainError, match="sum to 1"):
            Behavior(bad)

    def test_negative_probability_rejected(self):
        rows = np.tile([0.5, 0.5, 0.1, -0.1], (4, 1))
        with pytest.raises(DomainError, match="negative"):
            Behavior(rows)

    def test_counts_validated(self):
        probs = np.full((4, 4), 0.25)
        with pytest.raises(DomainError, match="counts"):
            Behavior(probs, counts=np.full((4, 4), -1))

    def test_empty_dataset_rejected(self):
        datasets = [ContextDataset(c, [[1, 1]]) for c in CANONICAL_CONTEXTS[:3]]
        datasets.append(ContextDataset(Context(2, 2), np.empty((0, 2), dtype=np.int8)))
        with pytest.raises(DomainError, match="empty"):
            behavior_from_bundle(ExperimentBundle(tuple(datasets)))


@pytest.mark.parametrize(
    "source",
    [
        lambda seed: sample_bundle(boundary_mixture_model(), 5, seed),
        lambda seed: sample_bundle_from_behavior(pr_box(), 5, seed),
        lambda seed: ContextStreams(behavior_streams(pr_box()).laws, "box-context").sample(5, seed),
        lambda seed: sample_bundle_quantum(singlet(), TSIRELSON_ANGLES, 5, seed),
    ],
    ids=["lhv", "behavior", "behavior-labelled", "quantum"],
)
def test_each_source_compares_by_its_pairs_alone(tmp_path, source):
    """A sampled bundle equals, with an equal hash, itself resampled, rebuilt from its pairs and read back."""
    bundle = source(17)
    rebuilt = ExperimentBundle(tuple(ContextDataset(d.context, np.array(d.pairs)) for d in bundle.datasets))
    path = tmp_path / "bundle.csv"
    write_bundle_csv(path, bundle, {"seed": 17})
    for other in (source(17), rebuilt, read_bundle_csv(path)):
        assert other == bundle
        assert hash(other) == hash(bundle)
    assert source(18) != bundle
