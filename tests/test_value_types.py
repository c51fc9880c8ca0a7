"""The contract of every value type that holds a numpy array.

Each array is copied when the value is built (the caller's array stays
writable and unshared), the stored copy is read-only, values compare and hash
by value, and a bad array (ragged, non-numeric, NaN or inf, the wrong shape,
or numbers the field's dtype cannot hold exactly) is a DomainError, raised
before any warning; a model's arrays are its specification, so there it is a
ConfigError.  ``CASES`` holds one valid-instance factory per array field; a
guard fails when a dataclass in ``bellsim`` gains an array field that is not in
the table.  ``GUARDS`` builds each value type's own checks (a negative deficit,
weights off the simplex, a result with both or neither of a witness and a
certificate, a certificate whose signs are no CHSH pattern, a bundle of three
datasets, a CI that excludes its frequency) directly and expects its whole
message, or its start.  A certificate's kind follows from its signs and a
result's status from its witness, so neither can contradict what it carries.
"""

import dataclasses
import importlib
import pkgutil
import warnings
from collections.abc import Callable
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as nph

import bellsim
from bellsim.behaviors import Behavior, SignalingReport, pr_box
from bellsim.core import CANONICAL_CONTEXTS, ArrayValue, Context, ContextDataset, CounterfactualTable, ExperimentBundle
from bellsim.errors import ConfigError, DomainError
from bellsim.feasibility import PROJECTION, Certificate, FeasibilityResult, JointDistribution, ReshuffleProblem
from bellsim.lhv import MixtureModel
from bellsim.quantum import DensityMatrix, singlet
from bellsim.stats import StudyRow
from bellsim.weak import PointerConfig, PointerRun, per_pair_b_values_calibrated


class Case(NamedTuple):
    build: Callable[[np.ndarray], object]  # the value, with the array in the field under test
    valid: Callable[[], np.ndarray]  # a fresh, writable, valid array for that field
    change: Callable[[np.ndarray], None]  # alters the fewest entries that keep it valid
    dtype: type  # of the stored array
    error: type = DomainError  # what a bad array raises


def _flip_first(a):
    a.flat[0] = -a.flat[0]


def _add_one(a):
    a.flat[0] += 1


def _move_mass(a):  # a row or vector that must keep its sum
    a.flat[0] -= 0.125
    a.flat[1] += 0.125


def _move_diagonal(a):  # keeps the trace
    a[0, 0] += 0.125
    a[1, 1] -= 0.125


PR_BOX_COUNTS = [[5, 0, 0, 5], [5, 0, 0, 5], [5, 0, 0, 5], [0, 5, 5, 0]]
UNIFORM_JOINT = JointDistribution(np.full(16, 1 / 16))
THREE_STRATEGIES = [[1, 1, 1, 1], [1, 1, 1, -1], [-1, 1, -1, 1]]

CASES = {
    (CounterfactualTable, "outcomes"): Case(
        CounterfactualTable, lambda: np.array([[1, -1, 1, 1], [-1, -1, 1, -1]], np.int8),
        _flip_first, np.int8,
    ),
    (ContextDataset, "pairs"): Case(
        lambda a: ContextDataset(Context(1, 2), a), lambda: np.array([[1, -1], [-1, -1]], np.int8),
        _flip_first, np.int8,
    ),
    (Behavior, "probs"): Case(Behavior, lambda: np.array(pr_box().probs), _move_mass, np.float64),
    (Behavior, "counts"): Case(
        lambda a: Behavior(pr_box().probs, a), lambda: np.array(PR_BOX_COUNTS), _add_one, np.int64
    ),
    (JointDistribution, "weights"): Case(
        JointDistribution, lambda: np.array([0.5] + [0.0] * 14 + [0.5]), _move_mass, np.float64
    ),
    (ReshuffleProblem, "counts"): Case(
        ReshuffleProblem, lambda: np.array(PR_BOX_COUNTS), _add_one, np.int64
    ),
    (FeasibilityResult, "witness_counts"): Case(
        lambda a: FeasibilityResult(0.0, witness=UNIFORM_JOINT, witness_counts=a),
        lambda: np.array([2.0, 0.0] * 8),
        _add_one,
        np.float64,
    ),
    (DensityMatrix, "matrix"): Case(
        DensityMatrix, lambda: np.diag([0.5, 0.5, 0.0, 0.0]).astype(np.complex128),
        _move_diagonal, np.complex128,
    ),
    (PointerRun, "readings"): Case(
        lambda a: PointerRun(a, PointerConfig(2.0, 0.5), "test"),
        lambda: np.array([[1.0, 0.0, -2.0, 3.0], [0.5, 1.0, 0.0, -1.0]]),
        _add_one,
        np.float64,
    ),
    (MixtureModel, "strategies"): Case(
        lambda a: MixtureModel("test", a, [0.5, 0.25, 0.25]), lambda: np.array(THREE_STRATEGIES),
        _flip_first, np.int8, ConfigError,
    ),
    (MixtureModel, "weights"): Case(
        lambda a: MixtureModel("test", THREE_STRATEGIES, a), lambda: np.array([0.5, 0.5, 0.0]),
        _move_mass, np.float64, ConfigError,
    ),
}
# A field whose stored dtype follows another field has one more case per dtype: witness counts
# are int64 for an integer witness, float64 otherwise.
INTEGER_WITNESS_COUNTS = Case(
    lambda a: FeasibilityResult(0.0, witness=UNIFORM_JOINT, witness_counts=a, integrality="integer"),
    lambda: np.array([2, 0] * 8),
    _add_one,
    np.int64,
)
FIELD_CASES = [  # (test id, field, case)
    *((f"{cls.__name__}.{name}", name, case) for (cls, name), case in CASES.items()),
    ("FeasibilityResult.witness_counts-integer", "witness_counts", INTEGER_WITNESS_COUNTS),
]
PARAMS = [pytest.param(name, case, id=case_id) for case_id, name, case in FIELD_CASES]


def _array_fields():
    """(class, field) of every init field annotated as an ndarray, in every bellsim module."""
    found = set()
    for info in pkgutil.iter_modules(bellsim.__path__):
        module = importlib.import_module(f"bellsim.{info.name}")
        for obj in vars(module).values():
            if dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__:
                found |= {
                    (obj, f.name) for f in dataclasses.fields(obj)
                    if f.init and "np.ndarray" in str(f.type)
                }
    return found


def test_every_array_field_is_in_the_table():
    assert _array_fields() == set(CASES)
    assert all(issubclass(cls, ArrayValue) for cls, _ in CASES)


@pytest.mark.parametrize(("name", "case"), PARAMS)
def test_equal_inputs_are_equal_with_equal_hashes(name, case):
    value = case.build(case.valid())
    assert value == case.build(case.valid())
    assert hash(value) == hash(case.build(case.valid()))
    negative_zeros = case.valid()
    negative_zeros[negative_zeros == 0] *= -1  # -0.0 in the float fields
    assert value == case.build(negative_zeros)
    assert hash(value) == hash(case.build(negative_zeros))


@pytest.mark.parametrize(("name", "case"), PARAMS)
def test_a_changed_entry_breaks_equality(name, case):
    changed = case.valid()
    case.change(changed)
    assert case.build(case.valid()) != case.build(changed)


@pytest.mark.parametrize(("name", "case"), PARAMS)
def test_other_objects_are_not_equal(name, case):
    value = case.build(case.valid())
    assert (value == object()) is False
    assert value != object()


@pytest.mark.parametrize(("name", "case"), PARAMS)
def test_the_field_is_a_read_only_copy(name, case):
    caller = case.valid()
    stored = getattr(case.build(caller), name)
    assert stored.dtype == case.dtype
    assert caller.flags.writeable
    assert not np.shares_memory(caller, stored)
    with pytest.raises(ValueError):
        stored[(0,) * stored.ndim] = 1


def _with_first(value, dtype=np.float64):
    def make(a):
        a = a.astype(np.result_type(a.dtype, dtype))
        a.flat[0] = value
        return a

    return make


BAD = {
    "ragged": lambda a: [[0.0], [0.0, 0.0]],
    "text": lambda a: a.astype(str),
    "object": lambda a: a.astype(object),
    "wrong-shape": lambda a: np.append(a.ravel(), a.flat[0]),
    "nan": _with_first(float("nan")),
    "inf": _with_first(float("-inf")),
}
# What an integer field cannot hold: 2.5 and 1e20 in any, 300 in an int8 one.
BAD_INTEGER = {
    "fraction": (_with_first(2.5), (np.int8, np.int64)),
    "too-large": (_with_first(1e20), (np.int8, np.int64)),
    "int8-overflow": (_with_first(300, np.int64), (np.int8,)),
}
BAD_CASES = [
    pytest.param(case, make, id=f"{case_id}-{bad}")
    for case_id, _, case in FIELD_CASES
    for bad, make in [
        *BAD.items(),
        *((bad, make) for bad, (make, dtypes) in BAD_INTEGER.items() if case.dtype in dtypes),
    ]
]


@pytest.mark.parametrize(("case", "make"), BAD_CASES)
def test_bad_arrays_are_domain_errors_without_warnings(case, make):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(case.error):
            case.build(make(case.valid()))


def test_fractional_and_overflowing_counts_are_not_truncated():
    probs = pr_box().probs
    with pytest.raises(DomainError, match="integers"):
        Behavior(probs, np.full((4, 4), 2.5))
    with pytest.raises(DomainError, match="integers"):
        ReshuffleProblem(np.full((4, 4), 1e20))
    with pytest.raises(DomainError, match="integers"):
        CounterfactualTable([[1, 1, 300, 1]])
    assert Behavior(probs, np.full((4, 4), 2.0)).counts.dtype == np.int64


def test_values_compare_and_hash_by_value():
    assert pr_box() == pr_box()
    assert hash(pr_box()) == hash(pr_box())
    assert singlet() == singlet()
    assert len({pr_box(), pr_box(), Behavior(np.full((4, 4), 0.25))}) == 2
    assert per_pair_b_values_calibrated(1.0, PointerConfig(), 3, 1) == per_pair_b_values_calibrated(
        1.0, PointerConfig(), 3, 1
    )
    assert Behavior(pr_box().probs) != Behavior(pr_box().probs, np.array(PR_BOX_COUNTS))


def test_derived_and_constant_arrays_are_read_only():
    run = PointerRun(np.ones((2, 4)), PointerConfig(), "test")
    assert not run.b_values.flags.writeable
    assert not PROJECTION.flags.writeable


@settings(max_examples=50, deadline=None)
@given(
    nph.arrays(np.float64, st.tuples(st.integers(1, 6), st.just(4)),
               elements=st.floats(-1e3, 1e3, allow_nan=False)),
    st.data(),
)
def test_pointer_runs_compare_by_value(readings, data):
    config = PointerConfig(1.5, 0.0)
    run = PointerRun(readings, config, "test")
    flipped = np.where(readings == 0, -readings, readings)
    assert run == PointerRun(flipped, config, "test")
    assert hash(run) == hash(PointerRun(flipped, config, "test"))
    changed = readings.copy()
    changed.flat[data.draw(st.integers(0, readings.size - 1))] += 1.0
    assert run != PointerRun(changed, config, "test")
    assert run != PointerRun(readings, PointerConfig(2.0, 0.0), "test")


CHSH_CERTIFICATE = Certificate(2.5, (1, 1, 1, -1))
# value type's check -> (a build that fails it, the start of its message)
GUARDS = {
    "SignalingReport-negative-deficit": (lambda: SignalingReport(0.0, -0.25), "signaling deficits cannot be negative"),
    "JointDistribution-negative-weight": (
        lambda: JointDistribution([-0.25, 1.25] + [0.0] * 14), "negative weight -2.500e-01"),
    "JointDistribution-bad-sum": (
        lambda: JointDistribution(np.full(16, 0.125)), "weights sum to 2.0, not 1 within 1e-10"),
    "Certificate-chsh-not-a-pattern": (
        lambda: Certificate(2.5, (1, 1, 1, 1)),
        "chsh certificate signs must be one of the 8 CHSH sign patterns, got (1, 1, 1, 1)"),
    "FeasibilityResult-witness-and-certificate": (
        lambda: FeasibilityResult(0.0, witness=UNIFORM_JOINT, certificate=CHSH_CERTIFICATE),
        "exactly one of witness/certificate"),
    "FeasibilityResult-neither": (lambda: FeasibilityResult(0.0), "exactly one of witness/certificate"),
    "FeasibilityResult-feasible-residual": (
        lambda: FeasibilityResult(0.5, witness=UNIFORM_JOINT), "feasible result with residual 5.000e-01"),
    "ExperimentBundle-three-datasets": (
        lambda: ExperimentBundle(tuple(ContextDataset(c, [[1, 1]]) for c in CANONICAL_CONTEXTS[:3])),
        "a bundle needs exactly 4 datasets, got 3"),
    "StudyRow-CI-excludes-frequency": (
        lambda: StudyRow(n=10, trials=20, frequency=0.5, ci_lo=0.55, ci_hi=0.9, mean_s=2.1, sd_s=0.3, z=0.3),
        "CI (0.55, 0.9) must contain frequency 0.5"),
}


@pytest.mark.parametrize("build, message", GUARDS.values(), ids=GUARDS)
def test_value_guards_raise_their_message(build, message):
    with pytest.raises(DomainError) as raised:
        build()
    assert str(raised.value).startswith(message)


def test_kind_and_status_follow_from_what_is_carried():
    assert Certificate(0.5).kind == "marginal-inconsistency"
    assert CHSH_CERTIFICATE.kind == "chsh"
    feasible = FeasibilityResult(0.0, witness=UNIFORM_JOINT)
    assert (feasible.status, feasible.feasible) == ("feasible", True)
    infeasible = FeasibilityResult(0.5, certificate=CHSH_CERTIFICATE)
    assert (infeasible.status, infeasible.feasible) == ("infeasible", False)
