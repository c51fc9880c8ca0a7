"""Every public callable, given values of its parameters' annotated types, returns or raises a BellSimError.

The public API is the names in each module's ``__all__``.  Each callable there
(function or class) is called with every combination of fixed pools of values
of its annotated parameter types, up to ``LIMIT`` combinations a callable:
hostile numbers, arrays and sequences; a missing path, a directory and a file
that is not UTF-8; and one valid instance of each value class.  A call must
return, raise a ``BellSimError``, or, when it was given a path, raise
``OSError``, which the CLI maps to exit 1.  Warnings are errors, as in the
suite's settings.

Arguments of the wrong type (``None`` where a ``Behavior`` is annotated) are out
of scope.  Known findings are listed in ``ALLOWED`` with a reason each; the
check fails on a new finding, on an allowed callable that no longer fails, and
on a callable that no pool could call at all.
"""

import collections.abc
import importlib
import inspect
import itertools
import math
import pkgutil
import random
import types
import typing
import warnings
from collections.abc import Callable, Iterator, Mapping
from pathlib import Path

import numpy as np
import pytest

import bellsim
from bellsim.behaviors import Behavior, SignalingReport, behavior_streams, no_signaling, pr_box
from bellsim.core import (
    OUTCOME_PAIRS,
    Context,
    ContextDataset,
    ContextStreams,
    CounterfactualTable,
    ExperimentBundle,
    project_bundle,
)
from bellsim.errors import BellSimError, DomainError
from bellsim.feasibility import (
    Certificate,
    FeasibilityResult,
    JointDistribution,
    ReshuffleProblem,
    fine_feasible_lp,
    reshuffle_problem_from_table,
)
from bellsim.lhv import MixtureModel, boundary_mixture_model, sample_counterfactual_table
from bellsim.quantum import TSIRELSON_ANGLES, AngleQuadruple, DensityMatrix, singlet
from bellsim.stats import (
    BundleGenerator,
    StudyResult,
    StudyRow,
    ViolationStudy,
    generator_from_lhv,
    violation_frequency,
)
from bellsim.weak import PointerConfig, PointerRun, per_pair_b_values_lhv

# Modules whose ``__all__`` is public; ``_simplex`` is private, and the CLI and errors have no ``__all__``.
MODULES = [importlib.import_module(f"bellsim.{info.name}") for info in pkgutil.iter_modules(bellsim.__path__)
           if not info.name.startswith("_")]
LIMIT = 4000  # combinations per callable; above it a fixed sample of them

# Findings, as ``module.name``, each with why it stays.
ALLOWED = {
    "core.chsh_sum": "adds whatever it is given, as the scalar and array S functions need; strings end in a TypeError",
    "rng.categorical": "the reference draw, left as numpy's searchsorted; the maintainer decides (ROADMAP items 9, 17)",
}

INTS = (-1, 0, 3, np.int64(2), 2**70)
FLOATS = (math.nan, math.inf, -math.inf, -1.0, 0.0, 1.5)
STRINGS = ("", "x")
ARRAYS = (np.empty(0), np.zeros((2, 2)), np.full(3, np.nan), np.array(["a", "b"]), np.ones((4, 4)))
SEQUENCES = ([[1, 2], [3]], ["a", "b"], [math.nan] * 4, [1, 2, 3, 4])  # ragged, strings, NaN, four numbers


def value_instances() -> dict[type, object]:
    """One valid instance of each value class."""
    table = sample_counterfactual_table(boundary_mixture_model(), 8, 1)
    generator = generator_from_lhv(boundary_mixture_model())
    study = ViolationStudy(generator, 10, 3, 1)
    result = violation_frequency(study)
    return {
        Behavior: pr_box(),
        SignalingReport: no_signaling(pr_box()),
        Context: Context(1, 2),
        ContextDataset: ContextDataset(Context(1, 1), OUTCOME_PAIRS),
        ContextStreams: behavior_streams(pr_box()),
        CounterfactualTable: table,
        ExperimentBundle: project_bundle(table),
        MixtureModel: boundary_mixture_model(),
        DensityMatrix: singlet(),
        AngleQuadruple: TSIRELSON_ANGLES,
        JointDistribution: JointDistribution(np.full(16, 1 / 16)),
        Certificate: Certificate(4.0, (1, 1, 1, -1)),
        FeasibilityResult: fine_feasible_lp(pr_box()),
        ReshuffleProblem: reshuffle_problem_from_table(table),
        BundleGenerator: generator,
        ViolationStudy: study,
        StudyRow: result.rows[0],
        StudyResult: result,
        PointerConfig: PointerConfig(),
        PointerRun: per_pair_b_values_lhv(table, PointerConfig(), 1),
    }


def path_pool(directory: Path) -> tuple[Path, ...]:
    """A path under a missing directory, a directory, and a file that is not UTF-8."""
    directory.mkdir()
    (directory / "latin-1.txt").write_bytes("counts 1 1 = caf\xe9\n".encode("latin-1"))
    return directory / "missing" / "file", directory, directory / "latin-1.txt"


class Pools:
    """The values tried for each annotation; an annotation with no pool gets none, so its callable is never called."""

    def __init__(self, directory: Path, instances: Mapping[type, object]) -> None:
        anything = (*INTS, *FLOATS, *STRINGS, *ARRAYS, *SEQUENCES)
        rng = np.random.default_rng(0)  # one per callable, so each callable's calls are fixed
        self.known = {int: INTS, float: FLOATS, str: STRINGS, np.ndarray: ARRAYS, type(None): (None,),
                      object: anything, typing.Any: anything, Path: path_pool(directory),
                      np.random.Generator: (rng,), **{cls: (value,) for cls, value in instances.items()}}

    def __call__(self, annotation: object) -> tuple:
        origin, args = typing.get_origin(annotation), typing.get_args(annotation)
        if annotation in self.known:
            return self.known[annotation]
        if origin in (typing.Union, types.UnionType):
            return tuple(itertools.chain.from_iterable(map(self, args)))
        if origin is collections.abc.Callable:
            return (float,)
        if origin is collections.abc.Mapping:
            return ({}, dict(zip(*map(self, args))))
        if origin is tuple and ... not in args:  # fixed length: the k-th value of each element's pool
            elements = [self(arg) for arg in args]
            diagonal = [tuple(pool[k % len(pool)] for pool in elements) for k in range(max(map(len, elements)))]
            return (*SEQUENCES, *ARRAYS, *diagonal)
        if origin in (tuple, list, collections.abc.Sequence, collections.abc.Iterable):  # four of each element value
            return (*SEQUENCES, *ARRAYS, *([value] * 4 for value in self(args[0])))
        return ()


def calls(fn: Callable, pools: Pools, name: str) -> Iterator[tuple[list, dict]]:
    """(args, kwargs) of every combination of the parameters' values, or a fixed sample of ``LIMIT`` of them.

    An omitted default and an empty ``*args`` are among a parameter's values.
    With a ``*args`` every value is passed by position, else by keyword.
    """
    hints, params = typing.get_type_hints(fn), list(inspect.signature(fn).parameters.values())
    positional = any(param.kind is param.VAR_POSITIONAL for param in params)
    pools_of = []
    for param in params:
        values = pools(hints.get(param.name))
        optional = param.default is not param.empty or param.kind is param.VAR_POSITIONAL
        pools_of.append((inspect.Parameter.empty, *values) if optional and values else values)
    sizes = [len(values) for values in pools_of]
    total = math.prod(sizes)
    for index in range(total) if total <= LIMIT else sorted(random.Random(name).sample(range(total), LIMIT)):
        chosen = [values[digit] for values, digit in zip(pools_of, np.unravel_index(index, sizes))]
        given = [(param, value) for param, value in zip(params, chosen) if value is not inspect.Parameter.empty]
        if positional:
            yield [value for _, value in given], {}
        else:
            yield [], {param.name: value for param, value in given}


def finding(fn: Callable, args: list, kwargs: dict) -> str | None:
    """The repr of what the call raised if the standing rule forbids it, else None.

    An ``OSError`` is allowed only for a call that was given a path.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fn(*args, **kwargs)
    except BellSimError:
        return None
    except OSError as exc:
        return None if any(isinstance(value, Path) for value in (*args, *kwargs.values())) else repr(exc)
    except Exception as exc:  # any other exception is the finding
        return repr(exc)
    return None


def misuse_report(targets: Mapping[str, Callable], allowed: Mapping[str, str], directory: Path) -> list[str]:
    """The probe's problems: each target never called, each new finding, each allowed target that no longer fails."""
    instances, problems = value_instances(), []
    for name, fn in targets.items():
        count, first = 0, None
        for args, kwargs in calls(fn, Pools(directory / name, instances), name):
            count += 1
            raised = finding(fn, args, kwargs)
            if raised is not None:
                first = f"{name}(*{args!r}, **{kwargs!r}) raises {raised}"
                break
        if count == 0:
            problems.append(f"{name}: never called; an annotation has no pool")
        elif first is not None and name not in allowed:
            problems.append(first)
        elif first is None and name in allowed:
            problems.append(f"{name}: allowed, but no longer fails")
    return problems


def public_callables() -> dict[str, Callable]:
    """``module.name`` of each callable in a public module's ``__all__``."""
    return {f"{module.__name__.rpartition('.')[2]}.{name}": getattr(module, name)
            for module in MODULES for name in getattr(module, "__all__", ()) if callable(getattr(module, name))}


def test_public_callables_raise_only_bellsim_errors(tmp_path):
    assert misuse_report(public_callables(), ALLOWED, tmp_path) == []


def test_every_allowed_finding_has_a_reason():
    assert [name for name, reason in ALLOWED.items() if not reason.strip()] == []


def raises_value_error(x: int) -> None:
    raise ValueError("bad")


def raises_domain_error(x: int) -> None:
    raise DomainError("bad")


def raises_os_error(x: int) -> None:
    raise OSError("bad")


def opens(path: Path) -> None:
    path.open("rb").close()


def warns(x: float) -> None:
    warnings.warn("bad", RuntimeWarning)


def returns(x: int, y: str = "") -> None:
    return None


def takes_complex(x: complex) -> None:
    return None


@pytest.mark.parametrize(
    ("fn", "allowed", "problems"),
    [
        (raises_value_error, {}, ["raises_value_error(*[], **{'x': -1}) raises ValueError('bad')"]),
        (raises_value_error, {"raises_value_error": "why"}, []),
        (raises_domain_error, {}, []),
        (raises_os_error, {}, ["raises_os_error(*[], **{'x': -1}) raises OSError('bad')"]),
        (opens, {}, []),
        (warns, {}, ["warns(*[], **{'x': nan}) raises RuntimeWarning('bad')"]),
        (returns, {}, []),
        (returns, {"returns": "why"}, ["returns: allowed, but no longer fails"]),
        (takes_complex, {}, ["takes_complex: never called; an annotation has no pool"]),
    ],
    ids=["value-error", "value-error-allowed", "domain-error", "os-error-without-a-path", "os-error-of-a-path",
         "warning", "returns", "allowed-but-returns", "no-pool"],
)
def test_misuse_report_cases(tmp_path, fn, allowed, problems):
    assert misuse_report({fn.__name__: fn}, allowed, tmp_path) == problems


def test_calls_cover_every_combination_and_sample_above_the_limit(tmp_path):
    pools = Pools(tmp_path / "pools", {})
    combinations = list(calls(returns, pools, "returns"))
    assert len(combinations) == len(INTS) * (1 + len(STRINGS))  # y omitted, or each string
    assert ([], {"x": -1}) in combinations and ([], {"x": 2**70, "y": "x"}) in combinations

    def many(a: float, b: float, c: float, d: float, e: float) -> None: ...

    assert len(list(calls(many, pools, "many"))) == LIMIT < len(FLOATS) ** 5
