"""In-memory span tracer for the traced benchmark run.

Wraps bellsim's public functions from the benchmark's side: each target is
replaced in every ``bellsim.*`` module that binds it (for example
``bellsim.lhv.spawn_rng`` and ``bellsim.cli.cmd_feasibility``), and the two
dataclasses are traced through their ``__post_init__`` validation.  No
program source changes.  A span is (name, start, end, parent index,
request), where a request is one call of a round; spans stay in memory until
the run ends and are reduced per round there.  A span's self time is its
duration minus the durations of its child spans (single-threaded, so
children never overlap), scaled to nominal seconds by its request's factor
(see reference.py).
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from collections import defaultdict
from collections.abc import Callable
from typing import Any

Counter = Callable[["Tracer", tuple, Any], None]  # (tracer, positional args, result)


def _draws(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("rng.categorical.draws", int(result.size))


def _pairs(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("core.ContextDataset.pairs", int(args[0].pairs.shape[0]))


def _written(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("fileio.write_bundle_csv.bytes", os.path.getsize(args[0]))


def _read(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("fileio.read_bundle_csv.bytes", os.path.getsize(args[0]))


def _integrality(tracer: Tracer, args: tuple, result: Any) -> None:
    if result.feasible and args[0].slack == 0.0:
        tracer.add("feasibility.integer_base", 1)
        tracer.add("feasibility.integer_results", int(result.integrality == "integer"))


# (span name, defining module, attribute, counter).  "Class.__post_init__"
# attributes are patched on the class; functions wherever a module binds them.
TARGETS: tuple[tuple[str, str, str, Counter | None], ...] = (
    ("rng.derive_seed", "bellsim.rng", "derive_seed", None),
    ("rng.spawn_rng", "bellsim.rng", "spawn_rng", None),
    ("rng.categorical", "bellsim.rng", "categorical", _draws),
    ("core.ContextDataset", "bellsim.core", "ContextDataset.__post_init__", _pairs),
    ("core.ExperimentBundle", "bellsim.core", "ExperimentBundle.__post_init__", None),
    ("core.s_statistic", "bellsim.core", "s_statistic", None),
    ("lhv.sample_bundle", "bellsim.lhv", "sample_bundle", None),
    ("lhv.sample_counterfactual_table", "bellsim.lhv", "sample_counterfactual_table", None),
    ("lhv.validate_model", "bellsim.lhv", "validate_model", None),
    ("lhv.exact_lhv_s", "bellsim.lhv", "exact_lhv_s", None),
    ("quantum.sample_bundle_quantum", "bellsim.quantum", "sample_bundle_quantum", None),
    ("quantum.born_probabilities", "bellsim.quantum", "born_probabilities", None),
    ("quantum.optimize_angles", "bellsim.quantum", "optimize_angles", None),
    ("behaviors.behavior_from_bundle", "bellsim.behaviors", "behavior_from_bundle", None),
    ("stats.significance_curve", "bellsim.stats", "significance_curve", None),
    ("stats.standard_error_s", "bellsim.stats", "standard_error_s", None),
    ("feasibility.fine_feasible_lp", "bellsim.feasibility", "fine_feasible_lp", None),
    ("feasibility.reshuffle_feasible", "bellsim.feasibility", "reshuffle_feasible", _integrality),
    ("simplex.phase1_solve", "bellsim._simplex", "phase1_solve", None),
    ("weak.per_pair_b_values_calibrated", "bellsim.weak", "per_pair_b_values_calibrated", None),
    ("weak.per_pair_b_values_lhv", "bellsim.weak", "per_pair_b_values_lhv", None),
    ("fileio.write_bundle_csv", "bellsim.fileio", "write_bundle_csv", _written),
    ("fileio.read_bundle_csv", "bellsim.fileio", "read_bundle_csv", _read),
    ("fileio.read_behavior", "bellsim.fileio", "read_behavior", None),
    ("cli.main", "bellsim.cli", "main", None),
    ("cli.cmd_simulate_lhv", "bellsim.cli", "cmd_simulate_lhv", None),
    ("cli.cmd_simulate_quantum", "bellsim.cli", "cmd_simulate_quantum", None),
    ("cli.cmd_feasibility", "bellsim.cli", "cmd_feasibility", None),
    ("cli.cmd_violation_curve", "bellsim.cli", "cmd_violation_curve", None),
    ("cli.cmd_weak_bvalues", "bellsim.cli", "cmd_weak_bvalues", None),
)


class Tracer:
    """Records spans and counters for the rounds run while it is installed."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [name, start, end, parent index, request]
        self.counters: list[tuple[int, str, int]] = []  # (request, name, amount)
        self.request = 0
        self.round_of: dict[int, int] = {}  # request -> round
        self.scale_of: dict[int, float] = {}  # request -> wall-to-nominal factor
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def add(self, name: str, amount: int) -> None:
        self.counters.append((self.request, name, amount))

    def _wrap(self, name: str, fn: Callable, counter: Counter | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if counter is not None:
                counter(self, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "bellsim" or key.startswith("bellsim.")]
        for name, module, attribute, counter in TARGETS:
            owner: Any = sys.modules[module]
            if "." in attribute:
                cls_name, attribute = attribute.split(".")
                owner = getattr(owner, cls_name)
                self._patch(owner, attribute, self._wrap(name, getattr(owner, attribute), counter))
                continue
            fn = getattr(owner, attribute)
            wrapped = self._wrap(name, fn, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner: Any, attribute: str, value: Any) -> None:
        self._undo.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, value = self._undo.pop()
            setattr(owner, attribute, value)

    def per_round(self) -> dict[int, dict[str, float]]:
        """Per round: ``<span>.calls``, ``<span>.self_s`` and every counter's total."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        rounds: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for (name, start, end, _, request), children in zip(self.spans, child_time):
            values = rounds[self.round_of[request]]
            values[f"{name}.calls"] += 1
            values[f"{name}.self_s"] += (end - start - children) * self.scale_of[request]
        for request, name, amount in self.counters:
            rounds[self.round_of[request]][name] += amount
        return {rnd: dict(values) for rnd, values in rounds.items()}


def layer_metrics(per_round: dict[int, dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median self times over rounds; counts, which must repeat exactly in every round.

    Returns the metrics and a list of counts that differed between rounds.
    """
    rounds = [per_round[r] for r in sorted(per_round)]
    names = sorted({name for values in rounds for name in values})
    metrics: dict[str, float] = {}
    mismatched = []
    for name in names:
        values = [values.get(name, 0.0) for values in rounds]
        if name.endswith("_s"):
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = int(values[0])
            if any(v != values[0] for v in values):
                mismatched.append(f"{name} differs between traced rounds: {values}")
    base = metrics.get("feasibility.integer_base", 0.0)
    metrics["feasibility.integer_ratio"] = (
        metrics.get("feasibility.integer_results", 0.0) / base if base else 0.0
    )
    metrics["cli.calls"] = metrics.get("cli.main.calls", 0)
    return metrics, mismatched
