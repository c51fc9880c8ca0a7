"""Command-line front end: reproducible batch experiments emitting CSV + JSON.

Subcommands: simulate-lhv, simulate-quantum, feasibility, violation-curve,
weak-bvalues.  Every simulation requires an explicit --seed (no wall-clock
default), every output embeds the resolved spec, seed, and package version,
and re-running a spec reproduces all files byte for byte.

Exit codes: 0 success/feasible, 1 runtime error, 2 configuration error,
3 infeasible (feasibility subcommand only).

bellsim.cli.main(argv) can be called many times in one process: the parser
is built on the first call and reused, and each subcommand function is
looked up when it is called.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import re
import sys
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .behaviors import behavior_from_bundle, behavior_s
from .core import ExperimentBundle, b_statistic, s_statistic
from .errors import BellSimError, ConfigError, DomainError, NumericError
from .fileio import (
    STUDY_KEYS,
    read_behavior,
    read_bundle_csv,
    read_density,
    read_keyvalue,
    read_model,
    write_bundle_csv,
    write_curve_csv,
    write_records_csv,
)
from .lhv import ANGLE_KEYS, MixtureModel, exact_lhv_s, model_from_mapping, sample_bundle, sample_counterfactual_table
from .quantum import (
    TSIRELSON_ANGLES,
    TSIRELSON_BOUND,
    AngleQuadruple,
    DensityMatrix,
    maximally_mixed,
    s_quantum,
    sample_bundle_quantum,
    singlet,
)
from .feasibility import FeasibilityResult, ReshuffleProblem, fine_feasible_lp, reshuffle_feasible
from .rng import derive_seed
from .stats import (
    BundleGenerator,
    generator_from_behavior,
    generator_from_lhv,
    generator_from_quantum,
    significance_curve,
    standard_error_s,
)
from .weak import PointerConfig, exceedance_fraction, per_pair_b_values_calibrated, per_pair_b_values_lhv

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3


def _spec_hash(spec: dict[str, Any]) -> str:
    canonical = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _write_json(path: Path, payload: dict[str, Any]) -> None:
    """Write the payload as JSON; NaN and infinities, which JSON cannot represent, are errors."""
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"{path.name}: {exc}") from exc
    path.write_bytes(f"{text}\n".encode())


def _run_record(spec: dict[str, Any]) -> dict[str, Any]:
    return {
        "command": spec["subcommand"],
        "spec": spec,
        "spec_hash": _spec_hash(spec),
        "version": __version__,
    }


def _csv_preamble(spec: dict[str, Any]) -> dict[str, Any]:
    return {"bellsim-version": __version__, "spec-hash": _spec_hash(spec)}


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# The flags each LHV variant reads; violation-curve records them in its spec.
_VARIANT_FLAGS = {
    "deterministic": ("outcomes",),
    "sign_cosine": ("angles", "bob_sign"),
    "boundary_mixture": (),
}


def _lhv_model(args: argparse.Namespace, name: str | None = None) -> MixtureModel:
    """Build the LHV model ``name``: "model" reads --model FILE, a variant reads its flags.

    Without a name (simulate-lhv, weak-bvalues), --model FILE wins over --variant.
    """
    name = name or ("model" if args.model else args.variant)
    if name == "model":
        if not args.model:
            raise ConfigError("--generator model needs --model FILE")
        return read_model(Path(args.model))
    if name is None:
        raise ConfigError("specify an LHV model via --model FILE or --variant NAME")
    mapping: dict[str, Any] = {"variant": name}
    if name == "deterministic":
        mapping["outcomes"] = args.outcomes
    if name == "sign_cosine":
        mapping.update(zip(ANGLE_KEYS, args.angles or ()), bob_sign=args.bob_sign)
    return model_from_mapping(mapping)


# The named quantum states of --state and --generator.
_STATES = {"singlet": singlet, "mixed": maximally_mixed}


def _state_from_args(args: argparse.Namespace) -> tuple[DensityMatrix, str]:
    if args.rho:
        return read_density(Path(args.rho)), f"file:{args.rho}"
    return _STATES[args.state](), args.state


def _angles_from_args(args: argparse.Namespace) -> AngleQuadruple:
    if args.angles is None:
        return TSIRELSON_ANGLES
    return AngleQuadruple(*args.angles)


def _write_simulation(
    args: argparse.Namespace,
    spec: dict[str, Any],
    bundle: ExperimentBundle,
    exact: float,
    **extra: Any,
) -> int:
    """Write bundle.csv, summary.json and run.json for a simulate-* command."""
    out = _out_dir(args)
    write_bundle_csv(out / "bundle.csv", bundle, {**_csv_preamble(spec), "seed": args.seed})
    record = _run_record(spec)
    summary = {
        "s_hat": s_statistic(bundle),
        "standard_error": standard_error_s(bundle) if args.n >= 2 else None,
        "exact_s": exact,
        "n_per_context": args.n,
        "seed": args.seed,
        **extra,
        **record,
    }
    _write_json(out / "summary.json", summary)
    _write_json(out / "run.json", record)
    return EXIT_OK


def cmd_simulate_lhv(args: argparse.Namespace) -> int:
    model = _lhv_model(args)
    spec = {
        "subcommand": "simulate-lhv",
        "model": model.name,
        "n_per_context": args.n,
        "seed": args.seed,
    }
    bundle = sample_bundle(model, args.n, args.seed)
    return _write_simulation(args, spec, bundle, exact_lhv_s(model))


def cmd_simulate_quantum(args: argparse.Namespace) -> int:
    rho, state_label = _state_from_args(args)
    angles = _angles_from_args(args)
    spec = {
        "subcommand": "simulate-quantum",
        "state": state_label,
        "angles": list(angles.as_tuple()),
        "convention": args.convention,
        "n_per_context": args.n,
        "seed": args.seed,
    }
    if args.convention == "photon":  # polarizer angles are half their Bloch angles
        angles = AngleQuadruple(*(2.0 * a for a in angles.as_tuple()))
    bundle = sample_bundle_quantum(rho, angles, args.n, args.seed)
    exact = s_quantum(rho, angles)
    return _write_simulation(args, spec, bundle, exact, tsirelson_margin=TSIRELSON_BOUND - abs(exact))


def _feasibility_payload(result: FeasibilityResult) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "status": result.status,
        "residual": result.residual,
    }
    if result.witness is not None:
        payload["witness_weights"] = [float(w) for w in result.witness.weights]
    if result.witness_counts is not None:
        payload["witness_counts"] = result.witness_counts.tolist()  # JSON ints for an integer witness
    if result.integrality is not None:
        payload["integrality"] = result.integrality
    if result.certificate is not None:
        payload["certificate"] = {
            "kind": result.certificate.kind,
            "value": result.certificate.value,
            "signs": list(result.certificate.signs) if result.certificate.signs else None,
            "description": result.certificate.describe(),
        }
    return payload


def cmd_feasibility(args: argparse.Namespace) -> int:
    if (args.behavior is None) == (args.bundle is None):
        raise ConfigError("provide exactly one of --behavior FILE or --bundle FILE")
    if not 0.0 <= args.slack < math.inf:  # NaN fails too
        raise ConfigError(f"--slack must be finite and >= 0, got {args.slack}")
    if args.level == "distribution" and args.slack > 0:
        raise ConfigError(f"--slack {args.slack} needs --level counts; the distribution level has no slack")
    if args.behavior:
        source = {"behavior_file": args.behavior}
        behavior = read_behavior(Path(args.behavior))
        level = args.level or ("counts" if args.slack > 0 else "distribution")
    else:
        source = {"bundle_file": args.bundle}
        bundle = read_bundle_csv(Path(args.bundle))
        behavior = behavior_from_bundle(bundle)
        level = args.level or "counts"
    if level == "counts":
        if behavior.counts is None:
            raise ConfigError("count-level feasibility needs counts (bundle input or a behavior file with counts)")
        result = reshuffle_feasible(ReshuffleProblem(behavior.counts, args.slack))
    else:
        result = fine_feasible_lp(behavior)
    spec = {"subcommand": "feasibility", **source, "level": level, "slack": args.slack}
    out = _out_dir(args)
    payload = {
        "behavior_s": behavior_s(behavior),
        **_feasibility_payload(result),
        **_run_record(spec),
    }
    _write_json(out / "result.json", payload)
    return EXIT_OK if result.feasible else EXIT_INFEASIBLE


def _generator_from_args(args: argparse.Namespace) -> tuple[BundleGenerator, dict[str, Any]]:
    name = args.generator
    if name == "behavior":
        if not args.behavior:
            raise ConfigError("--generator behavior needs --behavior FILE")
        behavior = read_behavior(Path(args.behavior))
        return generator_from_behavior(behavior), {"generator": "behavior", "file": args.behavior}
    if name in _STATES:
        angles = _angles_from_args(args)
        spec = {"generator": name, "angles": list(angles.as_tuple())}
        return generator_from_quantum(_STATES[name](), angles), spec
    if name != "model" and name not in _VARIANT_FLAGS:
        raise ConfigError(f"unknown generator {name!r}")
    model = _lhv_model(args, name)
    if name == "model":
        return generator_from_lhv(model), {"generator": "model", "model": model.name}
    spec = {"generator": name, **{flag: getattr(args, flag) for flag in _VARIANT_FLAGS[name]}}
    return generator_from_lhv(model), spec


def cmd_violation_curve(args: argparse.Namespace) -> int:
    if args.spec:
        vars(args).update(read_keyvalue(Path(args.spec), STUDY_KEYS))
    for field, label in ((args.generator, "--generator"), (args.n, "--n"),
                         (args.trials, "--trials"), (args.seed, "--seed")):
        if field is None:
            raise ConfigError(f"{label} is required (on the command line or in --spec)")
    generator, generator_spec = _generator_from_args(args)
    n_values = sorted(set(args.n))
    spec = {
        "subcommand": "violation-curve",
        **generator_spec,
        "n_values": n_values,
        "trials": args.trials,
        "threshold": args.threshold,
        "mode": args.mode,
        "seed": args.seed,
    }
    result = significance_curve(
        generator, n_values, args.trials, args.seed, threshold=args.threshold, mode=args.mode
    )
    out = _out_dir(args)
    preamble = {**_csv_preamble(spec), "seed": args.seed, "exact-s": generator.exact_s}
    write_curve_csv(out / "curve.csv", result, preamble)
    record = _run_record(spec)
    record["exact_s"] = generator.exact_s
    record["final_frequency"] = result.violation_frequency
    record["final_ci95"] = list(result.frequency_ci95)
    _write_json(out / "run.json", record)
    return EXIT_OK


def cmd_weak_bvalues(args: argparse.Namespace) -> int:
    config = PointerConfig(args.g, args.sigma)
    if args.source == "calibrated":
        if args.target_s is None:
            raise ConfigError("--source calibrated needs --target-s")
        run = per_pair_b_values_calibrated(args.target_s, config, args.n, args.seed)
        source_spec: dict[str, Any] = {"source": "calibrated", "target_s": args.target_s}
        reference = args.target_s
    else:
        model = _lhv_model(args)
        table = sample_counterfactual_table(model, args.n, derive_seed(args.seed, "weak-source"))
        run = per_pair_b_values_lhv(table, config, args.seed)
        source_spec = {"source": "lhv", "model": model.name}
        reference = b_statistic(table)
    spec = {
        "subcommand": "weak-bvalues",
        **source_spec,
        "n": args.n,
        "g": args.g,
        "sigma": args.sigma,
        "seed": args.seed,
    }
    b = run.b_values
    with np.errstate(all="ignore"):  # a sum past float64's range ends as inf, rejected below
        mean_b, sd_b = float(b.mean()), float(b.std(ddof=1)) if len(b) > 1 else 0.0
    if not (math.isfinite(mean_b) and math.isfinite(sd_b)):
        raise DomainError(f"b-value mean {mean_b} or sd {sd_b} overflows float64")
    out = _out_dir(args)
    write_records_csv(out / "records.csv", run, {**_csv_preamble(spec), "seed": args.seed})
    summary = {
        "mean_b": mean_b,
        "sd_b": sd_b,
        "exceedance_2": exceedance_fraction(b, 2.0),
        "exceedance_tsirelson": exceedance_fraction(b, TSIRELSON_BOUND),
        "reference_value": reference,
        "source_description": run.description,
        **_run_record(spec),
    }
    _write_json(out / "summary.json", summary)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads ``-1e-05`` as a negative number, not an option flag.

    argparse only recognizes plain negative decimals (``-0.5``), so a float list
    such as ``--angles 0 -1e-05 0.7 -0.7`` (``optimize_angles`` can return tiny
    negative angles) would stop at the exponent form.  Subparsers inherit the class.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _add_model_flags(parser: argparse.ArgumentParser, model_help: str) -> None:
    parser.add_argument("--model", help=model_help)
    parser.add_argument("--outcomes", type=int, nargs=4, metavar=("A1", "A2", "B1", "B2"))
    parser.add_argument("--angles", type=float, nargs=4, metavar=("A1", "A2", "B1", "B2"))
    parser.add_argument("--bob-sign", type=float, default=-1.0, choices=[-1.0, 1.0])


def _add_seed_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, required=True, help="master seed (required; no wall-clock default)")
    parser.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bellsim", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate-lhv", help="sample a four-context bundle from an LHV model")
    p.add_argument("--variant", choices=list(_VARIANT_FLAGS))
    _add_model_flags(p, "model specification file")
    p.add_argument("--n", type=int, required=True, help="pairs per context")
    _add_seed_out(p)

    p = sub.add_parser("simulate-quantum", help="sample a bundle from a two-qubit state")
    p.add_argument("--state", choices=list(_STATES), default="singlet")
    p.add_argument("--rho", help="density matrix file (16 're im' lines)")
    p.add_argument("--angles", type=float, nargs=4, metavar=("A1", "A2", "B1", "B2"),
                   help="setting angles in radians (default: Tsirelson-optimal)")
    p.add_argument("--convention", choices=["spin", "photon"], default="spin",
                   help="spin: --angles are Bloch-sphere angles; photon: polarizer angles, doubled "
                        "to Bloch angles (run.json records them as given)")
    p.add_argument("--n", type=int, required=True)
    _add_seed_out(p)

    p = sub.add_parser("feasibility", help="joint-distribution feasibility of a behavior or bundle")
    p.add_argument("--behavior", help="behavior file")
    p.add_argument("--bundle", help="bundle CSV file")
    p.add_argument("--level", choices=["distribution", "counts"],
                   help="default: distribution for --behavior, counts for --bundle")
    p.add_argument("--slack", type=float, default=0.0, help="per-context L1 slack in counts")
    p.add_argument("--out", required=True)

    p = sub.add_parser("violation-curve", help="violation frequency and z-score per sample size")
    p.add_argument("--spec", help="study spec file ('key = value'); its values take precedence over flags")
    p.add_argument("--generator",
                   choices=[*_VARIANT_FLAGS, "model", "behavior", *_STATES])
    p.add_argument("--behavior", help="behavior file for --generator behavior")
    _add_model_flags(p, "model file for --generator model")
    p.add_argument("--n", type=int, nargs="+", help="per-context sample sizes")
    p.add_argument("--trials", type=int)
    p.add_argument("--threshold", type=float, default=2.0)
    p.add_argument("--mode", choices=["signed", "absolute"], default="signed")
    p.add_argument("--seed", type=int, help="master seed (here or in --spec; no wall-clock default)")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("weak-bvalues", help="per-pair pointer B-values and exceedance fractions")
    p.add_argument("--source", choices=["calibrated", "lhv"], required=True)
    p.add_argument("--target-s", type=float, help="symmetry center for the calibrated source")
    p.add_argument("--variant", choices=list(_VARIANT_FLAGS))
    _add_model_flags(p, "LHV model file for --source lhv")
    p.add_argument("--n", type=int, required=True, help="number of pairs")
    p.add_argument("--g", type=float, default=1.0, help="readout gain")
    p.add_argument("--sigma", type=float, default=1.0, help="pointer spread per reading")
    _add_seed_out(p)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # looked up per call, so a cmd_* rebound after the parser is built (a tracer, a test) is the one run
    command = globals()["cmd_" + args.subcommand.replace("-", "_")]
    try:
        return command(args)
    except (ConfigError, DomainError) as exc:
        print(f"bellsim: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericError, BellSimError) as exc:
        print(f"bellsim: runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:  # an n within sample_size's bound can still exceed memory
        print(f"bellsim: runtime error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"bellsim: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
