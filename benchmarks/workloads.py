"""The benchmark's workloads: seeded inputs, one round of calls, and a check per call.

A workload run repeats its round -- the same calls on the same inputs -- in a
closed loop with one client: each call starts when the previous one returns,
as batch users and sweep scripts call the CLI.  Inputs (flags, behavior
files, density matrices, projected tables) are made from the workload seed
by this module's own numpy code, before any timing, so a change to bellsim's
samplers never changes what the benchmark feeds it.  The expected results
the checks compare against are computed here too, independently of bellsim:
closed-form exact S values, Fine's CHSH criterion, and count projections.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

TSIRELSON = 2.0 * math.sqrt(2.0)
TSIRELSON_ANGLES = (0.0, math.pi / 2.0, math.pi / 4.0, -math.pi / 4.0)
CHSH_SIGNS = np.array([1.0, 1.0, 1.0, -1.0])
# Canonical context order (1,1), (1,2), (2,1), (2,2) as (alice setting, bob setting).
CONTEXTS = ((1, 1), (1, 2), (2, 1), (2, 2))
# Outcome pairs (+,+), (+,-), (-,+), (-,-): a*b weights.
PAIR_PRODUCT = np.array([1.0, -1.0, -1.0, 1.0])
# The 16 assignments (a1, a2, b1, b2), lexicographic with +1 first: the order of
# bellsim's witness_counts in feasibility result.json.
ASSIGNMENTS = np.array(list(itertools.product((1, -1), repeat=4)), dtype=np.int64)
CHSH_SIGN_PATTERNS = [np.array(s) for s in itertools.product((1, -1), repeat=4) if np.prod(s) == -1]
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])

EXACT_TOL = 1e-7  # bellsim's quadrature tolerance is 1e-8 per context
Z_LIMIT = 5.0  # a Monte Carlo estimate more than 5 standard errors off is a failure

# Sizes per scale.  "full" is what BENCHMARK.json runs; "tiny" is the self-test's.
SCALES: dict[str, dict[str, Any]] = {
    "full": {
        "bundle_n": 50_000,
        "bundle_curve_n": (1000,),
        "bundle_curve_trials": 40,
        "study_n": (100, 1000, 10_000),
        "study_trials": 200,
        "preview_n": 10_000,
        "sweep_points": 6,
        "sweep_n": 10_000,
        "sweep_curve_n": (100, 1000),
        "sweep_curve_trials": 50,
    },
    "tiny": {
        "bundle_n": 2_000,
        "bundle_curve_n": (100,),
        "bundle_curve_trials": 3,
        "study_n": (50, 200),
        "study_trials": 20,
        "preview_n": 500,
        "sweep_points": 2,
        "sweep_n": 500,
        "sweep_curve_n": (50,),
        "sweep_curve_trials": 10,
    },
}

Check = Callable[[Any, Path], list[str]]


@dataclass
class Op:
    """One call of a round: a CLI argv run through ``bellsim.cli.main``, or a library call."""

    label: str  # unique within the round; names the output directory
    command: str  # CLI subcommand, or the library function called
    out: Path
    check: Check
    argv: list[str] | None = None
    call: Callable[[], Any] | None = None


# ---------------------------------------------------------------- seeds


def child_seed(seed: int, *labels: object) -> int:
    """A 31-bit seed derived from the workload seed and a label path."""
    text = "/".join(str(part) for part in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "little") >> 1


def child_rng(seed: int, *labels: object) -> np.random.Generator:
    return np.random.default_rng(child_seed(seed, *labels))


def _floats(values: object) -> list[str]:
    """Shortest round-tripping decimals, never in exponent notation.

    bellsim's CLI reads ``--angles`` with argparse, which takes a value such
    as ``-1e-05`` for an option flag and exits with code 2; tiny negative
    angles from ``optimize_angles`` are written in full instead.
    """
    return [np.format_float_positional(float(v), unique=True, trim="0") for v in values]


# ---------------------------------------------------------------- exact values


BOUNDARY_CORRELATIONS = np.array([1.0, 0.0, 1.0, 0.0])  # bellsim's default boundary mixture


def sign_cosine_correlations(angles: tuple[float, ...]) -> np.ndarray:
    """Exact E_ij of the sign-cosine LHV model with bob_sign = -1: 2 d / pi - 1."""
    a1, a2, b1, b2 = angles
    values = []
    for i, j in CONTEXTS:
        a, b = (a1, a2)[i - 1], (b1, b2)[j - 1]
        d = abs((a - b + math.pi) % (2.0 * math.pi) - math.pi)  # angular distance in [0, pi]
        values.append(2.0 * d / math.pi - 1.0)
    return np.array(values)


def _observable(angle: float) -> np.ndarray:
    return math.cos(angle) * SIGMA_Z + math.sin(angle) * SIGMA_X


def quantum_correlations(rho: np.ndarray, angles: tuple[float, ...]) -> np.ndarray:
    """Exact E_ij = Tr(rho A_i x B_j), spin convention."""
    a1, a2, b1, b2 = angles
    return np.array([
        float(np.real(np.trace(rho @ np.kron(_observable((a1, a2)[i - 1]), _observable((b1, b2)[j - 1])))))
        for i, j in CONTEXTS
    ])


def s_value(correlations: np.ndarray) -> float:
    return float(CHSH_SIGNS @ correlations)


def s_hat_sd(correlations: np.ndarray, n: int) -> float:
    """Standard deviation of S-hat with n pairs per independent context."""
    return math.sqrt(float((1.0 - correlations**2).sum()) / n)


def singlet_matrix() -> np.ndarray:
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    return np.outer(psi, psi).astype(np.complex128)


def chsh_max(correlations: np.ndarray) -> float:
    """Largest of the eight signed CHSH forms of four context correlations."""
    return max(float(s @ correlations) for s in CHSH_SIGN_PATTERNS)


def marginals_consistent(counts: np.ndarray) -> bool:
    """Each party's per-setting +1 count is the same in both contexts that share it."""
    a_plus = counts[:, 0] + counts[:, 1]
    b_plus = counts[:, 0] + counts[:, 2]
    return bool(
        len(set(counts.sum(axis=1).tolist())) == 1
        and a_plus[0] == a_plus[1]
        and a_plus[2] == a_plus[3]
        and b_plus[0] == b_plus[2]
        and b_plus[1] == b_plus[3]
    )


def counts_feasible(counts: np.ndarray) -> bool:
    """Fine's criterion on count tables: consistent marginals and every CHSH form <= 2."""
    if not marginals_consistent(counts):
        return False
    correlations = (counts / counts.sum(axis=1, keepdims=True)) @ PAIR_PRODUCT
    return chsh_max(correlations) <= 2.0 + 1e-9


def projection_counts(assignment_counts: np.ndarray) -> np.ndarray:
    """Context count tables (4 x 4) induced by counts over the 16 assignments."""
    counts = np.zeros((4, 4))
    for c, (i, j) in enumerate(CONTEXTS):
        a = ASSIGNMENTS[:, i - 1]
        b = ASSIGNMENTS[:, 2 + j - 1]
        index = (1 - a) + (1 - b) // 2
        np.add.at(counts[c], index, assignment_counts)
    return counts


# ---------------------------------------------------------------- input files


def write_behavior_file(path: Path, probs: np.ndarray) -> None:
    lines = [
        f"context {i} {j} = " + " ".join(_floats(probs[c])) for c, (i, j) in enumerate(CONTEXTS)
    ]
    path.write_text("\n".join(lines) + "\n")


def write_density_file(path: Path, rho: np.ndarray) -> None:
    lines = [f"{float(v.real)!r} {float(v.imag)!r}" for v in rho.reshape(-1)]
    path.write_text("\n".join(lines) + "\n")


def write_bundle_file(path: Path, pairs_by_context: list[np.ndarray]) -> None:
    lines = ["trial,context_i,context_j,a,b"]
    for (i, j), pairs in zip(CONTEXTS, pairs_by_context):
        lines.extend(f"{k},{i},{j},{a},{b}" for k, (a, b) in enumerate(pairs.tolist()))
    path.write_text("\n".join(lines) + "\n")


def bundle_file_counts(data: bytes) -> np.ndarray:
    """Context count tables of a bundle CSV, parsed without bellsim."""
    lines = [line for line in data.splitlines() if line and not line.startswith(b"#")]
    body = b"\n".join(lines[1:])  # below the header
    rows = np.loadtxt(io.BytesIO(body), delimiter=",", dtype=np.int64, ndmin=2)
    counts = np.zeros((4, 4), dtype=np.int64)
    for c, (i, j) in enumerate(CONTEXTS):
        pairs = rows[(rows[:, 1] == i) & (rows[:, 2] == j)][:, 3:5]
        counts[c] = np.bincount((1 - pairs[:, 0]) + (1 - pairs[:, 1]) // 2, minlength=4)
    return counts


def random_no_signaling(rng: np.random.Generator) -> np.ndarray:
    """A no-signaling behavior whose CHSH value is not within 1e-6 of 2.

    Shared per-setting marginals make it no-signaling; each context's p(+,+)
    is uniform in its Frechet interval.  Behaviors on the CHSH boundary are
    redrawn because there the LP verdict depends on solver tolerance.
    """
    while True:
        alice = rng.uniform(0.0, 1.0, size=2)
        bob = rng.uniform(0.0, 1.0, size=2)
        probs = np.empty((4, 4))
        for c, (i, j) in enumerate(CONTEXTS):
            pa, pb = alice[i - 1], bob[j - 1]
            lo, hi = max(0.0, pa + pb - 1.0), min(pa, pb)
            p_pp = lo + (hi - lo) * rng.uniform()
            row = np.clip([p_pp, pa - p_pp, pb - p_pp, 1.0 - pa - pb + p_pp], 0.0, None)
            probs[c] = row / row.sum()
        if abs(chsh_max(probs @ PAIR_PRODUCT) - 2.0) > 1e-6:
            return probs


def pr_box() -> np.ndarray:
    same, opposite = [0.5, 0.0, 0.0, 0.5], [0.0, 0.5, 0.5, 0.0]
    return np.array([same, same, same, opposite])


def random_state(rng: np.random.Generator) -> np.ndarray:
    """Full-rank two-qubit density matrix M M^dag / Tr, made exactly Hermitian."""
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = m @ m.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.trace(rho).real


def projected_table(rng: np.random.Generator, n: int) -> tuple[list[np.ndarray], np.ndarray]:
    """One N x 4 table of assignments, seen in all four contexts, and its count tables."""
    weights = rng.dirichlet(np.ones(16))
    rows = ASSIGNMENTS[rng.choice(16, size=n, p=weights)]
    pairs = [rows[:, [i - 1, 2 + j - 1]] for i, j in CONTEXTS]
    counts = np.array(
        [np.bincount((1 - p[:, 0]) + (1 - p[:, 1]) // 2, minlength=4) for p in pairs]
    )
    return pairs, counts


# ---------------------------------------------------------------- checks


def _json(path: Path) -> dict[str, Any]:
    return json.loads(path.read_text())


def _exit(rc: Any, expected: int) -> list[str]:
    return [] if rc == expected else [f"exit code {rc!r}, expected {expected}"]


def _data_rows(path: Path) -> int:
    """Rows below the header of a CSV whose preamble lines start with '#'."""
    data = path.read_bytes()
    return data.count(b"\n") - data.count(b"# ") - 1


def _estimate_problems(label: str, estimate: float, target: float, se: float) -> list[str]:
    if abs(estimate - target) > Z_LIMIT * se + 1e-12:
        return [f"{label} {estimate!r} is more than {Z_LIMIT} SE ({se!r}) from {target!r}"]
    return []


def simulate_check(correlations: np.ndarray, n: int) -> Check:
    """simulate-lhv / simulate-quantum: exact S, S-hat within 5 SE of it, 4n rows written."""
    expected_s = s_value(correlations)

    def check(rc: Any, out: Path) -> list[str]:
        problems = _exit(rc, 0)
        if problems:
            return problems
        summary = _json(out / "summary.json")
        if abs(summary["exact_s"] - expected_s) > EXACT_TOL:
            problems.append(f"exact_s {summary['exact_s']!r}, expected {expected_s!r}")
        problems += _estimate_problems("s_hat", summary["s_hat"], expected_s, s_hat_sd(correlations, n))
        if _data_rows(out / "bundle.csv") != 4 * n:
            problems.append(f"bundle.csv does not hold {4 * n} rows")
        return problems

    return check


def bundle_feasibility_check(bundle: Path) -> Check:
    """feasibility --bundle on a sampled bundle: the verdict Fine's criterion gives its counts."""
    verdicts: dict[bytes, int] = {}

    def check(rc: Any, out: Path) -> list[str]:
        data = bundle.read_bytes()
        key = hashlib.sha256(data).digest()
        if key not in verdicts:
            verdicts[key] = 0 if counts_feasible(bundle_file_counts(data)) else 3
        expected = verdicts[key]
        problems = _exit(rc, expected)
        if not problems:
            status = _json(out / "result.json")["status"]
            if status != ("feasible" if expected == 0 else "infeasible"):
                problems.append(f"status {status!r} disagrees with exit code {rc}")
        return problems

    return check


def table_feasibility_check(counts: np.ndarray) -> Check:
    """feasibility --bundle on a projected table: feasible, and an integer witness reproduces it."""

    def check(rc: Any, out: Path) -> list[str]:
        problems = _exit(rc, 0)
        if problems:
            return problems
        result = _json(out / "result.json")
        if result.get("integrality") == "integer":
            witness = np.array(result["witness_counts"])
            if not np.array_equal(witness, np.rint(witness)) or witness.min() < 0:
                problems.append("integer witness holds non-integer or negative counts")
            elif not np.array_equal(projection_counts(witness), counts):
                problems.append("integer witness does not reproduce the four count tables")
        return problems

    return check


def behavior_feasibility_check(probs: np.ndarray) -> Check:
    """feasibility --behavior: the LP verdict equals CHSH <= 2 (the input is no-signaling)."""
    expected = 0 if chsh_max(probs @ PAIR_PRODUCT) <= 2.0 else 3

    def check(rc: Any, out: Path) -> list[str]:
        problems = _exit(rc, expected)
        if problems:
            return problems
        result = _json(out / "result.json")
        if expected == 0:
            weights = np.array(result["witness_weights"])
            if np.abs(projection_counts(weights) - probs).max() > 1e-8:
                problems.append("witness joint distribution does not reproduce the behavior")
        elif result["certificate"]["kind"] != "chsh":
            problems.append(f"certificate {result['certificate']['kind']!r}, expected chsh")
        return problems

    return check


def curve_check(correlations: np.ndarray, n_values: tuple[int, ...], trials: int) -> Check:
    """violation-curve: one row per n, frequency inside its CI, mean S-hat near |exact S|."""
    expected_s = s_value(correlations)

    def check(rc: Any, out: Path) -> list[str]:
        problems = _exit(rc, 0)
        if problems:
            return problems
        record = _json(out / "run.json")
        if abs(record["exact_s"] - expected_s) > EXACT_TOL:
            problems.append(f"exact_s {record['exact_s']!r}, expected {expected_s!r}")
        lines = [ln for ln in (out / "curve.csv").read_text().splitlines() if ln[:1] != "#"]
        rows = [ln.split(",") for ln in lines[1:]]
        if [int(r[0]) for r in rows] != sorted(n_values) or any(int(r[1]) != trials for r in rows):
            problems.append(f"curve.csv rows {[r[:2] for r in rows]} do not match the request")
            return problems
        for row in rows:
            frequency, ci_lo, ci_hi, mean_s = (float(v) for v in row[2:6])
            if not ci_lo <= frequency <= ci_hi:
                problems.append(f"n={row[0]}: frequency outside its interval")
            se = s_hat_sd(correlations, int(row[0])) / math.sqrt(trials)
            problems += _estimate_problems(f"n={row[0]} mean_s", mean_s, abs(expected_s), se)
        return problems

    return check


def weak_check(n: int, target: float | None) -> Check:
    """weak-bvalues: mean b-value within 5 SE of the target (or the table's B), n records."""

    def check(rc: Any, out: Path) -> list[str]:
        problems = _exit(rc, 0)
        if problems:
            return problems
        summary = _json(out / "summary.json")
        reference = summary["reference_value"]
        if target is not None and reference != target:
            problems.append(f"reference_value {reference!r}, expected {target!r}")
        if target is None and abs(reference) > 2.0:
            problems.append(f"table B {reference!r} outside [-2, 2]")
        problems += _estimate_problems(
            "mean_b", summary["mean_b"], reference, summary["sd_b"] / math.sqrt(n)
        )
        if _data_rows(out / "records.csv") != n:
            problems.append(f"records.csv does not hold {n} rows")
        return problems

    return check


def optimize_check(rho: np.ndarray, expected: tuple[Any, float]) -> Check:
    """optimize_angles: the same result every call, and |S| at the angles equals the value."""

    def check(result: Any, out: Path) -> list[str]:
        angles, value = result
        problems = []
        if (angles.as_tuple(), value) != (expected[0].as_tuple(), expected[1]):
            problems.append("optimize_angles result differs from its first call")
        s_at_angles = s_value(quantum_correlations(rho, angles.as_tuple()))
        if value > TSIRELSON + 1e-9 or abs(abs(s_at_angles) - value) > 1e-9:
            problems.append(f"optimize_angles value {value!r} is not |S| at its angles")
        return problems

    return check


# ---------------------------------------------------------------- workloads


def _cli(label: str, work: Path, argv: list[str], check: Check) -> Op:
    out = work / "ops" / label
    return Op(label, argv[0], out, check, argv=[*argv, "--out", str(out)])


def bundle_files(seed: int, size: dict[str, Any], work: Path) -> list[Op]:
    """Large bundles through the CSV writers and readers (integer and float files)."""
    n = size["bundle_n"]
    angles = tuple(np.add(TSIRELSON_ANGLES, child_rng(seed, "angles").uniform(-0.05, 0.05, 4)))
    singlet = quantum_correlations(singlet_matrix(), angles)
    lhv_dir, quantum_dir = work / "ops" / "simulate-lhv", work / "ops" / "simulate-quantum"
    curve_n, trials = size["bundle_curve_n"], size["bundle_curve_trials"]
    return [
        _cli("simulate-lhv", work, ["simulate-lhv", "--variant", "boundary_mixture", "--n", str(n),
             "--seed", str(child_seed(seed, "lhv"))], simulate_check(BOUNDARY_CORRELATIONS, n)),
        _cli("feasibility-lhv", work, ["feasibility", "--bundle", str(lhv_dir / "bundle.csv")],
             bundle_feasibility_check(lhv_dir / "bundle.csv")),
        _cli("weak-bvalues", work, ["weak-bvalues", "--source", "calibrated", "--target-s",
             repr(TSIRELSON), "--n", str(n), "--seed", str(child_seed(seed, "weak"))],
             weak_check(n, TSIRELSON)),
        _cli("simulate-quantum", work, ["simulate-quantum", "--state", "singlet", "--angles",
             *_floats(angles), "--n", str(n), "--seed", str(child_seed(seed, "quantum"))],
             simulate_check(singlet, n)),
        _cli("feasibility-quantum", work, ["feasibility", "--bundle",
             str(quantum_dir / "bundle.csv")], bundle_feasibility_check(quantum_dir / "bundle.csv")),
        _cli("violation-curve", work, ["violation-curve", "--generator", "boundary_mixture",
             "--n", *map(str, curve_n), "--trials", str(trials), "--seed", str(child_seed(seed, "curve"))],
             curve_check(BOUNDARY_CORRELATIONS, curve_n, trials)),
    ]


def violation_study(seed: int, size: dict[str, Any], work: Path) -> list[Op]:
    """Per-trial loops of violation-curve for a finite LHV, an interval LHV and the singlet.

    Each generator also gets one preview bundle, its feasibility verdict and
    its weak b-values at n = preview_n, so every subcommand is timed; the
    curves take most of the round.
    """
    n, ns, trials = size["preview_n"], size["study_n"], size["study_trials"]
    lhv_angles = tuple(np.add(TSIRELSON_ANGLES, child_rng(seed, "lhv-angles").uniform(-0.05, 0.05, 4)))
    q_angles = tuple(np.add(TSIRELSON_ANGLES, child_rng(seed, "q-angles").uniform(-0.05, 0.05, 4)))
    singlet = quantum_correlations(singlet_matrix(), q_angles)
    singlet_s = s_value(singlet)
    curve = ["--n", *map(str, ns), "--trials", str(trials)]
    generators = [
        ("boundary", BOUNDARY_CORRELATIONS, ["simulate-lhv", "--variant", "boundary_mixture"],
         ["--generator", "boundary_mixture"], ["--source", "lhv", "--variant", "boundary_mixture"]),
        ("sign-cosine", sign_cosine_correlations(lhv_angles),
         ["simulate-lhv", "--variant", "sign_cosine", "--angles", *_floats(lhv_angles)],
         ["--generator", "sign_cosine", "--angles", *_floats(lhv_angles)],
         ["--source", "lhv", "--variant", "sign_cosine", "--angles", *_floats(lhv_angles)]),
        ("singlet", singlet,
         ["simulate-quantum", "--state", "singlet", "--angles", *_floats(q_angles)],
         ["--generator", "singlet", "--angles", *_floats(q_angles)],
         ["--source", "calibrated", "--target-s", repr(abs(singlet_s))]),
    ]
    ops = []
    for name, correlations, simulate, generator, weak in generators:
        bundle = work / "ops" / f"{name}-simulate" / "bundle.csv"
        weak_target = abs(singlet_s) if weak[1] == "calibrated" else None
        ops += [
            _cli(f"{name}-simulate", work,
                 [*simulate, "--n", str(n), "--seed", str(child_seed(seed, name, "simulate"))],
                 simulate_check(correlations, n)),
            _cli(f"{name}-feasibility", work, ["feasibility", "--bundle", str(bundle)],
                 bundle_feasibility_check(bundle)),
            _cli(f"{name}-curve", work,
                 ["violation-curve", *generator, *curve, "--seed", str(child_seed(seed, name, "curve"))],
                 curve_check(correlations, ns, trials)),
            _cli(f"{name}-weak", work,
                 ["weak-bvalues", *weak, "--n", str(n), "--seed", str(child_seed(seed, name, "weak"))],
                 weak_check(n, weak_target)),
        ]
    return ops


def small_sweep(seed: int, size: dict[str, Any], work: Path) -> list[Op]:
    """Many small calls over seeded points, where per-call fixed costs dominate."""
    import bellsim.quantum as quantum

    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    n = size["sweep_n"]
    box = inputs / "pr_box.txt"
    write_behavior_file(box, pr_box())
    ops = []
    for p in range(size["sweep_points"]):
        rng = child_rng(seed, "point", p)
        behavior = random_no_signaling(rng)
        behavior_path = inputs / f"behavior-{p}.txt"
        write_behavior_file(behavior_path, behavior)
        angles = _floats(rng.uniform(0.0, 2.0 * math.pi, 4))
        pairs, counts = projected_table(rng, n)
        table_path = inputs / f"table-{p}.csv"
        write_bundle_file(table_path, pairs)
        rho = random_state(rng)
        rho_path = inputs / f"rho-{p}.txt"
        write_density_file(rho_path, rho)
        state = quantum.DensityMatrix(rho)
        first = quantum.optimize_angles(state)  # the angles simulate-quantum is given; untimed
        q_angles = first[0].as_tuple()
        lhv = sign_cosine_correlations(tuple(float(a) for a in angles))
        curve_n, trials = size["sweep_curve_n"], size["sweep_curve_trials"]

        def optimize(state: Any = state) -> Any:
            return quantum.optimize_angles(state)  # looked up per call, so tracing sees it

        ops += [
            _cli(f"p{p}-behavior", work, ["feasibility", "--behavior", str(behavior_path)],
                 behavior_feasibility_check(behavior)),
            _cli(f"p{p}-pr-box", work, ["feasibility", "--behavior", str(box)],
                 behavior_feasibility_check(pr_box())),
            _cli(f"p{p}-simulate-lhv", work, ["simulate-lhv", "--variant", "sign_cosine",
                 "--angles", *angles, "--n", str(n), "--seed", str(child_seed(seed, p, "lhv"))],
                 simulate_check(lhv, n)),
            _cli(f"p{p}-table", work, ["feasibility", "--bundle", str(table_path)],
                 table_feasibility_check(counts)),
            Op(f"p{p}-optimize", "optimize_angles", work / "ops" / f"p{p}-optimize",
               optimize_check(rho, first), call=optimize),
            _cli(f"p{p}-simulate-quantum", work, ["simulate-quantum", "--rho", str(rho_path),
                 "--angles", *_floats(q_angles), "--n", str(n),
                 "--seed", str(child_seed(seed, p, "quantum"))],
                 simulate_check(quantum_correlations(rho, q_angles), n)),
            _cli(f"p{p}-weak", work, ["weak-bvalues", "--source", "lhv", "--variant", "sign_cosine",
                 "--angles", *angles, "--n", str(n), "--seed", str(child_seed(seed, p, "weak"))],
                 weak_check(n, None)),
            _cli(f"p{p}-curve", work, ["violation-curve", "--generator", "sign_cosine",
                 "--angles", *angles, "--n", *map(str, curve_n), "--trials", str(trials),
                 "--seed", str(child_seed(seed, p, "curve"))],
                 curve_check(lhv, curve_n, trials)),
        ]
    return ops


WORKLOADS: dict[str, Callable[[int, dict[str, Any], Path], list[Op]]] = {
    "bundle-files": bundle_files,
    "violation-study": violation_study,
    "small-sweep": small_sweep,
}
