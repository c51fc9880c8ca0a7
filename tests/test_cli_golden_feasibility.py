"""Golden digests of ``feasibility`` output, with the exit code of each case.

The cases cover both LP routes (``--level distribution`` on a behavior or a
bundle, ``--level counts`` on a bundle or a behavior file with counts), each
verdict (feasible, a CHSH certificate, a marginal-inconsistency certificate)
and the slack variant.  Every count problem here has N <= 10^4 per context.
Input files are passed by relative path because ``run.json`` records the
paths given.
"""

import hashlib

import pytest

from bellsim.cli import EXIT_INFEASIBLE, EXIT_OK, main

CONTEXTS = ((1, 1), (1, 2), (2, 1), (2, 2))


def bundle_text(rows_per_context):
    """Bundle CSV text from one list of (a, b) pairs per canonical context."""
    lines = ["trial,context_i,context_j,a,b"]
    for (i, j), rows in zip(CONTEXTS, rows_per_context):
        lines += [f"{k},{i},{j},{a},{b}" for k, (a, b) in enumerate(rows)]
    return "\n".join(lines) + "\n"


def projected_rows(n):
    """A fixed N x 4 table (a1, a2, b1, b2), projected into each context."""
    table = [[1 if (k ** 3 + 7 * k) // 3 >> bit & 1 else -1 for bit in range(4)] for k in range(n)]
    return [[(row[i - 1], row[1 + j]) for row in table] for i, j in CONTEXTS]


# Alice's outcome under setting 1 is +1 in context (1,1) and -1 in (1,2); every
# correlation is 0, so no CHSH form exceeds 2.
SIGNALING = [
    [(1, 1), (1, -1)] * 4,
    [(-1, 1), (-1, -1)] * 4,
    [(1, 1), (1, -1), (-1, 1), (-1, -1)] * 2,
    [(1, 1), (1, -1), (-1, 1), (-1, -1)] * 2,
]

INPUT_FILES = {
    "local.behavior": "context 1 1 = 0.35 0.15 0.15 0.35\ncontext 1 2 = 0.35 0.15 0.15 0.35\n"
                      "context 2 1 = 0.35 0.15 0.15 0.35\ncontext 2 2 = 0.15 0.35 0.35 0.15\n",
    "box.behavior": "context 1 1 = 0.5 0.0 0.0 0.5\ncontext 1 2 = 0.5 0.0 0.0 0.5\n"
                    "context 2 1 = 0.5 0.0 0.0 0.5\ncontext 2 2 = 0.0 0.5 0.5 0.0\n",
    "box-counts.behavior": "context 1 1 = 0.5 0.0 0.0 0.5\ncontext 1 2 = 0.5 0.0 0.0 0.5\n"
                           "context 2 1 = 0.5 0.0 0.0 0.5\ncontext 2 2 = 0.0 0.5 0.5 0.0\n"
                           "counts 1 1 = 10 0 0 10\ncounts 1 2 = 10 0 0 10\n"
                           "counts 2 1 = 10 0 0 10\ncounts 2 2 = 0 10 10 0\n",
    "projected.csv": bundle_text(projected_rows(37)),
    "signaling.csv": bundle_text(SIGNALING),
}

CASES = {
    "behavior-feasible": (["--behavior", "local.behavior"], EXIT_OK),
    "behavior-pr-box": (["--behavior", "box.behavior"], EXIT_INFEASIBLE),
    "behavior-counts-pr-box": (["--behavior", "box-counts.behavior", "--level", "counts"],
                               EXIT_INFEASIBLE),
    "bundle-projected": (["--bundle", "projected.csv"], EXIT_OK),
    "bundle-projected-distribution": (["--bundle", "projected.csv", "--level", "distribution"],
                                      EXIT_OK),
    "bundle-signaling": (["--bundle", "signaling.csv"], EXIT_INFEASIBLE),
    "bundle-signaling-distribution": (["--bundle", "signaling.csv", "--level", "distribution"],
                                      EXIT_INFEASIBLE),
    "bundle-signaling-slack": (["--bundle", "signaling.csv", "--slack", "5"], EXIT_INFEASIBLE),
    "bundle-signaling-slack-wide": (["--bundle", "signaling.csv", "--slack", "20"], EXIT_OK),
    "behavior-counts-slack": (["--behavior", "box-counts.behavior", "--slack", "5"],
                              EXIT_INFEASIBLE),
}

DIGESTS: dict[str, str] = {
    "behavior-counts-pr-box": "07d246bb56567fab55e8cbd508b710c39f09e414116d36efda75c4ae524efc2c",
    "behavior-counts-slack": "a5ec116b41c5f6835b535d2936dca12814a74d3e7dd3258806c57ab345be8676",
    "behavior-feasible": "9f3ffebb4e4d42ade6f896e7058c84ad455a5da669b3d798d44060eff24cc31c",
    "behavior-pr-box": "0cce4ae7ba831ce8288c1d3cfd63dca9c95dfc83be8b9b0778efec509b2e7326",
    "bundle-projected": "295397fa0dc41fc152b02c16526e43a3b7481854192ff913b7d5bab84b5e04e0",
    "bundle-projected-distribution": "c7b2c76f6cc50fc32bba60cd826d05b3f31687a32291247e0745c102bc54399e",
    "bundle-signaling": "1e59e9f0458c3079baa65272a33e66228468457d502f50dce0a3ba7f859f5447",
    "bundle-signaling-distribution": "6e573a9da906cc612b4d7b2c31d99c6c12941031ba9a8c67a49152af46b09118",
    "bundle-signaling-slack": "5959176a801bdc0e6dbc3e3d3ee6c6367d0fe7652c8945c075ab40cc54cf50f1",
    "bundle-signaling-slack-wide": "c3d4874b73970237e283e0af4524175d8f58ea99d6a849c38ffa751938b0a615",
}


def result_digest(tmp_path, monkeypatch, argv, exit_code):
    for name, text in INPUT_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert main(["feasibility", *argv, "--out", "out"]) == exit_code
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["result.json"]
    return hashlib.sha256((tmp_path / "out" / "result.json").read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_feasibility_output_matches_golden_digest(tmp_path, monkeypatch, case):
    assert result_digest(tmp_path, monkeypatch, *CASES[case]) == DIGESTS[case]
