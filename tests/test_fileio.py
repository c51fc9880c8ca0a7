import numpy as np
import pytest

from bellsim.behaviors import behavior_from_bundle, pr_box
from bellsim.core import (
    CANONICAL_CONTEXTS,
    ContextDataset,
    CounterfactualTable,
    ExperimentBundle,
    project_bundle,
)
from bellsim.errors import ConfigError, DomainError
from bellsim.fileio import read_behavior, read_bundle_csv, read_density, read_model, write_behavior, write_bundle_csv
from bellsim.lhv import exact_lhv_s
from bellsim.quantum import maximally_mixed, singlet


@pytest.fixture
def table():
    rng = np.random.default_rng(3)
    return CounterfactualTable(rng.choice([-1, 1], size=(37, 4)))


def test_bundle_roundtrip_preserves_canonical_order(tmp_path, table):
    path = tmp_path / "bundle.csv"
    bundle = project_bundle(table)
    write_bundle_csv(path, bundle)
    loaded = read_bundle_csv(path)
    for original, read in zip(bundle.datasets, loaded.datasets):
        assert original.context == read.context
        assert np.array_equal(original.pairs, read.pairs)


def test_bundle_compares_by_its_pairs_alone(tmp_path, table):
    """A bundle read back from its CSV, and a projected table, equal a bundle built from the same arrays."""
    bundle = ExperimentBundle(tuple(ContextDataset(c, table.outcomes[:, c.columns]) for c in CANONICAL_CONTEXTS))
    path = tmp_path / "bundle.csv"
    write_bundle_csv(path, bundle, {"seed": 3})
    assert read_bundle_csv(path) == bundle
    assert project_bundle(table) == bundle


def test_bundle_rejects_missing_context(tmp_path):
    path = tmp_path / "bundle.csv"
    path.write_text("trial,context_i,context_j,a,b\n0,1,1,1,1\n")
    with pytest.raises(ConfigError, match="no rows for context"):
        read_bundle_csv(path)


def test_csv_header_required(tmp_path):
    path = tmp_path / "bundle.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError, match="expected header"):
        read_bundle_csv(path)


def test_csv_malformed_body(tmp_path):
    path = tmp_path / "bundle.csv"
    path.write_text("trial,context_i,context_j,a,b\n0,1,1,x,1\n")
    with pytest.raises(ConfigError, match="malformed"):
        read_bundle_csv(path)


def test_behavior_roundtrip_with_counts(tmp_path, table):
    behavior = behavior_from_bundle(project_bundle(table))
    path = tmp_path / "behavior.txt"
    write_behavior(path, behavior, {"origin": "projection"})
    loaded = read_behavior(path)
    assert np.array_equal(loaded.probs, behavior.probs)
    assert np.array_equal(loaded.counts, behavior.counts)


def test_behavior_roundtrip_probabilities_only(tmp_path):
    path = tmp_path / "box.txt"
    write_behavior(path, pr_box())
    loaded = read_behavior(path)
    assert loaded.counts is None
    assert np.array_equal(loaded.probs, pr_box().probs)


def test_behavior_rejects_partial_or_unknown(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("context 1 1 = 0.25 0.25 0.25 0.25\n")
    with pytest.raises(ConfigError, match="missing context"):
        read_behavior(path)
    path.write_text(
        "\n".join(
            f"context {c.alice} {c.bob} = 0.25 0.25 0.25 0.25" for c in CANONICAL_CONTEXTS
        )
        + "\nwhatever 1 1 = 0 0 0 0\n"
    )
    with pytest.raises(ConfigError, match=r"unknown keys \['whatever 1 1'\]"):
        read_behavior(path)


def test_behavior_validates_probabilities(tmp_path):
    path = tmp_path / "bad.txt"
    lines = [f"context {c.alice} {c.bob} = 0.5 0.5 0.5 0.5" for c in CANONICAL_CONTEXTS]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(Exception, match="sum to 1"):
        read_behavior(path)


def test_model_file_sign_cosine(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text(
        "# comment line\n"
        "variant = sign_cosine\n"
        "a1 = 0.0\na2 = 1.5\nb1 = 0.7\nb2 = 2.9\n"
    )
    model = read_model(path)
    assert "sign_cosine" in model.name
    assert abs(exact_lhv_s(model)) <= 2.0 + 1e-8


def test_model_file_boundary_and_deterministic(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text("variant = boundary_mixture\nstrategies = 1,1,1,1 ; 1,1,1,-1\nweights = 0.5 0.5\n")
    assert exact_lhv_s(read_model(path)) == pytest.approx(2.0)
    path.write_text("variant = deterministic\noutcomes = 1 1 1 -1\n")
    assert exact_lhv_s(read_model(path)) == pytest.approx(2.0)


def test_model_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text("variant = sign_cosine\na1 = 0\na2 = 1\nb1 = 2\nb2 = 3\nfoo = 1\n")
    with pytest.raises(ConfigError, match="unknown keys.*foo"):
        read_model(path)
    path.write_text("variant = nonsense\n")
    with pytest.raises(ConfigError, match="variant"):
        read_model(path)
    path.write_text("variant = sign_cosine\na1 = 0\na1 = 1\na2 = 1\nb1 = 2\nb2 = 3\n")
    with pytest.raises(ConfigError, match="duplicate"):
        read_model(path)


def test_density_roundtrip(tmp_path):
    for rho in (singlet(), maximally_mixed()):
        path = tmp_path / "rho.txt"
        lines = [f"{v.real!r} {v.imag!r}\n" for v in rho.matrix.reshape(-1).tolist()]
        path.write_text("# state: test\n" + "".join(lines))
        loaded = read_density(path)
        assert np.array_equal(loaded.matrix, rho.matrix)


def test_density_rejects_bad_files(tmp_path):
    path = tmp_path / "rho.txt"
    path.write_text("0.1 0.0\n" * 5)
    with pytest.raises(ConfigError, match="16 entries"):
        read_density(path)
    path.write_text("oops\n" * 16)
    with pytest.raises(ConfigError):
        read_density(path)


def rho_text(matrix) -> str:
    """A density file: one 're im' line per entry of the 4x4 matrix, row by row."""
    return "".join(f"{v.real!r} {v.imag!r}\n" for v in np.asarray(matrix).reshape(-1).tolist())


SINGLET_TEXT = rho_text(singlet().matrix)


@pytest.mark.parametrize(
    "text",
    [
        SINGLET_TEXT,
        SINGLET_TEXT.rstrip("\n"),
        "# state: singlet\n\n" + SINGLET_TEXT.replace("\n", "\n  # between\n\t\n", 5),
        SINGLET_TEXT.replace("\n", "\r\n"),
        "".join(f"  {line}\t\n" for line in SINGLET_TEXT.splitlines()),
    ],
    ids=["plain", "no-final-newline", "comments-and-blanks", "crlf", "surrounding-spaces"],
)
def test_density_reader_accepts(tmp_path, text):
    path = tmp_path / "rho.txt"
    path.write_bytes(text.encode())
    assert read_density(path) == singlet()


@pytest.mark.parametrize("separator", [",", ", ", " ,\t"])
def test_density_entries_may_be_comma_separated(tmp_path, separator):
    path = tmp_path / "rho.txt"
    path.write_bytes(SINGLET_TEXT.replace(" ", separator).encode())
    assert read_density(path) == singlet()


def _with_entry(row, col, value):
    matrix = np.diag([0.25] * 4).astype(np.complex128)
    matrix[row, col] = value
    return matrix


@pytest.mark.parametrize(
    ("text", "error", "match"),
    [
        ("", ConfigError, "need 16 entries, got 0"),
        ("# only a comment\n\n", ConfigError, "need 16 entries, got 0"),
        (SINGLET_TEXT.split("\n", 1)[1], ConfigError, "need 16 entries, got 15"),
        (SINGLET_TEXT + "0.0 0.0\n", ConfigError, "need 16 entries, got 17"),
        ("0.25\n" * 16, ConfigError, "each line must hold 're im'"),
        ("0.25 0.0 0.0\n" * 16, ConfigError, "each line must hold 're im'"),
        (SINGLET_TEXT.replace("0.0 0.0", "0.0 x", 1), ConfigError, "each line must hold 're im'"),
        (rho_text(_with_entry(0, 0, float("nan"))), DomainError, "finite"),
        (rho_text(_with_entry(0, 1, 0.125)), DomainError, "not Hermitian"),
        (rho_text(np.zeros((4, 4))), DomainError, "trace must be 1"),
        (rho_text(np.diag([1.5, -0.5, 0.0, 0.0])), DomainError, "not positive semidefinite"),
    ],
    ids=["empty", "comments-only", "too-few-entries", "too-many-entries", "one-column",
         "three-columns", "non-numeric", "non-finite", "not-hermitian", "zero-trace",
         "negative-eigenvalue"],
)
def test_density_reader_rejects(tmp_path, text, error, match):
    path = tmp_path / "rho.txt"
    path.write_bytes(text.encode())
    with pytest.raises(error, match=match):
        read_density(path)
