"""Byte-level gate for the CSV writers and the integer CSV reader.

The digests below were recorded from the per-row f-string writers that the
streamed lookup-table writers replaced, so any change in the bytes written
(row order, separators, trailing newline, preamble, float formatting) fails
here.  ``SIZES`` straddle the writers' chunk boundary; ``BLOCK_EDGE_SIZES``
straddle the 10^4-row edges at which a trial index gains a digit (their
digests were recorded from the per-row string bundle writer).
"""

import hashlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim.cli import EXIT_OK, main
from bellsim.core import CANONICAL_CONTEXTS, ContextDataset, ExperimentBundle
from bellsim.errors import ConfigError, DomainError
from bellsim.fileio import CHUNK_ROWS, read_bundle_csv, write_bundle_csv

SIZES = (1, 7, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 3 * CHUNK_ROWS + 5)
BLOCK_EDGE_SIZES = (9_999, 10_000, 10_001, 100_001)
PREAMBLE = {"bellsim-version": "0.1.0", "spec-hash": "0123456789abcdef", "seed": 7}


def outcomes(n: int, columns: int, salt: str) -> np.ndarray:
    """Deterministic +/-1 array from a hash stream (independent of numpy's RNG)."""
    bits = np.unpackbits(
        np.frombuffer(hashlib.shake_128(salt.encode()).digest(n * columns // 8 + 1), dtype=np.uint8)
    )[: n * columns]
    return (1 - 2 * bits.astype(np.int64)).reshape(n, columns)


def bundle_of(sizes: tuple[int, int, int, int], salt: str) -> ExperimentBundle:
    return ExperimentBundle(tuple(
        ContextDataset(c, outcomes(n, 2, f"{salt}-{c.index}"))
        for c, n in zip(CANONICAL_CONTEXTS, sizes)
    ))


def write_case(kind: str, n: int, path, preamble) -> None:
    salt = f"{kind}-{n}"
    if kind == "bundle":
        write_bundle_csv(path, bundle_of((n, n, n, n), salt), preamble)
    else:  # unequal context sizes, one context empty
        write_bundle_csv(path, bundle_of((n, 0, 7, n + 3), salt), preamble)


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


WRITER_DIGESTS = {
    "bundle/1/bare": "5daa569d9fccd73462faeaa10f666a6b99cfc15b655a3eb7c62435f562df3f8d",
    "bundle/1/preamble": "f369d9d774b9470b4ff6b5bed6e6d3b6b0cbe9c37f831a5de25b6640215c0505",
    "bundle/7/bare": "2aac8fef05ec397e77aa52a91ccb85d772a4799065d3f56ec4e54d65bc2ca2d5",
    "bundle/7/preamble": "c9d721000dc89800511d63dbb91caa19b709eefdecd467b1474a8dbc48f3e78c",
    "bundle/8191/bare": "3c772f1070a6848a4503c5fd6e1bb884522268b80287574e9634a72a1a9cf883",
    "bundle/8191/preamble": "7a4a7cd532e43ebb89c5041eb74623f046dac1c9a5008821f7140b10116e9db1",
    "bundle/8192/bare": "6108918bbbaee9a384137407ba09eec9c40fc4c43a0bc39a31351a3929d2cd38",
    "bundle/8192/preamble": "0e082df84f06932f803f9415464cfbb41d9ae0437a5eecb58e831a4a56e18931",
    "bundle/8193/bare": "a4d81c0c0da24d657b0b88bd7771c0a980243434ecd34b02960599e252fbaaa3",
    "bundle/8193/preamble": "1e98f72cf87dd4ebbd7495605770b8ca128e5d322afd592774cfd43cc1208dc6",
    "bundle/24581/bare": "586f487fae6bc9db6092584fbc57d7691532b227cc64d673f90fb1ea8af54f96",
    "bundle/24581/preamble": "01b15e86d694e438e0dba966077d8e7c666d45ab43fe6583fcaed98944178954",
    "ragged-bundle/1/bare": "1893e097c25034b2c771a29e69742f362a25c392f8629b55f86552ba57c0f0bf",
    "ragged-bundle/1/preamble": "db9635b4c870ca6735984713615f05e879951c6f4647ddc5115e3eb328ad2f8e",
    "ragged-bundle/7/bare": "08086119090ec0bc547317806e218f77dc3acf1f7073528fde459fdde5796cac",
    "ragged-bundle/7/preamble": "3301243e17a11453cfdae18d8e16c8dd0acccd1cf52a7be7ad00aa17fe64d214",
    "ragged-bundle/8191/bare": "ee8c367b2a35100a055e721708ebc3ae222b554790437d33455b009f2dd8fb99",
    "ragged-bundle/8191/preamble": "ffe36a85fa6a218f6089d5f52ec3db268752ce74e1cdfe0bb68a1469da0b43a6",
    "ragged-bundle/8192/bare": "66222e5ebfe9d70106aa9fadde9e91bad8856445669e2c98ce9ddff1ee76de8f",
    "ragged-bundle/8192/preamble": "922d300605a34ed0bb8917f48a2e51740b4560307bb57c1959ebfb5b939e509e",
    "ragged-bundle/8193/bare": "333ad53a884d62bee1326303129aad2a5545ffcc1e4506c6c6286aebb76b3e23",
    "ragged-bundle/8193/preamble": "4347fc661f0b67ed0659eae0e3edd9b1acd4e7cc67d2b633adf2b51fc6c68d08",
    "ragged-bundle/24581/bare": "df99cc63666488b639a3f924aaffe1198560f6fdeeb732c7744893d968006309",
    "ragged-bundle/24581/preamble": "5387458dbdc8d5c954228367e0f69514fb1f8e243d0da9ecb96e23e91305d738",
    "bundle/9999/bare": "c8317065b2abef31cd719403a1ae3f4a257738f0028cb4e2d1ea5b6baabec983",
    "bundle/9999/preamble": "816293396415b2ddb4087152ce8f54c51ee34e27432f28bc11202930723b99a3",
    "bundle/10000/bare": "63644ddb2ea61bcbcdfd4f5b6dede7ac29a6615f46d5402f3ea544ce6476e8d2",
    "bundle/10000/preamble": "0e4ef690cb6cf1d0ba123ed1825e49d011bebbee8e0392fdf4b40153760534ac",
    "bundle/10001/bare": "9d019d9654287a1f83544fc1c73028c43b44c9267e6f858df5082863bad48039",
    "bundle/10001/preamble": "80814863fa52d065f6694ac6577a948cffd3a55c051e5c685012cbed17494ff8",
    "bundle/100001/bare": "0311fdd9d71492c5423defa710317f2738990ba317feb8ee2928f360e11ead47",
    "bundle/100001/preamble": "cb21b4a1b17455f1c49c54e4945b1ea63f78a11dff92a83fd440835c6eb257fd",
    "ragged-bundle/9999/bare": "d7fc25eda06ca3a291cc4c62f0a777fe7f81399c9d5f5d86abda554bbb0d6338",
    "ragged-bundle/9999/preamble": "585a3b11429594be741f6d2e97ee3c8400fa230ef02f24e766e743a43178472d",
    "ragged-bundle/10000/bare": "6d76f053ad681065a42a9054ec93567a5dbd0331702f638c0550e8b037f73ac0",
    "ragged-bundle/10000/preamble": "31e581d2a5e12039f9bb780f33818e8e0480d152fc03c0ab4a99d81bfbf9bb97",
    "ragged-bundle/10001/bare": "d956d382fde74188f01d1c8ec9ee81e09f2cf0ed892af8928527f2aa7e3dbf1e",
    "ragged-bundle/10001/preamble": "3749afd00f7857f4274a9c4722b8d1de89fd5b39f87aa75165cef359c84006e5",
    "ragged-bundle/100001/bare": "4a3c1cb03949c444fa61ccaf736fc6bd743d77d9bf9e9d47e32c37b2a8618b3e",
    "ragged-bundle/100001/preamble": "a11ffd6f978dbd1b9530dbc6e28451bb0b81138f92a6472b0f10eb86660d8c2c",
}

CLI_DIGESTS = {
    "bundle-lhv": "996f53f78a54f24db5f646e80a7f39387cd7fc13a5563f2bd0c3a2df9f7aef6c",
    "bundle-quantum": "c5edf9d9875cd403ab4be559c0a4c23bc68bd6b6b789ffb6bbfc7c166a26a594",
    "records-calibrated": "e87085ef5a1c04ed33b938e9bc5224e9f8f59b2041d039080209942a92707f0d",
    "records-lhv": "0706c5169ed266e91e4b0a7dbf1881189bc5ae535e5fec274a4e884d769d5157",
}

CLI_CASES = {
    "records-calibrated": (
        ["weak-bvalues", "--source", "calibrated", "--target-s", "2.8284271247461903",
         "--n", str(CHUNK_ROWS + 1), "--seed", "11"], "records.csv"),
    "records-lhv": (
        ["weak-bvalues", "--source", "lhv", "--variant", "boundary_mixture",
         "--n", str(CHUNK_ROWS + 1), "--seed", "12"], "records.csv"),
    "bundle-lhv": (
        ["simulate-lhv", "--variant", "boundary_mixture", "--n", "1000", "--seed", "13"],
        "bundle.csv"),
    "bundle-quantum": (
        ["simulate-quantum", "--state", "singlet", "--n", "1000", "--seed", "14"], "bundle.csv"),
}


@pytest.mark.parametrize("with_preamble", [False, True], ids=["bare", "preamble"])
@pytest.mark.parametrize("n", SIZES + BLOCK_EDGE_SIZES)
@pytest.mark.parametrize("kind", ["bundle", "ragged-bundle"])
def test_writer_bytes_match_recorded_digests(tmp_path, kind, n, with_preamble):
    path = tmp_path / "out.csv"
    write_case(kind, n, path, PREAMBLE if with_preamble else None)
    assert sha256(path) == WRITER_DIGESTS[f"{kind}/{n}/{'preamble' if with_preamble else 'bare'}"]


# Context sizes: small, empty, and next to the 10^4-row edges where trial indices gain a digit.
CONTEXT_SIZE = st.one_of(
    st.integers(0, 40), st.integers(9_990, 10_010), st.integers(19_995, 20_005), st.integers(0, 25_000)
)


@settings(max_examples=30, deadline=None)
@given(st.tuples(*[CONTEXT_SIZE] * 4), st.integers(0, 2**32 - 1))
def test_bundle_rows_are_the_per_row_rendering(tmp_path_factory, sizes, seed):
    rng = np.random.default_rng(seed)
    bundle = ExperimentBundle(tuple(
        ContextDataset(c, rng.choice([-1, 1], size=(n, 2))) for c, n in zip(CANONICAL_CONTEXTS, sizes)
    ))
    path = tmp_path_factory.mktemp("rows") / "out.csv"
    write_bundle_csv(path, bundle, PREAMBLE)
    expected = io.StringIO()
    expected.writelines(f"# {key}: {value}\n" for key, value in PREAMBLE.items())
    expected.write("trial,context_i,context_j,a,b\n")
    for d in bundle.datasets:
        expected.writelines(
            f"{k},{d.context.alice},{d.context.bob},{a},{b}\n" for k, (a, b) in enumerate(d.pairs.tolist())
        )
    assert path.read_bytes() == expected.getvalue().encode()


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_output_bytes_match_recorded_digests(tmp_path, case):
    argv, name = CLI_CASES[case]
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
    assert sha256(tmp_path / name) == CLI_DIGESTS[case]


@pytest.mark.parametrize("kind", ["bundle", "ragged-bundle"])
def test_written_files_read_back(tmp_path, kind):
    path = tmp_path / "out.csv"
    n = CHUNK_ROWS + 1
    write_case(kind, n, path, PREAMBLE)
    if kind == "bundle":
        for original, read in zip(bundle_of((n, n, n, n), f"{kind}-{n}").datasets, read_bundle_csv(path).datasets):
            assert np.array_equal(original.pairs, read.pairs)
    else:
        with pytest.raises(ConfigError, match=r"no rows for context \(1,2\)"):
            read_bundle_csv(path)


# --- integer CSV reader: what it accepts and rejects -------------------------------

HEADER = "trial,context_i,context_j,a,b"
BUNDLE = ExperimentBundle(tuple(
    ContextDataset(c, pairs)
    for c, pairs in zip(CANONICAL_CONTEXTS, ([[1, -1], [-1, -1]], [[1, 1]], [[-1, 1]], [[-1, -1]]))
))


@pytest.mark.parametrize(
    "text",
    [
        f"{HEADER}\n0,1,1,1,-1\n1,1,1,-1,-1\n0,1,2,1,1\n0,2,1,-1,1\n0,2,2,-1,-1\n",
        f"{HEADER}\n0,1,1,1,-1\n1,1,1,-1,-1\n0,1,2,1,1\n0,2,1,-1,1\n0,2,2,-1,-1",
        f"# seed: 3\n\n# note: x\n{HEADER}\n# mid\n0,1,1,1,-1\n\n   \n"
        "  # indented comment\n1,1,1,-1,-1\n\t\n0,1,2,1,1\n0,2,1,-1,1\n0,2,2,-1,-1\n# tail\n\n",
        f"# seed: 3\r\n{HEADER}\r\n0,1,1,1,-1\r\n1,1,1,-1,-1\r\n0,1,2,1,1\r\n0,2,1,-1,1\r\n0,2,2,-1,-1\r\n",
        f"  {HEADER}  \n 0,1,1,1,-1\n\t1,1,1,-1,-1 \n0,1,2,1,1\n0,2,1,-1,1\n0,2,2,-1,-1   \n",
        f"{HEADER}\n0, 1,1 ,1,-1\n1,1,1,-1,-1\n0,1,2,1,1\n0,2,1,-1,1\n0,2,2,-1,-1 # trailing comment\n",
    ],
    ids=["plain", "no-final-newline", "comments-and-blanks", "crlf", "surrounding-spaces",
         "inner-spaces-and-trailing-comment"],
)
def test_reader_accepts(tmp_path, text):
    path = tmp_path / "bundle.csv"
    path.write_bytes(text.encode())
    assert read_bundle_csv(path) == BUNDLE


@pytest.mark.parametrize("text", [f"{HEADER}\n", f"# c\n{HEADER}\n\n# only comments\n  \n"],
                         ids=["header-only", "header-and-comments"])
def test_reader_rejects_empty_body(tmp_path, text):
    path = tmp_path / "bundle.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ConfigError, match=r"no rows for context \(1,1\)"):
        read_bundle_csv(path)


@pytest.mark.parametrize(
    ("text", "match"),
    [
        ("", "expected header 'trial,context_i,context_j,a,b', found '<empty>'"),
        ("# only a comment\n\n", "found '<empty>'"),
        ("trial,a,b\n0,1,1\n", "expected header 'trial,context_i,context_j,a,b', found 'trial,a,b'"),
        (f"0,1,1,1,1\n{HEADER}\n", "found '0,1,1,1,1'"),
        (f"{HEADER} # c\n0,1,1,1,1\n", "expected header"),
        ("trial;context_i;context_j;a;b\n0;1;1;1;1\n", "expected header"),
        (f"{HEADER}\n0,1,1,x,1\n", "malformed"),
        (f"{HEADER}\n0,1,1,1.0,1\n", "malformed"),
        (f"{HEADER}\n0,1,1,,1\n", "malformed"),
        (f"{HEADER}\n0,1,1,1,1\n1,1,1,1\n", "malformed"),
        (f"{HEADER}\n0,1,1,1\n1,1,1,1\n", "expected 5 columns, got 4"),
        (f"{HEADER}\n0,1,1,1,1,1\n", "expected 5 columns, got 6"),
    ],
    ids=["empty", "comments-only", "wrong-header", "data-before-header", "header-with-comment",
         "wrong-delimiter", "non-integer-cell", "float-cell", "empty-cell", "ragged-rows",
         "too-few-columns", "too-many-columns"],
)
def test_reader_rejects(tmp_path, text, match):
    path = tmp_path / "bundle.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ConfigError, match=match):
        read_bundle_csv(path)


def test_reader_leaves_outcome_values_to_the_table(tmp_path):
    path = tmp_path / "bundle.csv"
    path.write_bytes(f"{HEADER}\n0,1,1,2,1\n0,1,2,1,1\n0,2,1,1,1\n0,2,2,1,1\n".encode())
    with pytest.raises(DomainError, match="outcomes must be"):
        read_bundle_csv(path)


def test_bundle_reader_rejects_foreign_context(tmp_path):
    path = tmp_path / "bundle.csv"
    path.write_bytes(b"trial,context_i,context_j,a,b\n0,1,1,1,1\n0,1,2,1,1\n0,2,1,1,1\n0,2,2,1,1\n0,3,1,1,1\n")
    with pytest.raises(ConfigError, match="outside the four canonical contexts"):
        read_bundle_csv(path)
