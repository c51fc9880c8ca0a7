"""Byte-level gate for the CSV writers and the integer CSV reader.

The digests below were recorded from the per-row f-string writers that the
streamed lookup-table writers replaced, so any change in the bytes written
(row order, separators, trailing newline, preamble, float formatting) fails
here.  Sizes straddle the writers' chunk boundary.
"""

import hashlib

import numpy as np
import pytest

from bellsim.cli import EXIT_OK, main
from bellsim.core import (
    CANONICAL_CONTEXTS,
    ContextDataset,
    CounterfactualTable,
    ExperimentBundle,
)
from bellsim.errors import ConfigError, DomainError
from bellsim.fileio import (
    CHUNK_ROWS,
    read_bundle_csv,
    read_dataset_csv,
    read_table_csv,
    write_bundle_csv,
    write_dataset_csv,
    write_table_csv,
)

SIZES = (1, 7, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 3 * CHUNK_ROWS + 5)
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
    if kind == "table":
        write_table_csv(path, CounterfactualTable(outcomes(n, 4, salt)), preamble)
    elif kind == "dataset":
        write_dataset_csv(path, ContextDataset(CANONICAL_CONTEXTS[2], outcomes(n, 2, salt)), preamble)
    elif kind == "bundle":
        write_bundle_csv(path, bundle_of((n, n, n, n), salt), preamble)
    else:  # unequal context sizes, one context empty
        write_bundle_csv(path, bundle_of((n, 0, 7, n + 3), salt), preamble)


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


WRITER_DIGESTS = {
    "table/1/bare": "20372fe8eee43323ed0d0e13d41d522b6fd1cb82b35421ff4d2b3b79090fa225",
    "table/1/preamble": "d85ff9e3e23716bd6021628dab831618864f05e3ff3c8aec87822a98ef741e5a",
    "table/7/bare": "f1fdf07d94ab8fff5d056c6ca7baa2d856997970632bfeb4ed40a97c2bf81b8e",
    "table/7/preamble": "54c39a2d71e3fc9807c2c1baca3a5ed0c09773ce8ba36168e7aac932969cafd0",
    "table/8191/bare": "665e3791a4b2c068aa16320569703c52bd00868a49f5b76bc47f8d339feff404",
    "table/8191/preamble": "6ee4d45d454e83fb076765a6b7ef3de3996d64465e04f13639bcebf1fc470bfd",
    "table/8192/bare": "3f96de7f6a91baa2914b0f11758e53352e802704f707fc431600ab683503339a",
    "table/8192/preamble": "c75a66436f1bde67c6064c257b2c03693b2d4f041f93dc5e93755e08567f5a36",
    "table/8193/bare": "63ed689b1448e65365eadb1b855b085618830ee51accccd46f3efef861fe707c",
    "table/8193/preamble": "b6d95c55d65cd52e9bece8b95707d936aa023d63bd60b8c2f2ce5074d7186ff6",
    "table/24581/bare": "ba47cfe1e0648ab66bf1e922a443bf348a5f57105c6698d3711dd1a6e6ed0c97",
    "table/24581/preamble": "4487df260a5ee227e35c0137865623e9ad862334a623fcaeb183dbbabb5e0e50",
    "dataset/1/bare": "af056efe45afd7624f84f44073f8b384c5bffdb4ffabe7fd60723eb262d71a5a",
    "dataset/1/preamble": "73a2be0d2e16f0a5304beeff2deb32d85fc5467a1f487d0f4cc1c6045c5b2f89",
    "dataset/7/bare": "fdf326c79970f74964df65c1cdf75469631faea0869e7ec5721ca855800a0e6c",
    "dataset/7/preamble": "b08f760aab8443c276dcb557264e8d0b40b27ebdc9b2f4c929eafcb4261245b7",
    "dataset/8191/bare": "02baf71237c1c62e9b43bd2f95897202b69572c87759e13f4bff1a6531335bc5",
    "dataset/8191/preamble": "5a62ec1175bdc13065d6468468ffeca0cef9c1ec66cd5d08d45ec87adffab37a",
    "dataset/8192/bare": "ac54ee4e6c04482e44ba3e289e4a4863d72ae5a57076e3596322824daca53e4f",
    "dataset/8192/preamble": "4ada218b33dbabff181dec225c53137815e336d729ba6eacbea76184b4743fc2",
    "dataset/8193/bare": "1145843099c50e7ee23fabf45c733c67a88bde08b5ddec1e6a6f33b46e48ed4c",
    "dataset/8193/preamble": "adf0d45d542094ba62a9ebb16f4bc8d40be551e889971d89d28afcecb8260fad",
    "dataset/24581/bare": "4c4d1234b456d762fdc10702dcef13cae9dff96d0258608081e19b722c391a00",
    "dataset/24581/preamble": "db8388f24e00790b7c6d07128b364a580b93ce8a5373594b77192ae077337572",
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
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", ["table", "dataset", "bundle", "ragged-bundle"])
def test_writer_bytes_match_recorded_digests(tmp_path, kind, n, with_preamble):
    path = tmp_path / "out.csv"
    write_case(kind, n, path, PREAMBLE if with_preamble else None)
    assert sha256(path) == WRITER_DIGESTS[f"{kind}/{n}/{'preamble' if with_preamble else 'bare'}"]


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_output_bytes_match_recorded_digests(tmp_path, case):
    argv, name = CLI_CASES[case]
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
    assert sha256(tmp_path / name) == CLI_DIGESTS[case]


@pytest.mark.parametrize("kind", ["table", "dataset", "bundle", "ragged-bundle"])
def test_written_files_read_back(tmp_path, kind):
    path = tmp_path / "out.csv"
    n = CHUNK_ROWS + 1
    write_case(kind, n, path, PREAMBLE)
    salt = f"{kind}-{n}"
    if kind == "table":
        assert np.array_equal(read_table_csv(path).outcomes, outcomes(n, 4, salt))
    elif kind == "dataset":
        dataset = read_dataset_csv(path, CANONICAL_CONTEXTS[2])
        assert np.array_equal(dataset.pairs, outcomes(n, 2, salt))
    elif kind == "bundle":
        for original, read in zip(bundle_of((n, n, n, n), salt).datasets, read_bundle_csv(path).datasets):
            assert np.array_equal(original.pairs, read.pairs)
    else:
        with pytest.raises(ConfigError, match=r"no rows for context \(1,2\)"):
            read_bundle_csv(path)


# --- integer CSV reader: what it accepts and rejects -------------------------------

TABLE_ROWS = np.array([[1, -1, 1, 1], [-1, -1, 1, -1], [1, 1, -1, -1]])


@pytest.mark.parametrize(
    "text",
    [
        "trial,a1,a2,b1,b2\n0,1,-1,1,1\n1,-1,-1,1,-1\n2,1,1,-1,-1\n",
        "trial,a1,a2,b1,b2\n0,1,-1,1,1\n1,-1,-1,1,-1\n2,1,1,-1,-1",
        "# seed: 3\n\n# note: x\ntrial,a1,a2,b1,b2\n# mid\n0,1,-1,1,1\n\n   \n"
        "  # indented comment\n1,-1,-1,1,-1\n\t\n2,1,1,-1,-1\n# tail\n\n",
        "# seed: 3\r\ntrial,a1,a2,b1,b2\r\n0,1,-1,1,1\r\n1,-1,-1,1,-1\r\n2,1,1,-1,-1\r\n",
        "  trial,a1,a2,b1,b2  \n 0,1,-1,1,1\n\t1,-1,-1,1,-1 \n2,1,1,-1,-1   \n",
        "trial,a1,a2,b1,b2\n0, 1,-1 ,1,1\n1,-1,-1,1,-1\n2,1,1,-1,-1 # trailing comment\n",
    ],
    ids=["plain", "no-final-newline", "comments-and-blanks", "crlf", "surrounding-spaces",
         "inner-spaces-and-trailing-comment"],
)
def test_reader_accepts(tmp_path, text):
    path = tmp_path / "table.csv"
    path.write_bytes(text.encode())
    assert np.array_equal(read_table_csv(path).outcomes, TABLE_ROWS)


@pytest.mark.parametrize("text", ["trial,a1,a2,b1,b2\n", "# c\ntrial,a1,a2,b1,b2\n\n# only comments\n  \n"],
                         ids=["header-only", "header-and-comments"])
def test_reader_accepts_empty_body(tmp_path, text):
    path = tmp_path / "table.csv"
    path.write_bytes(text.encode())
    assert read_table_csv(path).n_rows == 0


@pytest.mark.parametrize(
    ("text", "match"),
    [
        ("", "expected header 'trial,a1,a2,b1,b2', found '<empty>'"),
        ("# only a comment\n\n", "found '<empty>'"),
        ("trial,a,b\n0,1,1\n", "expected header 'trial,a1,a2,b1,b2', found 'trial,a,b'"),
        ("0,1,1,1,1\ntrial,a1,a2,b1,b2\n", "found '0,1,1,1,1'"),
        ("trial,a1,a2,b1,b2 # c\n0,1,1,1,1\n", "expected header"),
        ("trial;a1;a2;b1;b2\n0;1;1;1;1\n", "expected header"),
        ("trial,a1,a2,b1,b2\n0,1,1,x,1\n", "malformed"),
        ("trial,a1,a2,b1,b2\n0,1,1,1.0,1\n", "malformed"),
        ("trial,a1,a2,b1,b2\n0,1,1,,1\n", "malformed"),
        ("trial,a1,a2,b1,b2\n0,1,1,1,1\n1,1,1,1\n", "malformed"),
        ("trial,a1,a2,b1,b2\n0,1,1,1\n1,1,1,1\n", "expected 5 columns, got 4"),
        ("trial,a1,a2,b1,b2\n0,1,1,1,1,1\n", "expected 5 columns, got 6"),
    ],
    ids=["empty", "comments-only", "wrong-header", "data-before-header", "header-with-comment",
         "wrong-delimiter", "non-integer-cell", "float-cell", "empty-cell", "ragged-rows",
         "too-few-columns", "too-many-columns"],
)
def test_reader_rejects(tmp_path, text, match):
    path = tmp_path / "table.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ConfigError, match=match):
        read_table_csv(path)


def test_reader_leaves_outcome_values_to_the_table(tmp_path):
    path = tmp_path / "table.csv"
    path.write_bytes(b"trial,a1,a2,b1,b2\n0,1,1,2,1\n")
    with pytest.raises(DomainError, match="outcomes must be"):
        read_table_csv(path)


def test_bundle_reader_rejects_foreign_context(tmp_path):
    path = tmp_path / "bundle.csv"
    path.write_bytes(b"trial,context_i,context_j,a,b\n0,1,1,1,1\n0,1,2,1,1\n0,2,1,1,1\n0,2,2,1,1\n0,3,1,1,1\n")
    with pytest.raises(ConfigError, match="outside the four canonical contexts"):
        read_bundle_csv(path)
