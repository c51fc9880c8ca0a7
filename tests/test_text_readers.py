"""The text readers and the one ``key = value`` grammar of behavior files, model files and study specs.

Every reader, fed arbitrary bytes or near-valid lines (every line ending, the
``\\v`` and ``\\f`` that break no line, non-UTF-8 bytes, repeated keys), returns
a value or raises a BellSimError.  The three ``key = value`` formats reject a
repeated key, an unknown key, a line without ``=``, an empty value and a value
their parser rejects with the same ConfigError wording.
"""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellsim.behaviors import Behavior, pr_box
from bellsim.errors import BellSimError, ConfigError
from bellsim.fileio import (
    BEHAVIOR_KEYS,
    MODEL_KEYS,
    STUDY_KEYS,
    read_behavior,
    read_density,
    read_keyvalue,
    read_model,
    write_behavior,
)
from bellsim.quantum import singlet
from scalars import SCALARS

COUNTS = np.array([[5, 0, 0, 5], [5, 0, 0, 5], [5, 0, 0, 5], [0, 5, 5, 0]])
BEHAVIOR_TEXT = (
    "context 1 1 = 0.5 0 0 0.5\ncontext 1 2 = 0.5 0 0 0.5\ncontext 2 1 = 0.5 0 0 0.5\ncontext 2 2 = 0 0.5 0.5 0\n"
    "counts 1 1 = 5 0 0 5\ncounts 1 2 = 5 0 0 5\ncounts 2 1 = 5 0 0 5\ncounts 2 2 = 0 5 5 0\n"
)
MODEL_TEXTS = [
    "variant = sign_cosine\na1 = 0\na2 = 1.5\nb1 = 0.7\nb2 = 2.9\nbob_sign = 1\n",
    "variant = boundary_mixture\nstrategies = 1,1,1,1 ; 1,1,1,-1\nweights = 0.5 0.5\n",
    "variant = deterministic\noutcomes = 1 1 1 -1\n",
]
STUDY_TEXT = (
    "generator = deterministic\noutcomes = 1, -1 1 1\nangles = 0 1 2 3\nbob_sign = 1\n"
    "n = 5 50\ntrials = 3\nseed = 1\nthreshold = 2\nmode = fixed\n"
)
DENSITY_TEXT = "".join(f"{z.real!r} {z.imag!r}\n" for z in singlet().matrix.reshape(-1).tolist())

# reader, the keys its lines may start with, and valid files
READERS = {
    "behavior": (read_behavior, BEHAVIOR_KEYS, [BEHAVIOR_TEXT]),
    "model-keys": (lambda path: read_keyvalue(path, MODEL_KEYS), MODEL_KEYS, MODEL_TEXTS),
    "study-keys": (lambda path: read_keyvalue(path, STUDY_KEYS), STUDY_KEYS, [STUDY_TEXT]),
    "model": (read_model, MODEL_KEYS, MODEL_TEXTS),
    "density": (read_density, {}, [DENSITY_TEXT]),
}

# The line breaks the readers take; then what ends no line: characters str.splitlines breaks at, a space, nothing.
BREAKS = ["\n", "\r\n", "\r"]
NOT_BREAKS = ["\v", "\f", "\x1c", "\x85", "\u2028", " ", ""]
NOT_UTF8 = [b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80"]


@st.composite
def near_valid_files(draw, keys, texts):
    """A valid file with up to three lines edited, each line ending drawn, and maybe a non-UTF-8 byte.

    An edit inserts a line (a valid one, or a key spaced as drawn with values
    from SCALARS), deletes one, or puts a value from SCALARS in place of one
    of a line's words.
    """
    lines = draw(st.sampled_from(texts)).splitlines()
    key = st.builds(lambda k, space: k.replace(" ", space), st.sampled_from(sorted(keys) or ["1"]),
                    st.sampled_from([" ", "  ", "\t"])) | st.text(max_size=4)
    drawn = st.builds(lambda k, sep, values, join: f"{k}{sep}{join.join(values)}",
                      key, st.sampled_from([" = ", "=", " ", " == "]),
                      st.lists(SCALARS.map(str), min_size=1, max_size=5), st.sampled_from([" ", ",", ";"]))
    edit = st.tuples(st.just("insert"), st.sampled_from(lines) | drawn) | st.tuples(
        st.just("word"), SCALARS.map(str)) | st.tuples(st.just("delete"), st.none())
    for at, word, (kind, text) in draw(st.lists(st.tuples(st.integers(0, len(lines)), st.integers(0, 9), edit),
                                                max_size=3)):
        if kind == "insert":
            lines.insert(at, text)
        elif lines and kind == "word":
            words = lines[min(at, len(lines) - 1)].split(" ")
            words[word % len(words)] = text
            lines[min(at, len(lines) - 1)] = " ".join(words)
        elif lines:
            del lines[min(at, len(lines) - 1)]
    ending = st.sampled_from(BREAKS * 7 + NOT_BREAKS)  # three lines in four end in a line break
    data = "".join(line + draw(ending) for line in lines).encode()
    if draw(st.integers(0, 7)) == 0:
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + draw(st.sampled_from(NOT_UTF8)) + data[cut:]
    return data


@pytest.mark.parametrize("reader", sorted(READERS))
def test_valid_files_read(tmp_path, reader):
    read, _, texts = READERS[reader]
    path = tmp_path / "input.txt"
    for text in texts:
        path.write_text(text)
        assert read(path) is not None


def reader_inputs(reader):
    _, keys, texts = READERS[reader]
    return st.tuples(st.just(reader), st.binary(max_size=200) | near_valid_files(keys, texts))


def density_text(entries):
    """16 ``re im`` lines: ``entries`` maps a row-major index to its line, every other entry is 0."""
    return "".join(f"{entries.get(k, '0 0')}\n" for k in range(16)).encode()


# Each example once raised a numpy RuntimeWarning (an error in this suite) from a sum or difference that
# overflowed in Behavior's, DensityMatrix's or validate_model's checks, before their BellSimError.
@settings(max_examples=1500, deadline=None)
@given(case=st.sampled_from(sorted(READERS)).flatmap(reader_inputs))
@example(case=("behavior", BEHAVIOR_TEXT.replace("0.5 0 0 0.5", "1e308 1e308 0 0", 1).encode()))
@example(case=("density", density_text({0: "1e308 0", 5: "1e308 0"})))
@example(case=("density", density_text({0: "1e308 0", 5: "1e308 0", 10: "-1e308 0", 15: "-1e308 0"})))
@example(case=("density", density_text({0: "0.25 1e308", 5: "0.25 1e308", 10: "0.25 0", 15: "0.25 0"})))
@example(case=("density", density_text({1: "1e308 0", 4: "-1e308 0", 0: "0.5 0", 5: "0.5 0"})))
@example(case=("model", b"variant = boundary_mixture\nweights = 1e308 1e308\n"))
def test_reader_returns_or_raises_bellsim_error(tmp_path_factory, case):
    reader, data = case
    path = tmp_path_factory.mktemp("reader") / "input.txt"
    path.write_bytes(data)
    try:
        READERS[reader][0](path)
    except BellSimError:
        pass


# format: its reader, a key of it and a value that key takes
FORMATS = {
    "behavior": (read_behavior, "context 1 2", "0.5 0 0 0.5"),
    "model": (read_model, "a1", "0.5"),
    "study": (lambda path: read_keyvalue(path, STUDY_KEYS), "trials", "3"),
}
# case: the file's lines and the message it must raise, from a format's key and value
CASES = {
    "repeated-key": (["{key} = {value}", "{key} = {value}"], "duplicate key '{key}'"),
    "unknown-key": (["{key} = {value}", "colour = blue"], "unknown keys ['colour']; expected some of ["),
    "no-equals": (["{key} {value}"], "expected 'key = value' lines, got '{key} {value}'"),
    "bad-value": (["{key} = x"], "bad value for '{key}': 'x' ("),
    "no-value": (["{key} ="], "malformed line '{key} ='"),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_keyvalue_formats_share_their_errors(tmp_path, fmt, case):
    read, key, value = FORMATS[fmt]
    lines, message = CASES[case]
    path = tmp_path / "input.txt"
    path.write_text("".join(line.format(key=key, value=value) + "\n" for line in lines))
    with pytest.raises(ConfigError, match=re.escape(f"{path}: {message.format(key=key, value=value)}")):
        read(path)


def test_behavior_keys_may_space_their_words_freely(tmp_path):
    path = tmp_path / "input.behavior"
    path.write_text(BEHAVIOR_TEXT.replace("context 1 1", "context  1\t1").replace("counts 2 2", " counts 2   2"))
    assert read_behavior(path) == Behavior(pr_box().probs, COUNTS)


def test_written_behavior_with_preamble_reads_back_equal(tmp_path):
    path = tmp_path / "out.behavior"
    behavior = Behavior(pr_box().probs, COUNTS)
    write_behavior(path, behavior, {"origin": "projection", "seed": 7})
    assert path.read_bytes().startswith(b"# origin: projection\n# seed: 7\ncontext 1 1 = 0.5 0.0 0.0 0.5\n")
    assert read_behavior(path) == behavior


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
def test_lines_break_at_line_feed_and_carriage_return(tmp_path, ending):
    path = tmp_path / "input.behavior"
    path.write_bytes(ending.join(BEHAVIOR_TEXT.splitlines()).encode())
    assert read_behavior(path) == Behavior(pr_box().probs, COUNTS)


@pytest.mark.parametrize("separator", ["\v", "\f", "\x1c", "\x85", "\u2028"])
def test_other_separators_break_no_line(tmp_path, separator):
    path = tmp_path / "model.txt"
    path.write_bytes(f"variant = sign_cosine\na1 = 0{separator}a2 = 1\nb1 = 2\nb2 = 3\n".encode())
    with pytest.raises(ConfigError, match="bad value for 'a1'"):
        read_model(path)
