"""The number and file boundary, and a fuzz gate over every text loader.

Every loader must turn arbitrary text into a value or a DataError, and the
CLI must turn arbitrary input files into an exit code, never a traceback.
Fuzzed configs only go through ``parse_config``: running the pipeline on one
could ask for an arbitrarily large model.
"""

import itertools
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ontozsl import elembed, harness, textio, textwalk, zslmap
from ontozsl.cli import main
from ontozsl.elembed import Ball, EmbeddingSpace
from ontozsl.errors import DataError
from ontozsl.normalform import normalize, read_normalized, write_normalized
from ontozsl.ontology import parse_ontology
from ontozsl.pipeline import parse_config

ONTOLOGY = """Concept(A)
Concept(B)
Concept(C)
Relation(r)
Individual(a)
SubClassOf(A Some(r And(B C)))
EquivalentTo(C And(A Some(r One(a))))
Instance(a B)
Label(A "alpha")
"""

SPACE = elembed.export_space(
    EmbeddingSpace(2, {"A": Ball(np.array([1.0, 0.0]), 0.1), "B": Ball(np.array([0.0, 1.0]), 0.1)},
                   {"r": np.array([0.5, -0.5])})
)

# One valid file per format; fuzzing starts from these or from scratch.
VALID = {
    "ontology": ONTOLOGY,
    "normalized": write_normalized(normalize(parse_ontology(ONTOLOGY))),
    "features": "x0\ta\t1,0\nx1\tb\t0,1\n",
    "split": "[seen]\na\n[unseen]\nb\n",
    "attributes": "a\t1,0\nb\t0,1\n",
    "class_map": "a\tA\nb\tB\n",
    "encodings": "#components\tattribute\na\t1,0\nb\t0,1\n",
    "model": zslmap.save_model(zslmap.LinearMap("sae", 0.5, np.eye(2))),
    "space": SPACE,
    "vectors": "2 2\na 1 0\nb 0 1\n",
    "corpus": "a r b\nb subclass of c\n",
    "config": "seed = 1\nel_dim = 4\nel_margin = 0.5\nmapper = ridge\ncandidates = all\n",
    "predictions": "x1\tb\tb\nx2\ta\tb\n",
    "labels": "a\nb\n",
}

def rows_of(load, what: str):
    """``load`` over the rows of a text (or over rows), as the CLI runs it over a file's rows."""
    return lambda text: load(textio.lines(text, what) if isinstance(text, str) else text)


LOADERS = {
    "ontology": parse_ontology,
    "normalized": read_normalized,
    "features": rows_of(harness.parse_features, "features"),
    "split": rows_of(harness.parse_split, "split"),
    "attributes": rows_of(harness.parse_vector_table, "attributes"),
    "class_map": rows_of(harness.parse_class_map, "class map"),
    "encodings": rows_of(zslmap.load_encodings, "encodings"),
    "model": rows_of(zslmap.load_model, "model"),
    "space": elembed.import_space,
    "vectors": rows_of(textwalk.load_word_vectors, "word vectors"),
    "corpus": rows_of(textwalk.load_corpus, "corpus"),
    "config": parse_config,
    "predictions": rows_of(harness.parse_predictions, "predictions"),
}

# Pieces of the formats above, so fuzzed text reaches past the first check.
TOKENS = [
    "\t", "\n", " ", ",", "=", "(", ")", "#", "0", "1", "2", "-1", "1.5", "1e400", "nan", "inf",
    "+3", "1_0", "٣", "x", "a", "b", "A", "r", "#dim", "C", "R", "#kind", "#shape", "sae",
    "ridge", "#components", "el_center", "[seen]", "[unseen]", "NF1", "NF2", "NF4", "DISJ",
    "RSUB", "# prov:", "# fresh:", "# nominal:", "# concepts:", "# relations:", "And", "Some",
    "One", "Top", "Bottom", "Concept", "SubClassOf", '"', "seed", "el_dim", "el_margin",
    "mapper", "candidates", "true",
]
PIECES = st.one_of(st.sampled_from(TOKENS), st.text(max_size=3))
FUZZ = st.one_of(st.text(), st.lists(PIECES, max_size=30).map("".join))


@st.composite
def near(draw, valid: str) -> str:
    """``valid`` with one to three short spans replaced by format pieces."""
    text = valid
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 6)))
        text = text[:i] + draw(PIECES) + text[j:]
    return text


def fuzzed(name: str):
    return st.one_of(FUZZ, near(VALID[name]))


# ---------------------------------------------------------------------------
# the boundary itself
# ---------------------------------------------------------------------------


def test_only_textio_spells_the_float_format():
    package = Path(textio.__file__).parent
    offenders = [p.name for p in sorted(package.glob("*.py")) if ".17g" in p.read_text()]
    assert offenders == ["textio.py"]


def test_only_textio_reads_rows():
    """Row lines and the repeated-key rule cross the boundary in textio alone.

    The ontology parser and the normal-form reader also report columns, so
    they keep their own line loops.
    """
    package = Path(textio.__file__).parent
    sources = {p.name: p.read_text() for p in sorted(package.glob("*.py"))}
    assert [name for name, text in sources.items() if "appears twice" in text] == ["textio.py"]
    splitters = [name for name, text in sources.items() if "splitlines" in text]
    assert splitters == ["normalform.py", "ontology.py", "textio.py"]


def test_lines_skip_blanks_and_name_file_and_line():
    text = "a\n\n  \n\tb\r\nc"
    assert list(textio.lines(text, "labels")) == [
        ("labels line 1", "a"), ("labels line 4", "\tb"), ("labels line 5", "c")
    ]


def test_unique_names_the_repeated_key():
    assert textio.unique({"a"}, "b", "labels line 2", "label") == "b"
    with pytest.raises(DataError, match="^labels line 2: label 'a' appears twice$"):
        textio.unique({"a"}, "a", "labels line 2", "label")


def test_no_cli_number_bypasses_textio():
    package = Path(textio.__file__).parent
    pattern = re.compile(r"\btype\s*=\s*(int|float)\b")
    offenders = [p.name for p in sorted(package.glob("*.py")) if pattern.search(p.read_text())]
    assert offenders == []


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_every_finite_float_round_trips(x):
    assert textio.read_floats([textio.fmt(x)], "here", 1)[0] == x
    assert textio.fmt(np.float64(x)) == textio.fmt(x)


@pytest.mark.parametrize("field", ["nan", "-inf", "1e400", "", "1,2", "x-0.05"])
def test_read_floats_rejects_non_finite_and_malformed_fields(field):
    with pytest.raises(DataError, match="^line 7: "):
        textio.read_floats(["1", field], "line 7")


def test_read_floats_checks_the_size():
    assert textio.read_floats(["1", " 2 "], "here", 2).tolist() == [1.0, 2.0]
    with pytest.raises(DataError, match="expected 3 values, got 2"):
        textio.read_floats(["1", "2"], "here", 3)


# Values both readers take, the edge cases among them, and values neither takes.
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(textio.fmt),
    st.sampled_from(["-0.0", "-0", "5e-324", "4.9406564584124654e-324", "2.2250738585072009e-308",
                     "1e308", "1.7976931348623157e308", " 1", "1\t", "+.5", "5.", "1E5", "\x0c1"]),
)
NOT_FINITE = st.sampled_from(["nan", "inf", "-inf", "Infinity", "1e400", "-1e999"])
MALFORMED = st.one_of(
    st.sampled_from(["q", "1.2.3", "1e", "0x10", "--1", "1 2", '"1"', "\x00", "1_0", "٣", "1\x1f", "\x1f1",
                     "\xa01", "1\r", "\r1", "1\r2", "1\n", "\u2028"]),
    st.sampled_from(["1\x1c", "\x1d1", "1\x1e", "1\u2007", "１", "1#", "#"]),
    st.text(max_size=3),
)


@st.composite
def mutated_rows(draw, max_rows: int) -> list[list[str]]:
    """Rows of finite values, with up to three of: a bad token, a ``#`` in a value, an empty,
    blank or line-break row, a wrong value count, a non-finite value."""
    width = draw(st.integers(1, 4))
    rows = [[draw(FINITE) for _ in range(width)] for _ in range(draw(st.integers(1, max_rows)))]
    for _ in range(draw(st.integers(0, 3))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        j = draw(st.integers(0, len(row) - 1))
        kind = draw(st.sampled_from(["token", "token", "hash", "empty", "count", "non-finite"]))
        if kind == "token":
            row[j] = draw(MALFORMED)
        elif kind == "hash":
            at = draw(st.integers(0, len(row[j])))
            row[j] = row[j][:at] + "#" + row[j][at:]
        elif kind == "empty":
            row[:] = [draw(st.sampled_from(["", " ", "  ", "\t", "\r", "\n"]))]
        elif kind == "count":
            row[:] = row[:-1] if draw(st.booleans()) and len(row) > 1 else row + ["1"]
        else:
            row[j] = draw(NOT_FINITE)
    return rows


@st.composite
def feature_table(draw) -> str:
    """A feature file of :func:`mutated_rows`, perhaps with a repeated id."""
    rows = draw(mutated_rows(12))
    ids = [f"s{i}" for i in range(len(rows))]
    if draw(st.booleans()):
        ids[draw(st.integers(0, len(ids) - 1))] = ids[draw(st.integers(0, len(ids) - 1))]
    return "".join(f"{ids[i]}\t{'ab'[i % 2]}\t{','.join(row)}\n" for i, row in enumerate(rows))


def features_row_by_row(rows):
    """The feature loader as it was before blocks, one read_floats per row: the oracle."""
    ids, labels, matrix, size = {}, [], [], None
    for where, (sample_id, label, values) in harness._tab_rows(rows, "id", "label", "values"):
        ids[textio.unique(ids, sample_id, where, "sample id")] = None
        matrix.append(textio.read_floats(values.split(","), where, size))
        size = matrix[-1].size
        labels.append(label)
    if not ids:
        raise DataError("feature file has no samples")
    return list(ids), labels, np.array(matrix)


def outcome(read, *args):
    """What ``read`` returns, with each array as its shape and bytes, or its DataError's text."""
    try:
        result = read(*args)
    except DataError as exc:
        return str(exc)
    return [(x.shape, x.tobytes()) if isinstance(x, np.ndarray) else x for x in result]


@settings(max_examples=400, deadline=None)
@given(feature_table(), st.integers(1, 400))
@example("s0\ta\t1,2\ns1\tb\t3\n", 80)
@example("s0\ta\t1,2\ns1\tb\t3,4\n", 80)
@example("s0\ta\t1,2\ns1\tb\t3,4\ns0\ta\tq,4\n", 80)
@example("s0\ta\t1,2\ns1\tb\t3,4\ns2\ta\t5\n", 4)
@example("s0\ta\t1\x1f\n", 80)
@example("s0\ta\t\xa01\n", 80)
def test_the_block_reader_gives_what_the_row_reader_gives(text, block_chars):
    """The same doubles bit for bit, or the same DataError, with blocks small enough to end anywhere."""
    with mock.patch.object(textio, "_BLOCK_CHARS", block_chars):
        blocks = outcome(harness.parse_features, textio.lines(text, "features"))
    assert blocks == outcome(features_row_by_row, textio.lines(text, "features"))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.just([]), mutated_rows(8)), st.integers(1, 400), st.sampled_from([None, 1, 2]))
@example([["1", "2"], ["3"]], 40, None)
@example([["\r"]], 40, None)
@example([["1", "2"], ["\n"]], 40, None)
@example([["1", "2"], ["inf", "2"]], 40, None)
@example([["1"]], 40, 2)
def test_read_float_rows_reads_any_row_as_read_floats_does(values, block_chars, size):
    """Rows given in code may hold line breaks, which a file's rows cannot."""
    rows = [(f"row {i}", ",".join(row)) for i, row in enumerate(values)]

    def row_by_row():
        matrix, width = [], size
        for where, text in rows:
            matrix.append(textio.read_floats(text.split(","), where, width))
            width = matrix[-1].size
        return [np.array(matrix) if matrix else np.empty((0, size or 0))]

    with mock.patch.object(textio, "_BLOCK_CHARS", block_chars):
        blocks = outcome(lambda: [textio.read_float_rows(rows, size)])
    assert blocks == outcome(row_by_row)


@pytest.mark.parametrize("text", ["+3", "1_0", " 3", "3 ", "-1", "-0", "3.0", "", "٣", "３", "9" * 5000])
def test_read_int_takes_ascii_digits_only(text):
    with pytest.raises(DataError, match="^here: expected an integer >= 0"):
        textio.read_int(text, "here")


def test_read_int_minimum_and_leading_zeros():
    assert textio.read_int("007", "here") == 7
    assert textio.read_int("0", "here") == 0
    with pytest.raises(DataError, match=">= 1"):
        textio.read_int("0", "here", 1)


@pytest.mark.parametrize("spelling", ["1_0", "٣.٥", "٠.٢", "１", "1e\u0663"])
def test_float_spellings_float_takes_but_loadtxt_does_not_are_rejected_in_every_format(spelling):
    """Underscores and non-ASCII digits, which ``float()`` reads, are errors in every file."""
    with pytest.raises(DataError, match="el_margin"):
        parse_config(f"el_margin = {spelling}\n")
    for name, text in [
        ("features", f"x0\ta\t1,{spelling}\n"),
        ("attributes", f"a\t{spelling},1\n"),
        ("encodings", f"#components\tattribute\na\t1,{spelling}\n"),
        ("model", f"#kind\tsae\t{spelling}\n#shape\t1\t1\n1\n"),
        ("model", f"#kind\tsae\t0.5\n#shape\t1\t2\n1,{spelling}\n"),
        ("space", f"#dim\t1\nC\tA\t{spelling}\t0.5\n"),
        ("vectors", f"1 2\na 1 {spelling}\n"),
    ]:
        with pytest.raises(DataError, match=f"could not convert string to float: {re.escape(repr(spelling))}"):
            LOADERS[name](text)


@pytest.mark.parametrize("spelling", ["+3", "1_0", "٣"])
def test_integer_spellings_are_rejected_in_every_format(spelling):
    with pytest.raises(DataError, match="el_dim"):
        parse_config(f"el_dim = {spelling}\n")
    with pytest.raises(DataError, match="line 2"):
        LOADERS["model"](f"#kind\tsae\t0.5\n#shape\t{spelling}\t2\n1,0\n0,1\n1,1\n")
    with pytest.raises(DataError, match="line 1"):
        elembed.import_space(f"#dim\t{spelling}\n")
    with pytest.raises(DataError, match="line 1"):
        LOADERS["vectors"](f"{spelling} 2\n" + "a 1 0\n" * 3)


def test_read_file_errors_are_data_errors(tmp_path):
    with pytest.raises(DataError, match="no features file configured"):
        textio.read_file("", "features")
    with pytest.raises(DataError, match="not found"):
        textio.read_file(str(tmp_path / "absent"), "features")
    binary = tmp_path / "binary"
    binary.write_bytes(b"ok\n\xff\xfe")
    with pytest.raises(DataError, match="not text at byte 3"):
        textio.read_file(str(binary), "features")


def test_file_lines_checks_the_path_at_the_call(tmp_path):
    """Before any row is taken, as ``read_file`` does, so the first of two files named fails first."""
    for path in ["", str(tmp_path / "absent")]:
        with pytest.raises(DataError) as whole:
            textio.read_file(path, "features")
        with pytest.raises(DataError) as streamed:
            textio.file_lines(path, "features")  # not iterated
        assert str(streamed.value) == str(whole.value)


# The line breaks of str.splitlines, a BOM and text around them.
LINE_PIECES = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
               "\ufeff", " ", "\t", "a", "bc", "é", "€"]


def streamed_and_whole(data: bytes, what: str = "labels") -> tuple[list, list]:
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "file")
        Path(path).write_bytes(data)
        return list(textio.file_lines(path, what)), list(textio.lines(textio.read_file(path, what), what))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(LINE_PIECES), max_size=40).map("".join), st.booleans())
def test_file_lines_yield_what_lines_of_read_file_yields(text, bom):
    streamed, whole = streamed_and_whole((b"\xef\xbb\xbf" if bom else b"") + text.encode())
    assert streamed == whole


def test_file_lines_number_every_kind_of_line_break():
    text = "a\r\nb\rc\x0bd\x0ce\x1cf\x85g\u2028h\n\n  \ni"  # blank lines count, no final newline
    streamed, whole = streamed_and_whole(("\ufeff" + text).encode())
    assert streamed == whole
    assert [where for where, _ in streamed][-3:] == ["labels line 7", "labels line 8", "labels line 11"]
    assert streamed[0] == ("labels line 1", "\ufeffa")


@pytest.mark.parametrize(
    "data",
    [
        b"row one\n" * 2000 + b"bad \xff byte\n",  # past the first 8 KiB, mid-line
        b"x" * 9000 + b"\n" + b"\xe2\x82",  # a character cut off at the end
        b"\xc3\nrest\n",  # a lead byte before a line break
        b"ok\n\xff\xfe",
    ],
    ids=["past-8-KiB", "cut-at-end", "lead-byte", "second-line"],
)
def test_file_lines_report_an_undecodable_byte_at_its_file_offset(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "file")
        Path(path).write_bytes(data)
        with pytest.raises(DataError) as whole:
            textio.read_file(path, "features")
        with pytest.raises(DataError) as streamed:
            list(textio.file_lines(path, "features"))
    assert str(streamed.value) == str(whole.value)
    assert str(streamed.value).startswith(f"features file {path}: not text at byte ")


def test_a_streamed_table_reports_a_bad_row_before_a_later_undecodable_byte(tmp_path):
    path = tmp_path / "features.tsv"
    path.write_bytes(b"s1\tcat\t1,2\ns2\tcat\t1,q\ns3\tcat\t\xff\n")
    with pytest.raises(DataError, match="^features line 2: could not convert string to float: 'q'$"):
        harness.parse_features(textio.file_lines(str(path), "features"))


def test_file_lines_can_name_the_rows_apart_from_the_file(tmp_path):
    with pytest.raises(DataError, match="^pretrained vectors file not found: "):
        textio.file_lines(str(tmp_path / "absent"), "pretrained vectors", "word vectors")
    path = tmp_path / "vectors.txt"
    path.write_text("1 2\na 1 q\n")
    with pytest.raises(DataError, match="^word vectors line 2: "):
        textwalk.load_word_vectors(textio.file_lines(str(path), "pretrained vectors", "word vectors"))


@pytest.mark.parametrize(
    "token", ["1", "-0", " 1", "1 ", "1_0", "١", "１", "infinity", "1e400", "nan", "", "0x10", "1,2", "1 2",
              "+.5", "5.", "1e-320", "\u20071", "\x00"],
)
def test_read_floats_reads_each_field_as_float_does(token):
    """As ``float()`` does, once a field with ``_`` or a non-ASCII character is refused as it refuses one."""
    try:
        if not token.isascii() or "_" in token:
            raise ValueError(f"could not convert string to float: {token!r}")
        expected = float(token)
    except ValueError as exc:
        with pytest.raises(DataError) as err:
            textio.read_floats(["0", token], "here")
        assert str(err.value) == f"here: {exc}"
        return
    if not np.isfinite(expected):
        with pytest.raises(DataError, match="^here: values must be finite$"):
            textio.read_floats(["0", token], "here")
    else:
        assert textio.read_floats(["0", token], "here")[1:].tobytes() == np.float64(expected).tobytes()


ROW_LOADERS = {
    "features": ("x0\ta\t1,0\nx1\tb\t0,q\n", "x9\tc\t1,1\n"),
    "split": ("[seen]\na\na\n", "b\n"),
    "attributes": ("a\t1,0\nb\tq,1\n", "c\t1,1\n"),
    "class_map": ("a\tA\nb\n", "c\tC\n"),
    "encodings": ("#components\tattribute\na\t1,0\nb\t0,q\n", "c\t1,1\n"),
    "model": ("#kind\tsae\t0.5\n#shape\t3\t2\n1,0\n0,q\n", "1,1\n"),
    "vectors": ("3 2\na 1 0\nb 0 q\n", "c 1 1\n"),
    "predictions": ("x1\tb\tb\nx1\ta\tb\n", "x2\ta\ta\n"),
}


@pytest.mark.parametrize("name", sorted(ROW_LOADERS))
def test_row_loaders_stop_at_the_first_bad_row(name):
    """A bad row's error wins over the error of the row past it, as over a later undecodable byte.

    Most loaders never take that row.  The comma-separated float tables read
    a block of rows ahead, so they take it, and report the bad row first.
    """
    head, tail = ROW_LOADERS[name]

    def past():
        raise DataError("x line 99: the row past the bad one")
        yield  # a generator

    loader = LOADERS[name]
    with pytest.raises(DataError, match=r"line \d+: ") as err:
        loader(itertools.chain(textio.lines(head, "x"), past()))
    assert "line 99" not in str(err.value)
    with pytest.raises(DataError):  # with the tail as text, the same rows fail the same way
        loader(head + tail)


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("vectors", "3 2\na 1 q\n", "word vectors line 2: could not convert string to float: 'q'"),
        ("vectors", "3 2\na 1 2\n", "expected 3 vector rows, found 1"),
        ("model", "#kind\tsae\t0.5\n#shape\t3\t2\n1,q\n", "model line 3: could not convert string to float: 'q'"),
        ("model", "#kind\tsae\t0.5\n#shape\t3\t2\n1,0\n", "expected 3 weight rows, found 1"),
        ("encodings", "a\t1,q\n", "encodings line 1: could not convert string to float: 'q'"),
        ("encodings", "a\t1,0\n", "encodings file has no #components header"),
        ("encodings", "#components\tattribute\na\tq\n#components\tword\n",
         "encodings line 2: could not convert string to float: 'q'"),
    ],
    ids=["vectors-row", "vectors-count", "model-row", "model-count", "encodings-row", "encodings-header",
         "encodings-second-header"],
)
def test_streamed_loaders_report_errors_in_line_order(name, text, message):
    """A row error comes before a count or header check that needs every row."""
    with pytest.raises(DataError) as err:
        LOADERS[name](text)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# loader fuzz gate
# ---------------------------------------------------------------------------


def test_every_fuzz_seed_is_a_valid_file():
    for name, load in LOADERS.items():
        load(VALID[name])


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_loaders_return_a_value_or_a_data_error(name, data):
    text = data.draw(fuzzed(name))
    try:
        LOADERS[name](text)
    except DataError:
        pass


# Each command with the file it reads fuzzed; the other inputs stay valid.
COMMANDS = {
    "parse": (["parse", "{ontology}"], ["ontology"]),
    "classify": (["classify", "--normalized", "{normalized}"], ["normalized"]),
    "embed-el": (["embed-el", "--normalized", "{normalized}", "--epochs", "1", "--dim", "2"],
                 ["normalized"]),
    "w2v": (["w2v", "--corpus", "{corpus}", "--epochs", "1"], ["corpus"]),
    "encode": (["encode", "--labels", "{labels}", "--components", "el_center,word,attribute",
                "--space", "{space}", "--vectors", "{vectors}", "--attributes", "{attributes}",
                "--class-map", "{class_map}"], ["space", "vectors", "attributes", "class_map"]),
    "predict": (["predict", "--features", "{features}", "--split", "{split}",
                 "--encodings", "{encodings}", "--model", "{model}"], ["model"]),
    "eval": (["eval", "--predictions", "{predictions}", "--split", "{split}"], ["predictions"]),
}


def run_command(command: str, files: dict[str, bytes]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / name for name in VALID}
        for name, path in paths.items():
            path.write_bytes(files.get(name, VALID[name].encode()))
        argv = [arg.format(**paths) for arg in COMMANDS[command][0]]
        return main(argv + ["--out", str(Path(tmp) / "out")])


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_commands_accept_the_valid_files(command):
    assert run_command(command, {}) == 0


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_commands_exit_0_to_3_on_fuzzed_files(command, data):
    name = data.draw(st.sampled_from(COMMANDS[command][1]))
    text = st.one_of(fuzzed(name).map(lambda t: t.encode("utf-8", "surrogatepass")), st.binary())
    assert run_command(command, {name: data.draw(text)}) in (0, 1, 2, 3)
