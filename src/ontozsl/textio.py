"""How numbers and input files cross the text boundary.

Every artifact, config and report writes its floats with :func:`fmt`, at 17
significant digits, which round-trips every double exactly; it reads them
back with :func:`read_floats`, which accepts only finite values, and reads
integers with :func:`read_int`, which accepts only plain ASCII digits.  A
float field is ASCII text that ``float()`` reads, without ``_``.  A table of
comma-separated floats is read with :func:`read_float_rows`, which parses
blocks of rows with ``np.loadtxt`` into one matrix and reads a block row by
row with :func:`read_floats` only when ``np.loadtxt`` cannot take it whole,
so it accepts exactly what :func:`read_floats` accepts.  Config keys and the
numeric ``synth`` flags go through :func:`read_setting`, and every setting is
an integer, a float or text.  A malformed value is a :class:`DataError`
naming where it was found.

Loaders other than the ontology parser and the normal-form reader (which
report columns too) take rows from :func:`lines`, or from :func:`file_lines`,
which reads the same rows from a file one line at a time, so a table's text
is never held whole; each row is named ``<file> line <n>``, and a repeated
key is rejected with :func:`unique`.  Both drop one byte-order mark (U+FEFF)
that opens a file, as the ``utf-8-sig`` codec does, so every input file
reads the same with or without one.
"""

from __future__ import annotations

import locale
from pathlib import Path
from typing import Container, Iterable, Iterator, Sequence

import numpy as np

from .errors import DataError

Rows = Iterable[tuple[str, str]]  # (where, line) pairs, as lines and file_lines yield them


def fmt(x: float) -> str:
    """One float at 17 significant digits."""
    return format(float(x), ".17g")


def read_floats(fields: Sequence[str], where: str, size: int | None = None) -> np.ndarray:
    """Finite floats, one per field; anything else is a DataError at ``where``.

    A field is read by ``float()``, but only if it is ASCII and has no ``_``:
    ``1_0`` and non-ASCII digits are errors here as they are to
    ``np.loadtxt``, and so is a non-ASCII space, which ``np.loadtxt`` skips.
    """
    try:
        row = np.array([_float(field) for field in fields], dtype=float)
    except ValueError as exc:
        raise DataError(f"{where}: {exc}") from None
    if not np.isfinite(row).all():
        raise DataError(f"{where}: values must be finite")
    if size is not None and row.size != size:
        raise DataError(f"{where}: expected {size} values, got {row.size}")
    return row


def _float(field: str) -> float:
    if not field.isascii() or "_" in field:
        raise ValueError(f"could not convert string to float: {field!r}")
    return float(field)


# Text handed to one np.loadtxt call.  Loading a 2,000 x 128 feature file
# peaked at 1.15x the loaded dataset with 128 KB blocks, 1.26x with 256 KB
# and 2.0x with 1 MB.
_BLOCK_CHARS = 1 << 17
# Line breaks, and the separators np.loadtxt skips as spaces where float() fails.
_NOT_IN_BLOCKS = "\n\r\x1c\x1d\x1e\x1f"


def read_float_rows(rows: Rows, size: int | None = None) -> np.ndarray:
    """The matrix whose row ``i`` is :func:`read_floats` of row ``i``'s comma-separated text.

    ``size`` is the row length, by default the first row's.  Rows are
    parsed in blocks of about 128 KB of text, one ``np.loadtxt`` call each.
    A block that is not one finite row of ``size`` ASCII values per input row
    is read again row by row with :func:`read_floats`, which raises the
    error of its first bad row.  A DataError of the rows themselves (a bad
    key, an undecodable byte) is raised after the rows before it are parsed,
    so errors come in line order.  The matrix grows by ``realloc`` a block
    at a time (glibc extends or remaps it in place), and no row is held
    twice, so reading peaks near the matrix's own size.
    """
    matrix = np.empty((0, size or 0))
    for block in _blocks(rows):
        part = _parse_block(block, size)
        count, size = len(matrix), part.shape[1]
        matrix.resize((count + len(part), size), refcheck=False)
        matrix[count:] = part
    return matrix


def _blocks(rows: Rows) -> Iterator[list[tuple[str, str]]]:
    """The rows in lists of about ``_BLOCK_CHARS`` characters.

    A DataError of the rows is raised after the list of the rows before it.
    """
    block: list[tuple[str, str]] = []
    chars = 0
    try:
        for row in rows:
            block.append(row)
            chars += len(row[1])
            if chars >= _BLOCK_CHARS:
                yield block
                block, chars = [], 0
    except DataError:
        if block:
            yield block
        raise
    if block:
        yield block


def _plain(text: str) -> bool:
    """Whether ``np.loadtxt`` reads ``text`` as ``float()`` does."""
    return text.isascii() and not any(c in text for c in _NOT_IN_BLOCKS)


def _parse_block(block: list[tuple[str, str]], size: int | None) -> np.ndarray:
    """The block's rows, from one ``np.loadtxt`` call if it takes them all, else from :func:`read_floats`."""
    texts = [text for _, text in block]
    if all(texts) and _plain("".join(texts)):
        try:
            part = np.loadtxt(texts, delimiter=",", dtype=float, ndmin=2, comments=None)
        except ValueError:
            pass
        else:
            width = part.shape[1] if size is None else size
            if part.shape == (len(texts), width) and np.isfinite(part).all():
                return part
    parsed = []
    for where, text in block:
        parsed.append(read_floats(text.split(","), where, size))
        size = parsed[0].size
    return np.array(parsed)


def _numbered(pieces: Iterable[str], what: str) -> Iterator[tuple[str, str]]:
    for number, line in enumerate(pieces, start=1):
        if line.strip():
            yield f"{what} line {number}", line


def lines(text: str, what: str) -> Iterator[tuple[str, str]]:
    """``(where, line)`` of each non-blank line, ``where`` reading ``<what> line <n>``."""
    return _numbered(text.splitlines(), what)


def file_lines(path: str, what: str, rows: str | None = None) -> Iterator[tuple[str, str]]:
    """What ``lines(read_file(path, what), rows or what)`` yields, read one line at a time.

    The path is checked at the call, with :func:`read_file`'s errors; the file
    is opened when the first row is taken.  It is read in binary up to each
    ``\\n`` and each piece is decoded alone, in the encoding ``read_file`` uses
    (an ASCII-compatible one, in which no character's bytes hold ``\\n``), then
    split with ``str.splitlines``, so the numbering is the same.  An
    undecodable byte is the same DataError, with the same absolute offset,
    but it is raised only when its line is reached, after the rows before it.
    ``rows`` names the rows where the file's noun is not theirs: a pretrained
    vectors file holds ``word vectors`` rows.
    """
    _checked(path, what)
    return _numbered(_decoded(path, what), rows or what)


# A byte-order mark, which some editors write at the start of a UTF-8 file.
_BOM = "\ufeff"


def _decoded(path: str, what: str) -> Iterator[str]:
    encoding = locale.getpreferredencoding(False)
    offset = 0
    with open(path, "rb") as stream:
        for raw in stream:
            try:
                text = raw.decode(encoding)
            except UnicodeDecodeError as exc:
                raise DataError(f"{what} file {path}: not text at byte {offset + exc.start}") from None
            if not offset:
                text = text.removeprefix(_BOM)
            offset += len(raw)
            yield from text.splitlines()


def unique(seen: Container[str], key: str, where: str, noun: str) -> str:
    """``key``, unless ``seen`` holds it already: then a DataError at ``where``."""
    if key in seen:
        raise DataError(f"{where}: {noun} {key!r} appears twice")
    return key


def read_int(text: str, where: str, minimum: int = 0) -> int:
    """ASCII digits only (no sign, spaces or underscores), at least ``minimum``."""
    try:
        if text.isascii() and text.isdigit() and int(text) >= minimum:
            return int(text)
    except ValueError:  # more digits than the interpreter converts
        pass
    raise DataError(f"{where}: expected an integer >= {minimum}, got {text!r}")


def read_setting(text: str, like: object, where: str) -> object:
    """``text`` read as the type of ``like``: an integer, a float or text."""
    if isinstance(like, int):
        return read_int(text, where)
    if isinstance(like, float):
        return float(read_floats([text], where, 1)[0])
    return text


def write_setting(value: object) -> str:
    """The text that :func:`read_setting` reads back as ``value``."""
    return fmt(value) if isinstance(value, float) else str(value)


def _checked(path: str, what: str) -> Path:
    """``path``, unless it is empty, names nothing or names a directory: then a DataError.

    Anything else that can be read, a FIFO or ``/dev/stdin`` too, passes.
    """
    if not path:
        raise DataError(f"no {what} file configured")
    p = Path(path)
    if not p.exists():
        raise DataError(f"{what} file not found: {path}")
    if p.is_dir():
        raise DataError(f"{what} file {path} is a directory")
    return p


def read_file(path: str, what: str) -> str:
    """The text of a named input file, less one opening byte-order mark.

    A missing or undecodable file is a DataError.  Only the ontology, the normalized axioms and the config are read whole;
    every table goes through :func:`file_lines`.
    """
    p = _checked(path, what)
    try:
        return p.read_text().removeprefix(_BOM)
    except UnicodeDecodeError as exc:
        raise DataError(f"{what} file {path}: not text at byte {exc.start}") from None
