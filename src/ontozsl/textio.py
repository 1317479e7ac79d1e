"""How numbers and input files cross the text boundary.

Every artifact, config and report writes its floats with :func:`fmt`, at 17
significant digits, which round-trips every double exactly; it reads them
back with :func:`read_floats`, which accepts only finite values, and reads
integers with :func:`read_int`, which accepts only plain ASCII digits.
Config keys and CLI flags both go through :func:`read_setting`.  A malformed
value is a :class:`DataError` naming where it was found.

Loaders other than the ontology parser and the normal-form reader (which
report columns too) read rows with :func:`lines`, naming each one ``<file>
line <n>``, and reject a repeated key with :func:`unique`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Container, Iterator, Sequence

import numpy as np

from .errors import DataError


def fmt(x: float) -> str:
    """One float at 17 significant digits."""
    return format(float(x), ".17g")


def read_floats(fields: Sequence[str], where: str, size: int | None = None) -> np.ndarray:
    """Finite floats, one per field; anything else is a DataError at ``where``."""
    try:
        row = np.array([float(v) for v in fields], dtype=float)
    except ValueError as exc:
        raise DataError(f"{where}: {exc}") from None
    if not np.isfinite(row).all():
        raise DataError(f"{where}: values must be finite")
    if size is not None and row.size != size:
        raise DataError(f"{where}: expected {size} values, got {row.size}")
    return row


def lines(text: str, what: str) -> Iterator[tuple[str, str]]:
    """``(where, line)`` of each non-blank line, ``where`` reading ``<what> line <n>``."""
    for number, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            yield f"{what} line {number}", line


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


_BOOL_WORDS = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def read_setting(text: str, like: object, where: str) -> object:
    """``text`` read as the type of ``like``: a boolean word, an integer, a float or text."""
    if isinstance(like, bool):
        if text.lower() not in _BOOL_WORDS:
            raise DataError(f"{where}: expected a boolean, got {text!r}")
        return _BOOL_WORDS[text.lower()]
    if isinstance(like, int):
        return read_int(text, where)
    if isinstance(like, float):
        return float(read_floats([text], where, 1)[0])
    return text


def write_setting(value: object) -> str:
    """The text that :func:`read_setting` reads back as ``value``."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return fmt(value) if isinstance(value, float) else str(value)


def read_file(path: str, what: str) -> str:
    """The text of a named input file; a missing or undecodable one is a DataError."""
    if not path:
        raise DataError(f"no {what} file configured")
    p = Path(path)
    if not p.exists():
        raise DataError(f"{what} file not found: {path}")
    try:
        return p.read_text()
    except UnicodeDecodeError as exc:
        raise DataError(f"{what} file {path}: not text at byte {exc.start}") from None
