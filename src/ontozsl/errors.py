"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: any :class:`DataError` (bad input text,
unknown names, malformed files) exits with 2, a :class:`NumericalError`
(divergence, non-finite values, degenerate geometry) exits with 3.
"""

import dataclasses
import numbers


class OntozslError(Exception):
    """Base class for every error raised by this package.

    Errors pickle with their type, message and attributes, whatever their
    subclass's ``__init__`` takes.
    """

    def __reduce__(self):
        return _restore, (type(self), self.args, self.__dict__)


def _restore(cls: type, args: tuple, state: dict) -> OntozslError:
    """Unpickle an error without calling ``cls.__init__``, whose parameters vary."""
    error = cls.__new__(cls)
    error.args = args
    error.__dict__.update(state)
    return error


class DataError(OntozslError):
    """Malformed or inconsistent input data."""


class ElfError(DataError):
    """Syntax or declaration error in ontology text.

    Carries a 1-based ``line`` and ``col`` pointing into the offending input.
    """

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class UnknownNameError(DataError):
    """A concept, relation, label, or token was looked up but never defined."""


class UnsupportedAxiomError(DataError):
    """The axiom is parseable but not handled by the requested operation."""


class NumericalError(OntozslError):
    """Training diverged or a computation hit a numeric degeneracy."""


class RangeError(DataError):
    """Settings out of range; ``names`` lists them so a caller can respell them."""

    def __init__(self, what: str, names: list[str]):
        super().__init__(f"{what} out of range: {', '.join(names)}")
        self.what = what
        self.names = names

    def renamed(self, spelling: dict[str, str]) -> "RangeError":
        """The same error with each setting named as ``spelling`` names it, where it does."""
        return RangeError(self.what, [spelling.get(name, name) for name in self.names])


# The largest parameter table a trainer allocates; training itself needs a few
# times this much, so a larger table is refused before it exhausts memory.
MAX_TABLE_BYTES = 1 << 30


def check_table_size(key: str, rows: int, dim: int, value: int | None = None) -> None:
    """A DataError naming ``key`` when a ``rows`` x ``dim`` float64 table would pass MAX_TABLE_BYTES.

    ``value`` is the setting's value, when the table is not ``key`` wide.
    """
    size = rows * dim * 8
    if size > MAX_TABLE_BYTES:
        raise DataError(
            f"{key} = {dim if value is None else value} needs a {rows} x {dim} parameter table of {size} bytes, "
            f"over the limit of {MAX_TABLE_BYTES}"
        )


def check_ranges(what: str, config: object = None, **in_range: bool) -> None:
    """A RangeError naming each setting whose check is false.

    Bound a float on both sides, as in ``0 < x < math.inf``, which NaN and
    infinity both fail.  With the dataclass ``config``, every field whose
    default is an ``int`` must also hold an integer, so ``2.5``, ``3.0`` and
    infinity fail there too.
    """
    bad = [name for name, ok in in_range.items() if not ok]
    if config is not None:
        bad += [
            f.name for f in dataclasses.fields(config)
            if type(f.default) is int and not isinstance(getattr(config, f.name), numbers.Integral)
            and f.name not in bad
        ]
    if bad:
        raise RangeError(what, bad)
