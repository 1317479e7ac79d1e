"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: any :class:`DataError` (bad input text,
unknown names, malformed files) exits with 2, a :class:`NumericalError`
(divergence, non-finite values, degenerate geometry) exits with 3.
"""


class OntozslError(Exception):
    """Base class for every error raised by this package."""


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


def check_ranges(what: str, **in_range: bool) -> None:
    """A RangeError naming each setting whose check is false; write ``x > 0``, which NaN fails."""
    if bad := [name for name, ok in in_range.items() if not ok]:
        raise RangeError(what, bad)
