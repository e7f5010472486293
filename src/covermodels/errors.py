"""Exception types shared across the package.

Everything raised on purpose derives from CoverModelError so callers can
catch one base class at API boundaries. Errors carry enough context to be
actionable (offending value, line number, column name) without requiring
access to internal state.
"""


class CoverModelError(Exception):
    """Base class for all errors raised by this package."""


class QueryOutOfRootRegion(CoverModelError):
    """Query point falls outside the root region and on_outside='reject'."""

    def __init__(self, point, box):
        self.point = point
        self.box = box
        super().__init__(f"query {point!r} outside root region {box!r}")


class DepthLimitExceeded(CoverModelError):
    """A refinement would exceed the configured maximum depth."""


class OutOfSupport(CoverModelError):
    """Observation lies outside the support of a local model."""


class TooLargeToEnumerate(CoverModelError):
    """Exact enumeration oracle refused: state space too large."""


class UnknownSymbol(CoverModelError):
    """Symbol outside the declared alphabet."""

    def __init__(self, symbol, alphabet_size):
        self.symbol = symbol
        self.alphabet_size = alphabet_size
        super().__init__(
            f"symbol {symbol!r} not in alphabet of size {alphabet_size}"
        )


class DegenerateData(CoverModelError):
    """Data admits no meaningful fit (e.g. all covariates identical)."""


class ZeroDenominator(CoverModelError):
    """Conditional density denominator underflowed to zero."""


class ParseError(CoverModelError):
    """Malformed input file."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MissingColumn(CoverModelError):
    """Requested column absent from a CSV header."""

    def __init__(self, name):
        self.name = name
        super().__init__(f"missing column {name!r}")


class BadConfig(CoverModelError):
    """Invalid configuration value or combination."""
