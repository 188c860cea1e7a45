"""Exception hierarchy shared across the package."""


class SmileGeoError(Exception):
    """Base class for all smilegeo errors; ``expiry`` names a failed surface row."""

    expiry: str | None = None

    def named_for(self, expiry: str) -> "SmileGeoError":
        """This error, its message led once by ``expiry '2W' failed: ``."""
        if self.expiry is None:
            self.expiry, self.args = expiry, (f"expiry {expiry!r} failed: {self}",)
        return self


class InvalidInput(SmileGeoError, ValueError):
    """A library argument outside its domain; a ValueError too, for ``except ValueError``."""


class DegenerateTenor(SmileGeoError):
    """d1/d2 requested with zero tenor or zero volatility."""


class PriceOutOfBand(SmileGeoError):
    """Option price violates the no-arbitrage band, no implied vol exists."""


class NoConvergence(SmileGeoError):
    """Iterative solver exhausted its iteration budget."""


class InconsistentForward(SmileGeoError):
    """Distribution mean does not match the market forward."""


class TargetOutsideDomain(SmileGeoError):
    """Delta target cannot be bracketed inside the smile domain."""


class DomainTooNarrow(SmileGeoError):
    """Requested evaluation grid exceeds the smile domain."""


class OriginOutsideShape(SmileGeoError):
    """Shape cannot be inverted: rays from the origin miss it or cut it twice."""


class NonpositiveVol(SmileGeoError):
    """Inverted shape implies a non-positive volatility somewhere on the grid."""


class NonFiniteDensity(SmileGeoError):
    """Density values are not finite on the grid (an implied density that overflows)."""


class CollinearPoints(SmileGeoError):
    """Three points do not define a circle."""


class DegenerateConfiguration(SmileGeoError):
    """Five points do not define a unique conic (rank below 5)."""


class NotAnEllipse(SmileGeoError):
    """Fitted conic fails the ellipse discriminant test."""


class CurveTooShort(SmileGeoError):
    """Too few points for curvature differentiation stencils."""


class DisjointSupport(SmileGeoError):
    """Density curves share no strike overlap."""


class DegenerateMass(SmileGeoError):
    """Density grid carries too little probability mass for a stable fit."""


class ParseError(SmileGeoError):
    """Malformed surface CSV input."""

    def __init__(self, message: str, line: int | None = None, field: str | None = None):
        self.line = line
        self.field = field
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", field {field!r})" if field else ")")
        super().__init__(message + loc)


class MissingAnchor(ParseError):
    """A quote that the row (25P / ATM / 25C) or its method (10P / 10C for
    the ellipse) needs is absent: an input error, like any other ParseError.
    One check in ``surface`` raises it for both; ``parse_surface`` adds the line."""
