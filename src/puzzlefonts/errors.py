"""Exception types shared across the library."""


class PuzzleFontError(Exception):
    """Base class for all library errors."""


class FieldError(ValueError):
    """A parameter out of range; `field` names the record field at fault."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


class DegenerateDisks(PuzzleFontError):
    """Disk centers too close for the requested tangent construction."""


class DisconnectedPath(PuzzleFontError):
    """Path elements do not chain end-to-end."""


class EmptyScene(PuzzleFontError):
    """SVG emission was asked for an empty scene without allow_empty."""


class UnknownLetter(PuzzleFontError):
    """Letter not present in the font data."""


class NotAChain(PuzzleFontError):
    """Polyline is not a valid unit-bar chain."""


class InvalidSpec(PuzzleFontError):
    """Belt winding specification is malformed for the disk set."""


class BudgetExceeded(PuzzleFontError):
    """Search ran out of its node budget before finishing."""


class Unsupported(PuzzleFontError):
    """Parameter outside the supported range."""


class InterfaceMismatch(PuzzleFontError):
    """Crease-pattern boundary interfaces disagree; carries the first delta."""


class InvalidPolyabolo(PuzzleFontError):
    """Polyabolo failed validation where a valid one is required."""


class UnknownCharacter(PuzzleFontError):
    """Typeset request contains characters missing from the font."""

    def __init__(self, chars):
        self.chars = sorted(set(chars))
        super().__init__("characters not in font: " + ", ".join(repr(c) for c in self.chars))


class MissingFontFile(PuzzleFontError):
    """Font data file could not be located."""


class NoSolution(PuzzleFontError):
    """A puzzle glyph admits no decoding."""


class AmbiguousSolution(PuzzleFontError):
    """A puzzle glyph matches several letters; the font data is corrupt."""
