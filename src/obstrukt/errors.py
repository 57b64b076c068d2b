"""Exception types shared across the package."""

from __future__ import annotations


class ObstruktError(Exception):
    """Base class for all errors raised by this package."""


class MalformedText(ObstruktError):
    """Input text does not match the grammar of the requested notation form.

    ``line`` and ``column`` are 1-based when known, else None.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column


class NeuronOutOfRange(ObstruktError):
    """A neuron/vertex index lies outside 1..n."""


class WidthMismatch(ObstruktError):
    """Operands declare different neuron counts, or a binary string has the wrong length."""


class UnrepresentableForm(ObstruktError):
    """Word form cannot express indices above 9 (needs n <= 9)."""


class FaceNotInComplex(ObstruktError):
    """The given face is not a member of the complex."""


class VoidComplex(ObstruktError):
    """Operation is undefined on the void complex (the one with no faces at all)."""


class TooManyFaces(ObstruktError):
    """The faces asked for are more than the package enumerates."""


class DegreeOutOfRange(ObstruktError):
    """Chain degree outside -1..dim(K)."""


class NotAPermutation(ObstruktError):
    """The given sequence is not a bijection of 1..n."""


class NotInDomain(ObstruktError):
    """Codeword is not a member of the map's domain code."""


class BadDensity(ObstruktError):
    """Random-code density must lie strictly between 0 and 1, or equal 1."""


class DegenerateDualWarning(UserWarning):
    """Alexander dual requested for the zero ideal; returned unchanged."""
