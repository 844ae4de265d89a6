"""Exception hierarchy shared by all rectower modules."""


class TowerError(Exception):
    """Base class for all rectower errors."""


class CompositeP(TowerError):
    """The given characteristic is not prime."""


class EvenOrCompositeP(TowerError):
    """The Legendre symbol needs an odd prime modulus."""


class ReducibleModulus(TowerError):
    """The extension modulus is not irreducible over F_p."""


class DegreeMismatch(TowerError):
    """Operands do not have the required common degree."""


class DivisionByZero(TowerError):
    """Division by the zero element or zero polynomial."""


class FieldMismatch(TowerError):
    """Operands live over different field contexts."""


class ZeroPolynomial(TowerError):
    """The zero polynomial is not a valid argument here."""


class ZeroFunction(TowerError):
    """The zero rational function is not a valid argument here."""


class MapSyntaxError(TowerError):
    """A map or polynomial expression failed to parse."""


class DegreeZero(TowerError):
    """The parsed map degenerates to a constant (vanishing resultant)."""


class InsufficientField(TowerError):
    """Some points of the computation are not rational over the working field.

    ``missing`` carries the unaccounted multiplicity when known.
    """

    def __init__(self, message, missing=None):
        super().__init__(message)
        self.missing = missing


class NonzeroDegree(TowerError):
    """A degree-zero divisor is required."""


class NotComplete(TowerError):
    """The given set fails the completeness criterion."""


class RamifiedT0(TowerError):
    """The candidate splitting values meet the ramification locus of g."""


class BadPrime(TowerError):
    """The prime is outside the supported range for this operation."""


class BadIndex(TowerError):
    """A sequence or vertex index is outside the defined range."""


class FieldTooLarge(TowerError):
    """The field has too many points for a table over all of them."""


class FormulaMismatch(TowerError, AssertionError):
    """Two routes to the same closed-form quantity disagree.  Also an
    AssertionError: it reports a failed internal identity."""


class NoRegularComponent(TowerError):
    """The graph has no d-regular component."""


class UnknownFormat(TowerError):
    """Unsupported export format."""
