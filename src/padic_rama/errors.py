"""Exception hierarchy shared across the package."""


class PadicRamaError(Exception):
    """Base class for all errors raised by this package."""


class NonCoprimeModuli(PadicRamaError):
    """CRT input moduli share a common factor."""


class BadPrime(PadicRamaError):
    """The prime divides a denominator, discriminant or other quantity
    that must stay a unit for the computation to make sense."""


class PrecisionUnavailable(PadicRamaError):
    """The requested value is only known to lower p-adic precision than asked
    (e.g. zeta_p/L_p constants carry a single digit, and only for p >= k+2)."""


class NegativeValuationSum(PadicRamaError):
    """A truncated sum came out with negative valuation; a congruence
    statement about it would be meaningless."""


class UnknownCoefficient(PadicRamaError):
    """A template with unresolved coefficients was used where a fully known
    one is required."""


class ReconstructionFailed(PadicRamaError):
    """Rational reconstruction found no candidate under the height bound;
    usually means more primes are needed."""


class InconsistentResidues(PadicRamaError):
    """Per-prime residues do not come from a single rational; the template
    shape is wrong."""


class InsufficientPrecision(PadicRamaError):
    """Working precision is too low for the requested height bound in
    integer-relation detection."""


class SchemaError(PadicRamaError):
    """A spec/template/claims file is not well-formed."""


class InvariantViolation(PadicRamaError):
    """A parsed object violates a structural invariant."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")
