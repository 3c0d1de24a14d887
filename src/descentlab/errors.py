"""Exception types shared across the package.

Plain ``ZeroDivisionError`` is used for rational division by zero; everything
domain-specific gets its own class so callers (and the CLI) can map failures
to exit codes and witnesses.
"""


class DescentlabError(Exception):
    """Base class for all domain errors raised by this package."""


class RingMismatch(DescentlabError):
    """Two scalars or complexes with different coefficient rings were combined."""


class NotAComplex(DescentlabError):
    """d composed with d is nonzero; carries the offending degree."""

    def __init__(self, degree):
        self.degree = degree
        super().__init__(f"d^2 != 0 starting at degree {degree}")


class ShapeMismatch(DescentlabError):
    """Matrix or chain-map shapes do not line up."""


class UnsupportedRing(DescentlabError):
    """Operation requires field coefficients (or otherwise unsupported ring)."""


class FunctorialityFailure(DescentlabError):
    """A restriction square of a cover presheaf fails to commute."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"restriction square does not commute: {witness}")


class CosimplicialIdentityFailure(DescentlabError):
    """Coface identity d_j d_i = d_i d_{j-1} (i<j) fails."""


class CutoffTooSmall(DescentlabError):
    """Weight or window cutoff too small to contain the requested construction."""


class AxiomFailure(DescentlabError):
    """An algebraic axiom check failed; carries a witness tuple."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"axiom violated: {witness}")


class HypothesisFailure(DescentlabError):
    """Input data violates a stated hypothesis (e.g. functions do not commute)."""


class LemmaViolation(DescentlabError):
    """A consequence that should follow from verified hypotheses failed."""


class BadSequence(DescentlabError):
    """A parameter sequence is not strictly decreasing/positive as required."""


class UnknownFixture(DescentlabError):
    """Fixture name not recognized by the generator."""


class InputError(DescentlabError):
    """Malformed user input (JSON, flags); maps to CLI exit code 2."""
