"""Exception types shared across the package."""


class QgdError(Exception):
    """Base class for all package errors."""


class NonHermitianInput(QgdError):
    """A generator failed the Hermiticity check."""


class NotUnitary(QgdError):
    """A matrix failed the unitarity check."""


class NonzeroJPrime(QgdError):
    """Operation requires the antisymmetric coupling J' to vanish."""


class UnsupportedOp(QgdError):
    """Schedule contains an operation the consumer cannot handle."""


class ZeroCoupling(QgdError):
    """All effective coupling parameters vanish; nothing to compile."""


class UnknownGate(QgdError):
    """Gate name not in the named-gate table."""


class VerificationFailed(QgdError):
    """A compiled schedule missed its target gate on re-simulation."""
