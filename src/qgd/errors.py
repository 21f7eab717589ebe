"""Exception types shared across the package, each with its CLI exit code."""


class QgdError(Exception):
    """Base class for all package errors."""
    exit_code = 1


class NonHermitianInput(QgdError):
    """A generator failed the Hermiticity check."""


class NotUnitary(QgdError):
    """A matrix failed the unitarity check."""
    exit_code = 2


class NonzeroJPrime(QgdError):
    """Operation requires the antisymmetric coupling J' to vanish."""
    exit_code = 4


class UnsupportedOp(QgdError):
    """Schedule contains an operation the consumer cannot handle."""
    exit_code = 5


class ZeroCoupling(QgdError):
    """All effective coupling parameters vanish; nothing to compile."""
    exit_code = 3


class UnknownGate(QgdError):
    """Gate name not in the named-gate table."""
    exit_code = 7


class VerificationFailed(QgdError):
    """A compiled schedule missed its target gate on re-simulation."""
    exit_code = 8
