"""Exception types shared across the package, each with its CLI exit code."""


class QgdError(Exception):
    """Base class for all package errors."""
    exit_code = 1


class NotUnitary(QgdError):
    """Off unitarity by qmat.UNITARY_TOL or more (qmat.require_unitary)."""
    exit_code = 2


class UnsupportedOp(QgdError):
    """Schedule contains an operation the consumer cannot handle."""
    exit_code = 5


class ZeroCoupling(QgdError):
    """Coupling too weak (or zero) for a finite CNOT entangling time."""
    exit_code = 3


class UnknownGate(QgdError):
    """Gate name not in the named-gate table."""
    exit_code = 7


class VerificationFailed(QgdError):
    """A compiled schedule missed its target gate on re-simulation."""
    exit_code = 8
