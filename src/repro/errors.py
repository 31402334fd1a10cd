"""Exception hierarchy for the repro library.

Every package raises subclasses of :class:`ReproError` so that callers can
catch library failures without also swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SatError(ReproError):
    """Raised for malformed CNF input or misuse of a SAT solver."""


class AigError(ReproError):
    """Raised for invalid AIG construction or manipulation."""


class BddError(ReproError):
    """Raised for invalid BDD operations."""


class BddLimitExceeded(BddError):
    """Raised when a BDD operation exceeds its configured node budget.

    BDD sweeping uses this to abandon a node and insert a cut point instead
    of letting the canonical representation blow up.
    """


class NetlistError(ReproError):
    """Raised for ill-formed sequential netlists."""


class ProofError(ReproError):
    """Raised when a resolution proof is malformed or fails replay.

    The interpolation pipeline treats the independent proof checker as its
    trust anchor: a chain that does not replay, a missing antecedent, or an
    interpolant that fails the differential check all surface as this error
    rather than as a wrong verdict.
    """


class CertificateError(ReproError):
    """Raised when an inductive-invariant certificate fails its check.

    A PROVED verdict from the PDR engine ships an
    :class:`repro.mc.result.InvariantCertificate`; the independent
    checker re-derives initiation, consecution and safety on a fresh
    solver.  A certificate that fails any of the three is an engine bug
    surfaced as this error, never as a wrong verdict.
    """


class ModelCheckingError(ReproError):
    """Raised when a model-checking engine is configured inconsistently."""


class ServiceError(ReproError):
    """Raised for verification-service failures (:mod:`repro.svc`):
    a store whose schema is newer than the code, a malformed submission,
    or a job operation against the wrong state."""


class QueueFullError(ServiceError):
    """Raised when a submission is rejected for backpressure.

    The durable queue bounds its depth; past the bound, ``submit``
    raises this instead of growing without limit.  ``retry_after`` is
    the server's hint (seconds) for when to try again — the HTTP front
    maps it to a 429 response with the same field.
    """

    def __init__(self, depth: int, bound: int, retry_after: float) -> None:
        super().__init__(
            f"queue is full ({depth} queued >= bound {bound}); "
            f"retry in {retry_after:.1f}s"
        )
        self.depth = depth
        self.bound = bound
        self.retry_after = retry_after


class ResourceLimit(ReproError):
    """Raised when an engine exceeds a user-supplied resource budget."""
