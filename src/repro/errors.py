"""Exception hierarchy for the MDES reproduction library.

Every exception carries an ``http_status`` so the network tier
(:mod:`repro.server`) can map failures onto responses without a
type-by-type table: client mistakes (bad requests, unknown machines)
are 4xx, capacity shedding is 429, expired deadlines are 504, and
anything else is a 500.  Library code never inspects the attribute --
it exists purely so the error taxonomy *is* the HTTP contract.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""

    #: HTTP status the server tier maps this failure onto.
    http_status = 500


class MdesError(ReproError):
    """An inconsistency in a machine description."""

    # A broken description reaches the server only inside a request
    # (bad stage/backend combination, malformed HMDES): client-side.
    http_status = 400


class RequestError(ReproError):
    """A malformed or unsatisfiable scheduling request.

    Raised by request validation (:mod:`repro.service.models`) and by
    the server's wire-level decoding: unknown machines or backends,
    out-of-range stages, bodies that do not parse.
    """

    http_status = 400


class HmdesError(MdesError):
    """Base class for high-level MDES language errors."""


class HmdesSyntaxError(HmdesError):
    """A lexical or syntactic error in HMDES source text.

    Carries the 1-based source line so the MDES writer can find the fault.
    """

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class HmdesSemanticError(HmdesError):
    """A well-formed HMDES construct that does not make sense.

    Examples: a reference to an undeclared resource, a duplicate section
    entry, or an operation mapped to a missing operation class.
    """


class SchedulingError(ReproError):
    """The scheduler could not make progress (e.g. an unschedulable op)."""


class ServiceError(ReproError):
    """A batch-service request could not be completed.

    Carries the per-block failure records (``failures``) when the run
    was configured to collect them before raising.
    """

    def __init__(self, message, failures=()):
        super().__init__(message)
        self.failures = list(failures)


class VerificationError(ServiceError):
    """A finished schedule failed independent oracle verification.

    Raised by the batch service when ``BatchConfig.verify`` is set and
    the oracle rejects the assembled schedules (``on_error="raise"``
    mode).  Carries the full :class:`~repro.verify.oracle.VerifyReport`
    as ``report``.
    """

    def __init__(self, message, report=None, failures=()):
        super().__init__(message, failures)
        self.report = report


class BackpressureError(ServiceError):
    """The service shed this request instead of queueing it unboundedly.

    Base class of the two load-shedding verdicts; carries the
    ``retry_after`` hint (seconds) the server surfaces as the HTTP
    ``Retry-After`` header.
    """

    http_status = 429

    def __init__(self, message, retry_after=1.0, failures=()):
        super().__init__(message, failures)
        self.retry_after = max(0.0, float(retry_after))


class QueueFullError(BackpressureError):
    """The bounded request queue is at capacity; try again later."""


class QuotaExceededError(BackpressureError):
    """One client holds its full in-flight allowance already."""


class DeadlineExceededError(ServiceError):
    """A request's deadline expired before its schedule was produced."""

    http_status = 504


class ShuttingDownError(ServiceError):
    """The service is draining and no longer admits new requests."""

    http_status = 503


def http_status_for(error: BaseException) -> int:
    """The HTTP status a failure maps onto (500 for foreign types)."""
    return int(getattr(error, "http_status", 500))
