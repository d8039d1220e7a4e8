"""Error taxonomy shared by all simulator commands.

Every command failure raises a subclass of :class:`SimError`. The class-level
``code`` is the stable name used in scenario expectations and traces, so it
must never change once a scenario file depends on it.
"""


class SimError(Exception):
    code = "SimError"

    def __init__(self, detail: str = ""):
        self.detail = detail
        super().__init__(f"{self.code}: {detail}" if detail else self.code)


class Fault(SimError):
    """Memory access denied (GPC, missing mapping, or permission)."""
    code = "Fault"


class OutOfRange(SimError):
    code = "OutOfRange"


class BadState(SimError):
    code = "BadState"


class AlreadyExists(SimError):
    code = "AlreadyExists"


class NotEmpty(SimError):
    code = "NotEmpty"


class AlreadyMapped(SimError):
    code = "AlreadyMapped"


class NotDelegated(SimError):
    code = "NotDelegated"


class NotMapped(SimError):
    code = "NotMapped"


class Unaligned(SimError):
    code = "Unaligned"


class TableMiss(SimError):
    """Target address range has no translation-table granule backing it."""
    code = "TableMiss"


class MissingApt(SimError):
    code = "MissingApt"


class NoApt(SimError):
    code = "NoApt"


class NoSuchRealm(SimError):
    code = "NoSuchRealm"


class Overlap(SimError):
    code = "Overlap"


class NotOwner(SimError):
    code = "NotOwner"


class AlreadyShared(SimError):
    code = "AlreadyShared"


class SelfShare(SimError):
    code = "SelfShare"


class WrongConsumer(SimError):
    code = "WrongConsumer"


class NotShared(SimError):
    code = "NotShared"


class NotReserved(SimError):
    code = "NotReserved"


class SizeMismatch(SimError):
    code = "SizeMismatch"


class AlreadyAttached(SimError):
    code = "AlreadyAttached"


class Unpopulated(SimError):
    code = "Unpopulated"


class NoSuchSharing(SimError):
    code = "NoSuchSharing"


class NoSuchCsm(SimError):
    code = "NoSuchCsm"


class CapacityExceeded(SimError):
    code = "CapacityExceeded"


class OutOfGranules(SimError):
    """Host delegation pool exhausted; a host-side failure, not a monitor fault."""
    code = "OutOfGranules"


class VerificationFailed(SimError):
    code = "VerificationFailed"


class PayloadTooLarge(SimError):
    code = "PayloadTooLarge"


class AuthFailure(SimError):
    code = "AuthFailure"


class SeqMismatch(SimError):
    code = "SeqMismatch"


class ParseError(SimError):
    code = "ParseError"
