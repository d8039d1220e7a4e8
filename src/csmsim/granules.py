"""Physical memory as an array of granules with world tags.

A granule is a 4 KiB physical frame. Each granule carries a physical address
space (PAS) tag naming the world that owns it; the tag store over all
granules is the granule protection table (GPT). Every raw physical access is
gated by the granule protection check (GPC): the hardware rule that says
which security states may touch which PAS tags.

The full GPC rule:

    ==============  ==========  ==========  =========  ========
    security state  Normal PAS  Secure PAS  Realm PAS  Root PAS
    ==============  ==========  ==========  =========  ========
    Normal          allow       deny        deny       deny
    Secure          allow       allow       deny       deny
    Realm           allow       deny        allow      deny
    Root            allow       allow       allow      allow
    ==============  ==========  ==========  =========  ========

Granules transitioning between the Normal and Realm worlds are wiped at the
transition instant, so the normal world can never observe bytes a realm
wrote, and vice versa.
"""

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .errors import BadState, OutOfRange

GRANULE_SIZE = 4096
ZERO_GRANULE = bytes(GRANULE_SIZE)
# The most granules a world read from input may hold: 4 GiB of memory.
MAX_GRANULES = 1 << 20


class PasTag(Enum):
    NORMAL = "normal"
    SECURE = "secure"
    REALM = "realm"
    ROOT = "root"


class SecurityState(Enum):
    NORMAL = "normal"
    SECURE = "secure"
    REALM = "realm"
    ROOT = "root"


class GranuleState(Enum):
    """Lifecycle state of a granule as tracked by the monitor.

    UNDELEGATED granules belong to the normal world; every other state
    implies the granule has been delegated to the realm world.
    """

    UNDELEGATED = "undelegated"
    DELEGATED = "delegated"
    RD = "rd"
    REC = "rec"
    RTT = "rtt"
    DATA = "data"
    APT = "apt"


# One row per security state; True means access allowed.
GPC_MATRIX = {
    SecurityState.NORMAL: {PasTag.NORMAL: True, PasTag.SECURE: False,
                           PasTag.REALM: False, PasTag.ROOT: False},
    SecurityState.SECURE: {PasTag.NORMAL: True, PasTag.SECURE: True,
                           PasTag.REALM: False, PasTag.ROOT: False},
    SecurityState.REALM: {PasTag.NORMAL: True, PasTag.SECURE: False,
                          PasTag.REALM: True, PasTag.ROOT: False},
    SecurityState.ROOT: {PasTag.NORMAL: True, PasTag.SECURE: True,
                         PasTag.REALM: True, PasTag.ROOT: True},
}


def gpc_check(state: SecurityState, pas: PasTag) -> bool:
    """Pure lookup of the hardware access-control rule."""
    return GPC_MATRIX[state][pas]


class Granule(NamedTuple):
    """A value; its index is its position in ``GranuleSpace.grans``."""
    pas: PasTag = PasTag.NORMAL
    state: GranuleState = GranuleState.UNDELEGATED
    content: bytes = ZERO_GRANULE
    # Realm id owning this granule while delegated into a realm's metadata
    # or data; 0 while unowned.
    owner: int = 0


# The zeroed granules ``undelegate`` and ``delegate``/``release`` store.
UNDELEGATED = Granule()
DELEGATED = Granule(PasTag.REALM, GranuleState.DELEGATED)


@dataclass
class GranuleSpace:
    """All physical granules plus the GPT view over them.

    Granules are values: a world's copy copies this list and shares every
    granule, and only the five mutators store into it. ``delegate`` and
    ``release`` store the shared ``DELEGATED``, ``undelegate`` the shared
    ``UNDELEGATED``. Both are exact: zeroed, tagged as I6 pins, and unowned,
    as only ``retag`` writes an owner and it always leaves DELEGATED.

    ``low`` is a low-water index: every granule below it is delegated, so
    it is the lowest undelegated granule, or ``count`` when there is none.
    Only ``delegate`` and ``undelegate`` change that answer, so only they
    move it: ``undelegate(i)`` lowers it to ``i``, and ``delegate(low)``
    walks it up past the delegated granules above. ``lowest_undelegated``
    only reads it. The walks add up to at most one pass over the space
    plus the distances undelegates lowered the index, so they follow the
    granules in use, not the granule count.
    """

    count: int
    grans: list = field(default_factory=list)
    # Indices whose state, tag or owner changed since the invariant checker
    # last took this set (see :mod:`csmsim.invariants`).
    touched: set = field(default_factory=set)
    low: int = field(init=False, default=0)

    def __post_init__(self):
        if not self.grans:
            self.grans = [UNDELEGATED] * self.count
        self.low = self._next_undelegated(0)

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, index: int) -> Granule:
        if not 0 <= index < self.count:
            raise OutOfRange(f"granule {index} of {self.count}")
        return self.grans[index]

    def lowest_undelegated(self) -> int | None:
        """The index of the first granule still in the normal world."""
        return self.low if self.low < self.count else None

    def _next_undelegated(self, index: int) -> int:
        """The first undelegated granule at or above ``index``, or ``count``."""
        grans = self.grans
        while index < self.count and grans[index].state is not GranuleState.UNDELEGATED:
            index += 1
        return index

    def delegate(self, index: int) -> None:
        g = self[index]
        if g.state is not GranuleState.UNDELEGATED:
            raise BadState(f"delegate granule {index} in state {g.state.value}")
        self.grans[index] = DELEGATED
        self.touched.add(index)
        if index == self.low:
            self.low = self._next_undelegated(index + 1)

    def undelegate(self, index: int) -> None:
        g = self[index]
        if g.state is not GranuleState.DELEGATED:
            raise BadState(f"undelegate granule {index} in state {g.state.value}")
        self.grans[index] = UNDELEGATED
        self.touched.add(index)
        self.low = min(self.low, index)

    def retag(self, index: int, state: GranuleState, owner: int) -> None:
        """Move a DELEGATED granule into a realm-owned state (RD/REC/RTT/DATA/APT)."""
        g = self[index]
        if g.state is not GranuleState.DELEGATED:
            raise BadState(f"granule {index} in state {g.state.value}, want delegated")
        self.grans[index] = Granule(g.pas, state, g.content, owner)
        self.touched.add(index)

    def release(self, index: int) -> None:
        """Return a realm-owned granule to DELEGATED, wiping its contents."""
        g = self[index]
        if g.state in (GranuleState.UNDELEGATED, GranuleState.DELEGATED):
            raise BadState(f"release granule {index} in state {g.state.value}")
        self.grans[index] = DELEGATED
        self.touched.add(index)

    def read(self, index: int, offset: int = 0, length: int | None = None) -> bytes:
        g = self[index]
        if length is None:
            length = GRANULE_SIZE - offset
        if not 0 <= offset <= offset + length <= GRANULE_SIZE:
            raise OutOfRange(f"slice {offset}+{length}")
        return g.content[offset:offset + length]

    def write(self, index: int, data: bytes, offset: int = 0) -> None:
        g = self[index]
        if not 0 <= offset <= offset + len(data) <= GRANULE_SIZE:
            raise OutOfRange(f"slice {offset}+{len(data)}")
        content = g.content[:offset] + data + g.content[offset + len(data):]
        self.grans[index] = Granule(g.pas, g.state, content, g.owner)

    def counts(self) -> dict:
        out = {s.value: 0 for s in GranuleState}
        for g in self.grans:
            out[g.state.value] += 1
        return out
