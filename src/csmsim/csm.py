"""Confidential shared memory: the access policy table and its commands.

A shared region has exactly one provider realm (creator, lifetime manager,
permission authority) and any number of consumer realms. Establishing access
is a rendezvous requiring both sides' explicit consent:

* the provider shares the region to a named peer (``rsi_csm_share``),
* the consumer reserves a window of identical size (``rsi_csm_reserve``),
* the consumer attaches (``rsi_csm_attach``), at which point the monitor
  walks the provider's translation table and installs the same physical
  granules into the consumer's window at the provider-chosen permission.

Share and reserve may happen in either order; attach requires both records.

Every realm carries one access policy table (APT) granule recording one
entry per shared region it participates in. The table keeps the two kinds
in two lists, each in insertion order: the regions it provides and the
windows it consumes through. Entries of one realm never overlap, whatever
their kind. Capacity is 128 entries of both kinds together per table
granule.

Sharing identifiers are deterministic: (provider id, consumer id, counter),
the counter advancing per ordered pair, so both sides can derive the same
identifier independently.
"""

from dataclasses import dataclass, field
from enum import Enum

from .errors import (
    AlreadyAttached,
    AlreadyShared,
    BadState,
    CapacityExceeded,
    NoApt,
    NoSuchCsm,
    NoSuchRealm,
    NoSuchSharing,
    NotOwner,
    NotReserved,
    NotShared,
    Overlap,
    SelfShare,
    SizeMismatch,
    TableMiss,
    Unpopulated,
    WrongConsumer,
)
from .granules import GRANULE_SIZE

APT_CAPACITY = 128

# Exit reasons the monitor raises toward the host for shared-region flows.
EXIT_P_REALM_CSM = "p_realm_csm"
EXIT_C_REALM_CSM = "c_realm_csm"
EXIT_REMOVE_CSM = "remove_csm"

# Result of a command that suspended its caller awaiting host granule work.
PENDING = "pending"


class Permission(Enum):
    READ_ONLY = "ro"
    READ_WRITE = "rw"


def parse_permission(value) -> Permission:
    if isinstance(value, Permission):
        return value
    try:
        return Permission(value)
    except ValueError:
        raise BadState(f"unknown permission {value!r}") from None


def compose_sharing_id(p_id: int, c_id: int, counter: int) -> tuple:
    """Deterministic sharing identifier; both sides derive the same value."""
    if min(p_id, c_id, counter) < 0:
        raise BadState("sharing id components must be non-negative")
    return (p_id, c_id, counter)


@dataclass
class PendingRsi:
    """A realm service call suspended awaiting host granule work."""
    op: str          # "csm_create" or "csm_reserve"
    base: int
    size: int
    csm_id: int = 0
    sharing_id: tuple | None = None


@dataclass
class ShareRecord:
    sharing_id: tuple
    c_id: int
    perm: Permission
    attached: bool = False


@dataclass
class ProviderEntry:
    csm_id: int
    base: int
    size: int
    shares: list = field(default_factory=list)


class WindowState(Enum):
    RESERVED = "reserved"
    ATTACHED = "attached"


@dataclass
class ConsumerEntry:
    sharing_id: tuple
    base: int
    size: int
    state: WindowState = WindowState.RESERVED


@dataclass
class Apt:
    """One realm's access policy table: the regions it provides and the
    windows it consumes through."""
    providers: list = field(default_factory=list)   # ProviderEntry
    consumers: list = field(default_factory=list)   # ConsumerEntry
    share_counters: dict = field(default_factory=dict)  # peer id -> next counter

    def check_can_add(self, base: int, size: int) -> None:
        """Room for one more entry of either kind at ``[base, +size)``. An
        overlap names the first overlapping region, else the first window."""
        if len(self.providers) + len(self.consumers) >= APT_CAPACITY:
            raise CapacityExceeded(f"policy table full at {APT_CAPACITY} entries")
        end = base + size * GRANULE_SIZE
        for e in self.providers + self.consumers:
            e_end = e.base + e.size * GRANULE_SIZE
            if base < e_end and e.base < end:
                raise Overlap(f"[{base:#x},{end:#x}) overlaps existing entry "
                              f"at {e.base:#x}")

    def provider_entry(self, csm_id: int) -> ProviderEntry | None:
        for e in self.providers:
            if e.csm_id == csm_id:
                return e
        return None

    def find_by_sharing_id(self, sharing_id: tuple) -> ConsumerEntry | None:
        for e in self.consumers:
            if e.sharing_id == sharing_id:
                return e
        return None

    def find_provider_covering(self, ipa: int) -> ProviderEntry | None:
        for e in self.providers:
            if e.base <= ipa < e.base + e.size * GRANULE_SIZE:
                return e
        return None

    def find_consumer_covering(self, ipa: int) -> ConsumerEntry | None:
        for e in self.consumers:
            if e.base <= ipa < e.base + e.size * GRANULE_SIZE:
                return e
        return None

    def next_counter(self, c_id: int) -> int:
        n = self.share_counters.get(c_id, 0)
        self.share_counters[c_id] = n + 1
        return n


def ipa_span(base: int, size: int) -> range:
    """The granule-aligned IPAs of a region of ``size`` granules at ``base``."""
    return range(base, base + size * GRANULE_SIZE, GRANULE_SIZE)


def _require_apt(realm) -> Apt:
    if realm.apt is None:
        raise NoApt(f"realm {realm.realm_id} has no policy table")
    return realm.apt


def find_share(world, sharing_id: tuple):
    """Locate the provider-side record of a sharing id, if any.

    Returns (provider realm, provider entry, record) or (None, None, None).
    """
    p_id = sharing_id[0]
    if p_id not in world.registry.live:
        return None, None, None
    p_realm = world.realm_by_id(p_id)
    if p_realm.apt is None:
        return None, None, None
    for entry in p_realm.apt.providers:
        for record in entry.shares:
            if record.sharing_id == sharing_id:
                return p_realm, entry, record
    return None, None, None


def _find_owned_csm(world, caller_id: int, csm_id: int):
    """Resolve a region id the caller claims to own; distinguishes a foreign
    region (NotOwner) from one that does not exist (NoSuchCsm)."""
    caller = world.realm_by_id(caller_id)
    apt = _require_apt(caller)
    entry = apt.provider_entry(csm_id)
    if entry is not None:
        return caller, entry
    for realm in world.realms.values():
        if realm.apt and realm.apt.provider_entry(csm_id):
            raise NotOwner(f"region {csm_id} belongs to realm {realm.realm_id}")
    raise NoSuchCsm(f"region {csm_id}")


# ------------------------------------------------------------------ commands

def rsi_csm_create(world, caller: int, base: int, size: int) -> str:
    """Register a provider region; suspends until the host populates it."""
    realm = world.require_runnable(caller)
    apt = _require_apt(realm)
    world.ipa_check_aligned(base)
    if size < 1:
        raise BadState(f"region size {size}")
    if not world.protected(realm, base, size):
        raise BadState(f"[{base:#x}, +{size}) outside protected half")
    apt.check_can_add(base, size)
    csm_id = world.next_csm_id
    world.next_csm_id += 1
    apt.providers.append(ProviderEntry(csm_id=csm_id, base=base, size=size))
    world.touched_realms.add(caller)
    return world.suspend(realm, PendingRsi("csm_create", base, size, csm_id=csm_id))


def rsi_csm_share(world, caller: int, csm_id: int, c_id: int, perm) -> tuple:
    realm = world.require_runnable(caller)
    perm = parse_permission(perm)
    _, entry = _find_owned_csm(world, caller, csm_id)
    if c_id == caller:
        raise SelfShare(f"realm {caller}")
    world.realm_by_id(c_id)  # NoSuchRealm for unknown or destroyed peers
    for record in entry.shares:
        if record.c_id == c_id:
            raise AlreadyShared(f"region {csm_id} already shared to realm {c_id}")
    sharing_id = compose_sharing_id(caller, c_id, realm.apt.next_counter(c_id))
    entry.shares.append(ShareRecord(sharing_id=sharing_id, c_id=c_id, perm=perm))
    world.touched_realms.add(caller)
    return sharing_id


def rsi_csm_reserve(world, caller: int, sharing_id: tuple, base: int,
                    size: int) -> str:
    """Register a consumer window; suspends until the host clears it.

    Reserving may precede the provider's share: consent is checked at attach.
    """
    realm = world.require_runnable(caller)
    apt = _require_apt(realm)
    sharing_id = tuple(sharing_id)
    if sharing_id[1] != caller:
        raise WrongConsumer(f"sharing {sharing_id} names realm {sharing_id[1]}")
    world.ipa_check_aligned(base)
    if size < 1:
        raise BadState(f"window size {size}")
    if not world.protected(realm, base, size):
        raise BadState(f"[{base:#x}, +{size}) outside protected half")
    apt.check_can_add(base, size)
    apt.consumers.append(ConsumerEntry(sharing_id=sharing_id, base=base, size=size))
    world.touched_realms.add(caller)
    return world.suspend(realm, PendingRsi("csm_reserve", base, size,
                                           sharing_id=sharing_id))


def rsi_csm_attach(world, caller: int, sharing_id: tuple) -> None:
    """The rendezvous: both consents present, sizes equal, then map."""
    realm = world.require_runnable(caller)
    apt = _require_apt(realm)
    sharing_id = tuple(sharing_id)
    p_realm, p_entry, record = find_share(world, sharing_id)
    if record is None or record.c_id != caller:
        raise NotShared(f"sharing {sharing_id} has no provider consent")
    c_entry = apt.find_by_sharing_id(sharing_id)
    if c_entry is None:
        raise NotReserved(f"no reserved window for sharing {sharing_id}")
    if c_entry.state is WindowState.ATTACHED:
        raise AlreadyAttached(f"sharing {sharing_id}")
    if "attach_size_equality" not in world.disabled_checks:
        if c_entry.size != p_entry.size:
            raise SizeMismatch(f"window {c_entry.size} vs region {p_entry.size}")
    # Validate the whole mapping before touching anything: the command is an
    # atomic transaction and must not leave a half-attached window.
    mappings = []
    for k, p_ipa in enumerate(ipa_span(p_entry.base, c_entry.size)):
        src = p_realm.rtt.entries.get(p_ipa)
        if src is None:
            raise Unpopulated(f"provider ipa {p_ipa:#x} unassigned")
        c_ipa = c_entry.base + k * GRANULE_SIZE
        if world.block_of(c_ipa) not in realm.rtt.backed:
            raise TableMiss(f"window ipa {c_ipa:#x} has no table backing")
        mappings.append((c_ipa, src.pa))
    for c_ipa, pa in mappings:
        world.rtt_install(realm, c_ipa, pa, record.perm)
    c_entry.state = WindowState.ATTACHED
    record.attached = True
    world.touched_realms.update((caller, p_realm.realm_id))


def _tear_down_window(world, c_realm, c_entry) -> None:
    """Unmap a consumer window (flushing) and drop its policy entry."""
    if c_entry.state is WindowState.ATTACHED:
        for ipa in ipa_span(c_entry.base, c_entry.size):
            if ipa in c_realm.rtt.entries:
                world.rtt_remove(c_realm, ipa)
    c_realm.apt.consumers.remove(c_entry)
    world.touched_realms.add(c_realm.realm_id)
    world.emit_exit(EXIT_REMOVE_CSM, c_realm.realm_id, c_entry.base, c_entry.size)


def revoke_share(world, p_entry: ProviderEntry, record: ShareRecord) -> None:
    """Provider-initiated removal of one consumer's access."""
    if record.c_id in world.registry.live:
        c_realm = world.realm_by_id(record.c_id)
        if c_realm.apt is not None:
            c_entry = c_realm.apt.find_by_sharing_id(record.sharing_id)
            if c_entry is not None:
                _tear_down_window(world, c_realm, c_entry)
    p_entry.shares.remove(record)
    world.touched_realms.add(record.sharing_id[0])


def rsi_csm_revoke(world, caller: int, sharing_id: tuple) -> None:
    world.require_runnable(caller)
    sharing_id = tuple(sharing_id)
    if sharing_id[0] != caller:
        raise NotOwner(f"sharing {sharing_id} is not provided by realm {caller}")
    _, p_entry, record = find_share(world, sharing_id)
    if record is None:
        raise NoSuchSharing(f"sharing {sharing_id}")
    revoke_share(world, p_entry, record)


def destroy_region(world, p_realm, p_entry: ProviderEntry) -> None:
    """Revoke every share, then drop the provider entry. The provider's own
    mappings persist as ordinary private data."""
    for record in list(p_entry.shares):
        revoke_share(world, p_entry, record)
    p_realm.apt.providers.remove(p_entry)
    world.touched_realms.add(p_realm.realm_id)
    world.emit_exit(EXIT_REMOVE_CSM, p_realm.realm_id, p_entry.base, p_entry.size)


def rsi_csm_destroy(world, caller: int, csm_id: int) -> None:
    realm = world.require_runnable(caller)
    _, p_entry = _find_owned_csm(world, caller, csm_id)
    destroy_region(world, realm, p_entry)


def detach_window(world, c_realm, c_entry: ConsumerEntry) -> None:
    """Consumer-initiated unmap; the provider-side share survives so the
    consumer may reserve and attach again later."""
    _, _, record = find_share(world, c_entry.sharing_id)
    _tear_down_window(world, c_realm, c_entry)
    if record is not None:
        record.attached = False
        world.touched_realms.add(record.sharing_id[0])


def rsi_csm_detach_and_free(world, caller: int, sharing_id: tuple) -> None:
    realm = world.require_runnable(caller)
    apt = _require_apt(realm)
    sharing_id = tuple(sharing_id)
    if sharing_id[1] != caller:
        raise WrongConsumer(f"sharing {sharing_id} names realm {sharing_id[1]}")
    c_entry = apt.find_by_sharing_id(sharing_id)
    if c_entry is None:
        raise NoSuchSharing(f"sharing {sharing_id}")
    detach_window(world, realm, c_entry)
