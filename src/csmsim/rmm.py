"""Realm lifecycle, metadata granules, and the monitor command surface.

The :class:`World` is the single mutable simulation state: the granule
space, the realm registry, every realm's metadata (descriptor, execution
context, translation table, access policy table), and the event/history
logs that traces and invariant checks consume.

Host-issued commands (``rmi_*``) address realms by the physical granule
index of their descriptor, exactly as the hypervisor addresses them.
Realm-issued commands (``rsi_*``, in :mod:`csmsim.csm`) and inter-realm
references use the system-wide realm identifier instead: a monotonically
assigned, never-reused integer that survives no hypervisor manipulation,
because destroying and recreating a realm at the same descriptor granule
yields a fresh identifier.

Commands that need host cooperation (shared-region populate/reclaim) do
not complete inline: they suspend the calling realm's execution context
with a pending record, emit an exit toward the host, and complete on
re-entry once the host has done the required granule work.
"""

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from . import digests
from .csm import (
    EXIT_C_REALM_CSM,
    EXIT_P_REALM_CSM,
    PENDING,
    Apt,
    PendingRsi,
    Permission,
    destroy_region,
    detach_window,
    ipa_span,
)
from .errors import (
    AlreadyExists,
    AlreadyMapped,
    BadState,
    Fault,
    MissingApt,
    NoSuchRealm,
    NotDelegated,
    NotEmpty,
    NotMapped,
    OutOfRange,
    TableMiss,
    Unaligned,
)
from .granules import (
    GRANULE_SIZE,
    GranuleSpace,
    GranuleState,
    SecurityState,
    gpc_check,
)

GRANULE_BITS = 12
# One translation-table granule backs this many contiguous mappable IPAs.
RTT_SPAN = 512
RTT_SPAN_BITS = RTT_SPAN.bit_length() - 1
# What an access may be; anything else is refused before it is recorded.
ACCESS_KINDS = ("read", "write")


class Lifecycle(Enum):
    NEW = "new"
    ACTIVE = "active"


class RttEntry(NamedTuple):
    pa: int
    perm: Permission


@dataclass
class Rtt:
    """Flat stage-2 map plus the table granules backing it.

    Mapping an IPA requires its 512-IPA block to be backed by a delegated
    table granule first; this preserves the delegate-table-before-map
    protocol step without modeling a multi-level tree.
    """

    entries: dict = field(default_factory=dict)   # ipa -> RttEntry
    backed: dict = field(default_factory=dict)    # block index -> rtt granule


class Rec(NamedTuple):
    rec_granule: int
    pending: PendingRsi | None = None


@dataclass
class RealmDescriptor:
    realm_id: int
    ipa_width: int
    lifecycle: Lifecycle = Lifecycle.NEW
    rim: bytes = b""
    # The policy table exists from creation; ``apt_granule`` is the granule
    # backing it, None until ``rmi_apt_create`` and after ``rmi_apt_destroy``.
    apt_granule: int | None = None
    apt: Apt = field(default_factory=Apt)
    rtt: Rtt = field(default_factory=Rtt)
    rec: Rec | None = None
    # Peer identifiers provisioned by this realm's owner after attestation.
    peer_ids: list = field(default_factory=list)
    tearing_down: bool = False


@dataclass
class IdRegistry:
    """Registry of system-wide realm identifiers; destroyed ids stay tombstoned."""
    next_id: int = 1
    live: dict = field(default_factory=dict)      # realm_id -> rd granule index
    tombstones: set = field(default_factory=set)

    def allocate(self, rd_granule: int) -> int:
        rid = self.next_id
        self.next_id += 1
        self.live[rid] = rd_granule
        return rid

    def retire(self, realm_id: int) -> None:
        del self.live[realm_id]
        self.tombstones.add(realm_id)


@dataclass
class History:
    """Cumulative observables the invariant checker audits.

    ``accesses`` rows are (security state, PAS tag at access time, kind,
    allowed). ``invalidations`` and ``flushes`` must pair up: every mapping
    removal requires a TLB flush at the same (realm, ipa).
    """
    accesses: list = field(default_factory=list)
    invalidations: list = field(default_factory=list)
    flushes: list = field(default_factory=list)


class World:
    """One complete simulated machine; mutated only by its command methods."""

    def __init__(self, granule_count: int = 64, seed: int = 0):
        self.granules = GranuleSpace(granule_count)
        self.registry = IdRegistry()
        self.realms: dict[int, RealmDescriptor] = {}   # rd granule -> descriptor
        self.next_csm_id = 1
        self.platform_digest = digests.platform_digest(seed)
        self.platform_key_seed = digests.digest(b"platform-key", seed.to_bytes(8, "big"))
        self.events: list[dict] = []
        self.history = History()
        # What changed since the invariant checker last took these sets:
        # the (realm id, ipa) of every translation-table entry installed or
        # removed, the (realm id, sharing id) of every share record or
        # window added, removed or changed, and the ids of realms whose
        # registry entry, policy table or region ids changed.
        self.touched_maps: set = set()
        self.touched_sharings: set = set()
        self.touched_realms: set = set()
        # Test instrumentation: names of monitor checks to skip, used by the
        # explorer's sensitivity (mutant) runs. Empty in normal operation.
        self.disabled_checks: set = set()

    # ---------------------------------------------------------------- helpers

    def clone(self) -> "World":
        """An independent copy, as ``copy.deepcopy`` would make, but faster.

        Containers (lists, dicts, sets) and the records the monitor edits in
        place (registry, realm descriptors, policy tables and entries,
        logs) are copied. Values are shared: granules, translation entries,
        vCPU records and pending calls are never written once built, only
        replaced in their container, and contents, digests, ids and enums
        are immutable. ``tests/test_clone.py`` holds it to ``copy.deepcopy``.
        """
        new = _shallow(self)
        new.granules = _shallow(self.granules)
        new.granules.touched = set(self.granules.touched)
        new.granules.grans = list(self.granules.grans)
        reg = self.registry
        new.registry = IdRegistry(reg.next_id, dict(reg.live), set(reg.tombstones))
        new.realms = {rd: _clone_realm(r) for rd, r in self.realms.items()}
        new.events = [_copy_json(e) for e in self.events]
        hist = self.history
        new.history = History(list(hist.accesses), list(hist.invalidations),
                              list(hist.flushes))
        new.disabled_checks = set(self.disabled_checks)
        new.touched_maps = set(self.touched_maps)
        new.touched_sharings = set(self.touched_sharings)
        new.touched_realms = set(self.touched_realms)
        return new

    def record(self, event: dict) -> None:
        self.events.append(event)

    def take_events(self) -> list[dict]:
        out, self.events = self.events, []
        return out

    def realm_at(self, rd: int) -> RealmDescriptor:
        realm = self.realms.get(rd)
        if realm is None:
            raise BadState(f"granule {rd} holds no realm descriptor")
        return realm

    def realm_by_id(self, realm_id: int) -> RealmDescriptor:
        rd = self.registry.live.get(realm_id)
        if rd is None:
            raise NoSuchRealm(f"realm id {realm_id}")
        return self.realms[rd]

    def require_runnable(self, realm_id: int) -> RealmDescriptor:
        """Gate for realm-issued commands: active, has a vCPU, not suspended."""
        realm = self.realm_by_id(realm_id)
        if realm.lifecycle is not Lifecycle.ACTIVE:
            raise BadState(f"realm {realm_id} is {realm.lifecycle.value}")
        if realm.rec is None:
            raise BadState(f"realm {realm_id} has no execution context")
        if realm.rec.pending is not None:
            raise BadState(f"realm {realm_id} vCPU suspended on pending call")
        return realm

    @staticmethod
    def ipa_check_aligned(ipa: int) -> None:
        if ipa % GRANULE_SIZE != 0 or ipa < 0:
            raise Unaligned(f"ipa {ipa:#x}")

    @staticmethod
    def block_of(ipa: int) -> int:
        return ipa >> (GRANULE_BITS + RTT_SPAN_BITS)

    def protected(self, realm: RealmDescriptor, ipa: int, size: int = 1) -> bool:
        limit = 1 << (realm.ipa_width - 1)
        return 0 <= ipa and ipa + size * GRANULE_SIZE <= limit

    def unprotected(self, realm: RealmDescriptor, ipa: int) -> bool:
        half = 1 << (realm.ipa_width - 1)
        return half <= ipa < (1 << realm.ipa_width)

    def emit_exit(self, kind: str, realm_id: int, ipa_base: int, size: int) -> None:
        self.record({"event": "exit", "kind": kind, "realm": realm_id,
                     "ipa_base": ipa_base, "size": size})

    def attached_peers(self, realm: RealmDescriptor, ipa: int):
        """Yield (peer, peer ipa, perm) for every consumer attached to the
        provider region covering ``ipa``, in share order; nothing outside
        a region. Lazy, so a caller can stop at the first peer it rejects."""
        pentry = realm.apt.find_provider_covering(ipa)
        if pentry is None:
            return
        offset = ipa - pentry.base
        for share in pentry.shares:
            if share.attached:
                peer = self.realm_by_id(share.c_id)
                c_entry = peer.apt.find_by_sharing_id(share.sharing_id)
                yield peer, c_entry.base + offset, share.perm

    # Translation-table edits funnel through these two so that every
    # invalidation is paired with its TLB flush in the history.

    def rtt_install(self, realm: RealmDescriptor, ipa: int, pa: int,
                    perm: Permission) -> None:
        if self.block_of(ipa) not in realm.rtt.backed:
            raise TableMiss(f"ipa {ipa:#x} has no table backing")
        if ipa in realm.rtt.entries:
            raise AlreadyMapped(f"ipa {ipa:#x} already mapped")
        realm.rtt.entries[ipa] = RttEntry(pa, perm)
        self.touched_maps.add((realm.realm_id, ipa))

    def rtt_remove(self, realm: RealmDescriptor, ipa: int) -> RttEntry:
        entry = realm.rtt.entries.pop(ipa)
        self.touched_maps.add((realm.realm_id, ipa))
        self.history.invalidations.append((realm.realm_id, ipa))
        self.history.flushes.append((realm.realm_id, ipa))
        self.record({"event": "tlb_flush", "realm": realm.realm_id, "ipa": ipa})
        return entry

    # --------------------------------------------------------- granule cmnds

    def granule_delegate(self, index: int) -> None:
        self.granules.delegate(index)

    def granule_undelegate(self, index: int) -> None:
        self.granules.undelegate(index)

    # -------------------------------------------------------- physical access

    def physical_access_allowed(self, state: SecurityState, index: int,
                                kind: str) -> bool:
        del kind  # GPC grants read and write together
        return gpc_check(state, self.granules[index].pas)

    def physical_access(self, state: SecurityState, index: int, kind: str,
                        offset: int = 0, data: bytes | None = None,
                        length: int | None = None) -> bytes | None:
        check_access_kind(kind)
        if not 0 <= index < len(self.granules):
            raise OutOfRange(f"granule {index}")
        gran = self.granules[index]
        allowed = self.physical_access_allowed(state, index, kind)
        self.history.accesses.append((state.value, gran.pas.value, kind, allowed))
        if not allowed:
            self.record({"event": "fault", "actor": state.value,
                         "granule": index, "kind": kind})
            raise Fault(f"{state.value} access to {gran.pas.value} granule {index}")
        if kind == "read":
            return self.granules.read(index, offset, length)
        self.granules.write(index, data or b"", offset)
        return None

    # ----------------------------------------------------------- realm access

    def _translate(self, realm: RealmDescriptor, ipa: int, kind: str):
        """Shared stage-2 walk; returns (entry, reason-if-denied)."""
        if realm.lifecycle is not Lifecycle.ACTIVE:
            return None, f"realm {realm.realm_id} not active"
        if realm.rec is None or realm.rec.pending is not None:
            return None, f"realm {realm.realm_id} not runnable"
        entry = realm.rtt.entries.get(ipa)
        if entry is None:
            return None, f"ipa {ipa:#x} unmapped"
        if kind == "write" and entry.perm is Permission.READ_ONLY:
            return None, f"ipa {ipa:#x} mapped read-only"
        if not gpc_check(SecurityState.REALM, self.granules[entry.pa].pas):
            return None, f"granule {entry.pa} not realm-accessible"
        return entry, None

    def realm_access_allowed(self, realm_id: int, ipa: int, kind: str) -> bool:
        try:
            realm = self.realm_by_id(realm_id)
        except NoSuchRealm:
            return False
        entry, _ = self._translate(realm, ipa, kind)
        return entry is not None

    def realm_access(self, realm_id: int, ipa: int, kind: str,
                     offset: int = 0, data: bytes | None = None,
                     length: int | None = None) -> bytes | None:
        check_access_kind(kind)
        self.ipa_check_aligned(ipa)
        realm = self.realm_by_id(realm_id)
        entry, reason = self._translate(realm, ipa, kind)
        if entry is None:
            self.record({"event": "fault", "actor": f"realm:{realm_id}",
                         "ipa": ipa, "kind": kind})
            raise Fault(reason)
        pas = self.granules[entry.pa].pas
        self.history.accesses.append((SecurityState.REALM.value, pas.value, kind, True))
        if kind == "read":
            return self.granules.read(entry.pa, offset, length)
        self.granules.write(entry.pa, data or b"", offset)
        return None

    # ------------------------------------------------------------ realm RMIs

    def rmi_realm_create(self, rd: int, ipa_width: int = 20) -> int:
        check_ipa_width(ipa_width)
        gran = self.granules[rd]
        if gran.state is not GranuleState.DELEGATED:
            raise BadState(f"rd granule {rd} in state {gran.state.value}")
        realm_id = self.registry.allocate(rd)
        self.touched_realms.add(realm_id)
        self.granules.retag(rd, GranuleState.RD, realm_id)
        self.realms[rd] = RealmDescriptor(
            realm_id=realm_id, ipa_width=ipa_width,
            rim=digests.initial_measurement(ipa_width))
        return realm_id

    def rmi_rec_create(self, rd: int, rec_granule: int) -> None:
        realm = self.realm_at(rd)
        if realm.lifecycle is not Lifecycle.NEW:
            raise BadState("execution context created during initialization only")
        if realm.rec is not None:
            raise AlreadyExists("realm already has an execution context")
        self.granules.retag(rec_granule, GranuleState.REC, realm.realm_id)
        realm.rec = Rec(rec_granule)

    def rmi_apt_create(self, rd: int, apt_granule: int) -> None:
        realm = self.realm_at(rd)
        if realm.lifecycle is not Lifecycle.NEW:
            raise BadState("policy table created during initialization only")
        if realm.apt_granule is not None:
            raise AlreadyExists("realm already has a policy table")
        self.granules.retag(apt_granule, GranuleState.APT, realm.realm_id)
        realm.apt_granule = apt_granule
        self.touched_realms.add(realm.realm_id)

    def rmi_apt_destroy(self, rd: int, apt_granule: int) -> None:
        realm = self.realm_at(rd)
        if not realm.tearing_down:
            raise BadState("policy table destroyed during realm destruction only")
        if realm.apt_granule != apt_granule:
            raise BadState(f"granule {apt_granule} is not this realm's policy table")
        left = len(realm.apt.providers) + len(realm.apt.consumers)
        if left:
            raise NotEmpty(f"{left} policy entries remain")
        self.granules.release(apt_granule)
        realm.apt_granule = None

    def rmi_rtt_create(self, rd: int, rtt_granule: int, ipa: int) -> None:
        realm = self.realm_at(rd)
        block = self.block_of(ipa)
        if block in realm.rtt.backed:
            raise AlreadyExists(f"ipa block {block} already backed")
        self.granules.retag(rtt_granule, GranuleState.RTT, realm.realm_id)
        realm.rtt.backed[block] = rtt_granule

    def rmi_rtt_read_entry(self, rd: int, ipa: int) -> dict:
        realm = self.realm_at(rd)
        entry = realm.rtt.entries.get(ipa)
        if entry is None:
            return {"state": "unassigned"}
        return {"state": "assigned", "pa": entry.pa, "perm": entry.perm.value}

    def rmi_data_create(self, rd: int, data_granule: int, ipa: int,
                        content: bytes) -> None:
        """Measured populate of the initial image; folds into the measurement."""
        realm = self.realm_at(rd)
        if realm.lifecycle is not Lifecycle.NEW:
            raise BadState("measured populate only before activation")
        self.ipa_check_aligned(ipa)
        if not self.protected(realm, ipa):
            raise BadState(f"ipa {ipa:#x} outside protected half")
        check_content_size(content)
        gran = self.granules[data_granule]
        if gran.state is not GranuleState.DELEGATED:
            raise BadState(f"granule {data_granule} in state {gran.state.value}")
        if ipa in realm.rtt.entries:
            raise AlreadyMapped(f"ipa {ipa:#x}")
        padded = content + bytes(GRANULE_SIZE - len(content))
        self.rtt_install(realm, ipa, data_granule, Permission.READ_WRITE)
        self.granules.retag(data_granule, GranuleState.DATA, realm.realm_id)
        self.granules.write(data_granule, padded)
        realm.rim = digests.extend_measurement(realm.rim, ipa, padded)

    def rmi_data_create_unknown(self, rd: int, data_granule: int, ipa: int) -> None:
        """Unmeasured populate; inside a shared region it also maps every
        currently attached consumer at the corresponding offset."""
        realm = self.realm_at(rd)
        if realm.lifecycle is not Lifecycle.ACTIVE:
            raise BadState("unmeasured populate only after activation")
        self.ipa_check_aligned(ipa)
        if not self.protected(realm, ipa):
            raise BadState(f"ipa {ipa:#x} outside protected half")
        gran = self.granules[data_granule]
        if gran.state is GranuleState.UNDELEGATED:
            raise NotDelegated(f"granule {data_granule}")
        if gran.state is not GranuleState.DELEGATED:
            # Delegated but already in use: mapped into some realm or serving
            # as metadata. Enforces the one-realm-per-granule rule.
            raise AlreadyMapped(f"granule {data_granule} in state {gran.state.value}")
        if ipa in realm.rtt.entries:
            raise AlreadyMapped(f"ipa {ipa:#x}")
        if realm.apt.find_consumer_covering(ipa) is not None:
            raise BadState(f"ipa {ipa:#x} lies in a consumer window")
        # Inside a provider region, attached peers receive the same mapping
        # at the corresponding offset. Validate all targets first; the
        # command mutates atomically or not at all.
        targets = []
        for peer, c_ipa, perm in self.attached_peers(realm, ipa):
            if self.block_of(c_ipa) not in peer.rtt.backed:
                raise TableMiss(f"peer ipa {c_ipa:#x} unbacked")
            if c_ipa in peer.rtt.entries:
                raise AlreadyMapped(f"peer ipa {c_ipa:#x}")
            targets.append((peer, c_ipa, perm))
        self.rtt_install(realm, ipa, data_granule, Permission.READ_WRITE)
        self.granules.retag(data_granule, GranuleState.DATA, realm.realm_id)
        for peer, c_ipa, perm in targets:
            self.rtt_install(peer, c_ipa, data_granule, perm)

    def rmi_data_destroy(self, rd: int, ipa: int) -> int:
        """Wipe and unmap one data granule; inside a shared region the
        mapping is torn out of every attached consumer as well."""
        realm = self.realm_at(rd)
        self.ipa_check_aligned(ipa)
        entry = realm.rtt.entries.get(ipa)
        if entry is None:
            raise NotMapped(f"ipa {ipa:#x}")
        gran = self.granules[entry.pa]
        if gran.owner != realm.realm_id or gran.state is not GranuleState.DATA:
            # Consumer windows map provider-owned granules; the host cannot
            # reclaim those through the consumer's descriptor.
            raise BadState(f"granule {entry.pa} not owned by realm {realm.realm_id}")
        for peer, c_ipa, _ in self.attached_peers(realm, ipa):
            if c_ipa in peer.rtt.entries:
                self.rtt_remove(peer, c_ipa)
        self.rtt_remove(realm, ipa)
        self.granules.release(entry.pa)
        return entry.pa

    def rmi_unprotected_map(self, rd: int, ipa: int, granule: int) -> None:
        """Map normal-world memory into the unprotected half (shared with host)."""
        realm = self.realm_at(rd)
        self.ipa_check_aligned(ipa)
        if not self.unprotected(realm, ipa):
            raise BadState(f"ipa {ipa:#x} not in unprotected half")
        gran = self.granules[granule]
        if gran.state is not GranuleState.UNDELEGATED:
            raise BadState(f"granule {granule} must stay normal-world")
        self.rtt_install(realm, ipa, granule, Permission.READ_WRITE)

    def rmi_realm_activate(self, rd: int) -> None:
        realm = self.realm_at(rd)
        if realm.lifecycle is not Lifecycle.NEW:
            raise BadState(f"realm is {realm.lifecycle.value}")
        if realm.apt_granule is None:
            raise MissingApt("realm has no policy table")
        realm.lifecycle = Lifecycle.ACTIVE

    def rmi_realm_destroy(self, rd: int) -> None:
        """Full teardown: shared regions destroyed, attachments detached,
        every owned granule wiped back to delegated, identifier tombstoned."""
        realm = self.realm_at(rd)
        realm.tearing_down = True
        self.touched_realms.add(realm.realm_id)
        for entry in list(realm.apt.providers):
            destroy_region(self, realm, entry)
        for entry in list(realm.apt.consumers):
            detach_window(self, realm, entry)
        # Remaining mappings are private data or unprotected normal-world
        # pages; unmap them all (with flushes) and reclaim owned granules.
        for ipa in sorted(realm.rtt.entries):
            entry = self.rtt_remove(realm, ipa)
            gran = self.granules[entry.pa]
            if gran.state is GranuleState.DATA and gran.owner == realm.realm_id:
                self.granules.release(entry.pa)
        for block in sorted(realm.rtt.backed):
            self.granules.release(realm.rtt.backed[block])
        realm.rtt = Rtt()
        if realm.apt_granule is not None:
            self.rmi_apt_destroy(rd, realm.apt_granule)
        if realm.rec is not None:
            self.granules.release(realm.rec.rec_granule)
            realm.rec = None
        self.granules.release(rd)
        self.registry.retire(realm.realm_id)
        del self.realms[rd]

    # ------------------------------------------------- pending-call machinery

    def suspend(self, realm: RealmDescriptor, pending: PendingRsi) -> str:
        """Park the vCPU on ``pending`` and ask the host for the granule work:
        populating a provider region, or clearing a consumer window."""
        realm.rec = Rec(realm.rec.rec_granule, pending)
        kind = EXIT_P_REALM_CSM if pending.op == "csm_create" else EXIT_C_REALM_CSM
        self.emit_exit(kind, realm.realm_id, pending.base, pending.size)
        return PENDING

    def rec_enter(self, rd: int):
        """Host re-enters a realm vCPU; a pending call revalidates and either
        completes or re-emits its exit. Returns the call's value, PENDING, or
        None when nothing was pending."""
        realm = self.realm_at(rd)
        if realm.lifecycle is not Lifecycle.ACTIVE or realm.rec is None:
            raise BadState("no runnable execution context")
        pending = realm.rec.pending
        if pending is None:
            return None
        # A provider region completes once fully mapped, a consumer window
        # once fully cleared.
        create = pending.op == "csm_create"
        if all((ipa in realm.rtt.entries) is create
               for ipa in ipa_span(pending.base, pending.size)):
            realm.rec = Rec(realm.rec.rec_granule)
            return pending.csm_id if create else {"reserved": True}
        return self.suspend(realm, pending)

    # ---------------------------------------------------------------- queries

    def stats(self) -> dict:
        counts = self.granules.counts()
        return {
            "granules": counts,
            "realms": len(self.realms),
            "next_realm_id": self.registry.next_id,
            "next_csm_id": self.next_csm_id,
        }


def check_ipa_width(ipa_width: int) -> None:
    """The address widths a realm may be created with."""
    if not 13 <= ipa_width <= 48:
        raise BadState(f"ipa_width {ipa_width}")


def check_access_kind(kind) -> None:
    if kind not in ACCESS_KINDS:
        raise BadState(f"access kind {kind!r}")


def check_content_size(content: bytes) -> None:
    """Measured image content fills at most one granule."""
    if len(content) > GRANULE_SIZE:
        raise BadState("content exceeds granule size")


# ------------------------------------------------------------------ cloning

def _shallow(obj):
    """A new instance sharing every attribute value (``copy.copy``, fast path)."""
    new = object.__new__(obj.__class__)
    new.__dict__ = obj.__dict__.copy()
    return new


def _copy_json(value):
    """Copy the dicts and lists of a JSON-shaped event record."""
    if isinstance(value, dict):
        return {k: _copy_json(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_copy_json(v) for v in value]
    return value


def _clone_realm(realm: RealmDescriptor) -> RealmDescriptor:
    new = _shallow(realm)
    new.rtt = Rtt(dict(realm.rtt.entries), dict(realm.rtt.backed))
    new.apt = Apt(list(map(_clone_provider, realm.apt.providers)),
                  list(map(_shallow, realm.apt.consumers)),
                  dict(realm.apt.share_counters))
    new.peer_ids = list(realm.peer_ids)
    return new


def _clone_provider(entry):
    new = _shallow(entry)
    new.shares = [_shallow(s) for s in entry.shares]
    return new
