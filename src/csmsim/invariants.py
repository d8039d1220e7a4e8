"""Global isolation invariants checked after every step and explored state.

The checklist, referenced as I1..I7 throughout traces and reports:

I1 Disjointness: a data granule is mapped by at most one realm unless
   matching provider/consumer policy records cover the sharing.
I2 View consistency: an attached window maps exactly the provider's
   physical granules, offset for offset, at the shared permission.
I3 Host exclusion: no recorded access ever succeeded against the
   hardware access-control rule (checked against an independent copy).
I4 Flush pairing: every translation-entry invalidation has a TLB flush.
I5 Consent: a realm mapping another realm's granule holds an attached
   consumer entry whose sharing the owner consented to.
I6 Backing: protected mappings target realm-world data granules; the
   unprotected half targets normal-world granules; tag store consistent.
I7 Identifier freshness: realm and region identifiers are unique, below
   their counters, and never resurrected.

Two checkers give the same verdicts. Each of the rules I2-I6 is one
function over the items it is given (a sharing, a run of history rows, a
mapping, granules), and both checkers call it: they differ only in which
items they visit. ``check_all`` is the reference: it visits every item and
reads raw state alone. ``check_invariants``, the one callers use, visits
only what changed since the last clean check of the same world. The
monitor logs what each command touches: granule indices in
``GranuleSpace.touched`` and realm ids in ``World.touched_realms``. The
incremental pass visits the new ``History`` rows and the touched granules
and realms, plus the mappings and sharings that reach them, through indexes
it builds from raw state and keeps up to date. I1 and I7 have no per-item
form; the incremental pass covers them as ``_clean_since`` explains.

The reference runs instead on the first and second check of a world (the
second one also builds the indexes), whenever the world has disabled
checks (a mutant), whenever a ``History`` list got shorter, and whenever
the incremental pass finds anything: every non-empty verdict is the
reference's, so traces are the same whichever checker ran. The explorer
checks each new world once, so it always runs the reference.

Both checkers carry their own literal copy of the access-control matrix
rather than calling ``gpc_check``, so a corrupted fast path cannot vouch
for itself.
"""

import weakref
from collections import Counter

from .csm import WindowState, find_share
from .granules import GRANULE_SIZE, GranuleState, PasTag

# Independent transcription of the hardware rule (state row, tag column).
_ACCESS_RULE = {
    ("normal", "normal"): True, ("normal", "secure"): False,
    ("normal", "realm"): False, ("normal", "root"): False,
    ("secure", "normal"): True, ("secure", "secure"): True,
    ("secure", "realm"): False, ("secure", "root"): False,
    ("realm", "normal"): True, ("realm", "secure"): False,
    ("realm", "realm"): True, ("realm", "root"): False,
    ("root", "normal"): True, ("root", "secure"): True,
    ("root", "realm"): True, ("root", "root"): True,
}


def _violation(code: str, detail: str) -> dict:
    return {"invariant": code, "detail": detail}


def _consumer_coverage(world, realm, ipa: int, pa: int) -> bool:
    """Is realm's mapping of someone else's granule justified by an attached,
    consented, offset-correct sharing?"""
    if realm.apt is None:
        return False
    c_entry = realm.apt.find_consumer_covering(ipa)
    if c_entry is None or c_entry.state is not WindowState.ATTACHED:
        return False
    p_realm, p_entry, record = find_share(world, c_entry.sharing_id)
    if record is None or not record.attached or record.c_id != realm.realm_id:
        return False
    offset = ipa - c_entry.base
    p_ipa = p_entry.base + offset
    if not p_entry.base <= p_ipa < p_entry.base + p_entry.size * GRANULE_SIZE:
        return False
    src = p_realm.rtt.entries.get(p_ipa)
    return src is not None and src.pa == pa


def check_all(world) -> list[dict]:
    """The reference checker: every invariant over the whole world."""
    out = []
    realms = list(world.realms.values())

    # I1: who maps each granule through protected entries.
    mappers: dict[int, list] = {}
    for realm in realms:
        for ipa, entry in realm.rtt.entries.items():
            if world.protected(realm, ipa):
                mappers.setdefault(entry.pa, []).append((realm, ipa))
    for pa, refs in mappers.items():
        if len(refs) < 2:
            continue
        owner = world.granules[pa].owner
        for realm, ipa in refs:
            if realm.realm_id == owner:
                continue
            if not _consumer_coverage(world, realm, ipa, pa):
                out.append(_violation(
                    "I1", f"granule {pa} mapped by realm {realm.realm_id} at "
                          f"{ipa:#x} without covering policy records"))

    # I2: attached sharings show identical physical sequences.
    for realm in realms:
        if realm.apt is None:
            continue
        for p_entry in realm.apt.providers:
            for record in p_entry.shares:
                if record.attached:
                    _check_sharing(out, world, realm, p_entry, record)

    # I3-I6: every access row, every mapping and every granule.
    _check_accesses(out, world.history.accesses)
    _check_flushes(out, world.history.invalidations, world.history.flushes)
    for realm in realms:
        for ipa, entry in realm.rtt.entries.items():
            _check_mapping(out, world, realm, ipa, entry)
    _check_tags(out, world.granules.grans)

    # I7: identifier uniqueness and freshness.
    live = world.registry.live
    if set(live) & world.registry.tombstones:
        out.append(_violation("I7", "realm id both live and tombstoned"))
    for rid in set(live) | world.registry.tombstones:
        if not 1 <= rid < world.registry.next_id:
            out.append(_violation("I7", f"realm id {rid} outside counter range"))
    for rid, rd in live.items():
        realm = world.realms.get(rd)
        if realm is None or realm.realm_id != rid:
            out.append(_violation("I7", f"registry entry {rid} inconsistent"))
    csm_ids = [e.csm_id for realm in realms if realm.apt
               for e in realm.apt.providers]
    if len(csm_ids) != len(set(csm_ids)):
        out.append(_violation("I7", "duplicate region identifiers"))
    for cid in csm_ids:
        if not 1 <= cid < world.next_csm_id:
            out.append(_violation("I7", f"region id {cid} outside counter range"))

    return out


# ------------------------------------------------------------------ rules
# Each appends the reference's findings on the items it is given.

def _check_sharing(out: list, world, p_realm, p_entry, record) -> None:
    """I2 for one attached sharing: the window maps the provider's granules
    offset for offset, at the shared permission."""
    if record.c_id not in world.registry.live:
        out.append(_violation(
            "I2", f"sharing {record.sharing_id} attached to dead realm"))
        return
    c_realm = world.realm_by_id(record.c_id)
    c_entry = (c_realm.apt.find_by_sharing_id(record.sharing_id)
               if c_realm.apt else None)
    if c_entry is None or c_entry.state is not WindowState.ATTACHED:
        out.append(_violation(
            "I2", f"sharing {record.sharing_id} lacks attached window"))
        return
    for k in range(p_entry.size):
        p_ipa = p_entry.base + k * GRANULE_SIZE
        c_ipa = c_entry.base + k * GRANULE_SIZE
        src = p_realm.rtt.entries.get(p_ipa)
        dst = c_realm.rtt.entries.get(c_ipa)
        if (src is None) != (dst is None):
            out.append(_violation(
                "I2", f"sharing {record.sharing_id} offset {k}: "
                      f"one side unmapped"))
        elif src is not None and src.pa != dst.pa:
            out.append(_violation(
                "I2", f"sharing {record.sharing_id} offset {k}: "
                      f"pa {src.pa} vs {dst.pa}"))
        elif dst is not None and dst.perm is not record.perm:
            out.append(_violation(
                "I2", f"sharing {record.sharing_id} offset {k}: "
                      f"permission {dst.perm.value}"))


def _check_accesses(out: list, rows) -> None:
    """I3 over access rows: none succeeded against the rule."""
    for state, pas, kind, allowed in rows:
        if allowed and not _ACCESS_RULE[(state, pas)]:
            out.append(_violation(
                "I3", f"{state} {kind} of {pas} granule succeeded"))


def _check_flushes(out: list, invalidations, flushes) -> None:
    """I4 over invalidation and flush rows: they pair up."""
    if Counter(invalidations) != Counter(flushes):
        out.append(_violation("I4", "unmatched invalidation/flush counts"))


def _check_mapping(out: list, world, realm, ipa: int, entry) -> None:
    """I5 and I6 for one mapping: justified and correctly backed."""
    gran = world.granules[entry.pa]
    if world.protected(realm, ipa):
        if gran.state is not GranuleState.DATA or gran.pas is not PasTag.REALM:
            out.append(_violation(
                "I6", f"realm {realm.realm_id} maps {ipa:#x} to granule "
                      f"{entry.pa} in state {gran.state.value}"))
        elif gran.owner != realm.realm_id and \
                not _consumer_coverage(world, realm, ipa, entry.pa):
            out.append(_violation(
                "I5", f"realm {realm.realm_id} maps foreign granule "
                      f"{entry.pa} at {ipa:#x} without consent records"))
    elif gran.pas is not PasTag.NORMAL:
        out.append(_violation(
            "I6", f"unprotected mapping {ipa:#x} targets "
                  f"{gran.pas.value} granule {entry.pa}"))


def _check_tags(out: list, grans) -> None:
    """The I6 state/tag implication over granules."""
    for g in grans:
        delegated = g.state is not GranuleState.UNDELEGATED
        if delegated and g.pas is not PasTag.REALM:
            out.append(_violation(
                "I6", f"granule {g.index} state {g.state.value} but "
                      f"tag {g.pas.value}"))
        if not delegated and g.pas is not PasTag.NORMAL:
            out.append(_violation(
                "I6", f"undelegated granule {g.index} tagged {g.pas.value}"))


# ------------------------------------------------------------ incremental

class _Index:
    """What the incremental pass must know of the last clean state, built
    from raw state and updated per touched realm after each clean pass."""

    def __init__(self, world):
        self.maps = {}       # realm id -> {ipa: pa}
        self.by_pa = {}      # pa -> {(realm id, ipa)} mapping it
        self.regions = {}    # region id -> provider realm id
        self.owned = {}      # realm id -> its region ids
        self.consumers = {}  # provider id -> consumer ids attached to it
        self.providers = {}  # consumer id -> provider ids attached to it
        for realm in world.realms.values():
            self._add(realm)

    def update(self, realms: dict, touched: set) -> None:
        for rid in touched:
            self._drop(rid)
        for rid in touched:
            if rid in realms:
                self._add(realms[rid])

    def _drop(self, rid: int) -> None:
        for ipa, pa in self.maps.pop(rid, {}).items():
            self.by_pa[pa].discard((rid, ipa))
        for cid in self.owned.pop(rid, ()):
            del self.regions[cid]
        for c_id in self.consumers.pop(rid, ()):
            self.providers[c_id].discard(rid)

    def _add(self, realm) -> None:
        rid = realm.realm_id
        maps = self.maps[rid] = {}
        for ipa, entry in realm.rtt.entries.items():
            maps[ipa] = entry.pa
            self.by_pa.setdefault(entry.pa, set()).add((rid, ipa))
        p_entries = realm.apt.providers if realm.apt else []
        self.owned[rid] = [e.csm_id for e in p_entries]
        self.regions.update(dict.fromkeys(self.owned[rid], rid))
        consumers = self.consumers[rid] = {
            s.c_id for e in p_entries for s in e.shares if s.attached}
        for c_id in consumers:
            self.providers.setdefault(c_id, set()).add(rid)


class _Baseline:
    """The last world found clean: a weak reference, so a finished world is
    freed, the lengths of its ``History`` lists, and the indexes, built on
    that world's second check."""

    __slots__ = ("world", "lengths", "index")

    def __init__(self, world, lengths: tuple, index: _Index | None):
        self.world = weakref.ref(world)
        self.lengths = lengths
        self.index = index


# One slot: a scenario run or a benchmark pass checks one world over and
# over. A check of any other world runs the reference and takes the slot.
_baseline: _Baseline | None = None


def check_invariants(world) -> list[dict]:
    """The invariant verdict on ``world``, equal to ``check_all(world)``."""
    global _baseline
    hist = world.history
    lengths = (len(hist.accesses), len(hist.invalidations), len(hist.flushes))
    # The slot stays empty until this check ends clean, so a check that
    # raises leaves the next one to the reference.
    base, _baseline = _baseline, None
    same = base is not None and base.world() is world
    if same and base.index is not None and not world.disabled_checks and \
            all(n >= m for n, m in zip(lengths, base.lengths)):
        grans, world.granules.touched = world.granules.touched, set()
        rids, world.touched_realms = world.touched_realms, set()
        realms = {r.realm_id: r for r in world.realms.values()}
        if _clean_since(world, base, realms, grans, rids):
            base.lengths = lengths
            base.index.update(realms, rids)
            _baseline = base
            return []
    # The reference reads everything, so the touch log starts afresh.
    world.granules.touched.clear()
    world.touched_realms.clear()
    out = check_all(world)
    if not out and not world.disabled_checks:
        _baseline = _Baseline(world, lengths, _Index(world) if same else None)
    return out


def _clean_since(world, base: _Baseline, realms: dict, grans: set,
                 rids: set) -> bool:
    """Whether the items changed since ``base`` still satisfy I1-I7.

    I1 has no pass of its own: a protected mapping that I1 flags maps a
    granule its realm does not own without covering records, which I5
    flags too unless I6 already did. So when I5 and I6 find nothing over
    all protected mappings, I1 finds nothing either.
    """
    hist, idx = world.history, base.index
    n_acc, n_inv, n_flush = base.lengths
    out = []
    # I3 and I4 over the new rows: the baseline's were clean, and it was
    # balanced, so the whole is balanced exactly when the new rows are.
    _check_accesses(out, hist.accesses[n_acc:])
    _check_flushes(out, hist.invalidations[n_inv:], hist.flushes[n_flush:])
    _check_tags(out, [world.granules[index] for index in grans])

    # I5/I6: every mapping of a touched realm, then every other mapping of
    # a granule that is touched or that a touched realm maps or mapped.
    pas = set(grans)
    for rid in rids:
        pas.update(idx.maps.get(rid, {}).values())
        realm = realms.get(rid)
        if realm is None:
            continue
        for ipa, entry in realm.rtt.entries.items():
            pas.add(entry.pa)
            _check_mapping(out, world, realm, ipa, entry)
    for pa in pas:
        for rid, ipa in idx.by_pa.get(pa, ()):
            if rid in rids:
                continue
            realm = realms.get(rid)
            entry = realm.rtt.entries.get(ipa) if realm else None
            # An untouched realm cannot have changed: if it did, a touch
            # went unlogged, and the reference decides.
            if entry is None or entry.pa != pa:
                return False
            _check_mapping(out, world, realm, ipa, entry)

    # I2: attached sharings with a touched realm on either side. A touched
    # consumer's providers come from its windows and, should it be gone,
    # from the index.
    providers = set()
    for rid in rids:
        providers.add(rid)
        providers.update(idx.providers.get(rid, ()))
        realm = realms.get(rid)
        if realm is not None and realm.apt is not None:
            providers.update(e.sharing_id[0] for e in realm.apt.consumers)
    for pid in providers:
        p_realm = realms.get(pid)
        if p_realm is None or p_realm.apt is None:
            continue
        for p_entry in p_realm.apt.providers:
            for record in p_entry.shares:
                if record.attached and (pid in rids or record.c_id in rids):
                    _check_sharing(out, world, p_realm, p_entry, record)
    if out:
        return False

    # I7: touched realm ids, and their region ids against the index.
    reg = world.registry
    fresh = set()
    for rid in rids:
        if rid in reg.live and rid in reg.tombstones:
            return False
        if (rid in reg.live or rid in reg.tombstones) and \
                not 1 <= rid < reg.next_id:
            return False
        if rid in reg.live:
            realm = world.realms.get(reg.live[rid])
            if realm is None or realm.realm_id != rid:
                return False
        realm = realms.get(rid)
        if realm is None or realm.apt is None:
            continue
        for e in realm.apt.providers:
            cid = e.csm_id
            if cid in fresh or not 1 <= cid < world.next_csm_id or \
                    idx.regions.get(cid, rid) not in rids:
                return False
            fresh.add(cid)
    return True

