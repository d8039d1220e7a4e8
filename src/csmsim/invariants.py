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

Two checkers give the same verdicts. Each of the rules I2-I7 is one
function over the items it is given (a sharing, a run of history rows, a
mapping, granules, realm ids and realms), and both checkers call it: they
differ only in which items they visit. ``check_all`` is the reference: it
visits every item and reads raw state alone. ``check_invariants``, the one
callers use, visits only what changed since the last clean check of the
same world. The monitor logs what each command touches: granule indices in
``GranuleSpace.touched``, the (realm id, ipa) of each translation-table
entry installed or removed in ``World.touched_maps``, the (realm id,
sharing id) of each share record or window added, removed or changed in
``World.touched_sharings``, and the ids of realms whose registry entry,
policy table or region ids changed in ``World.touched_realms``. The
incremental pass visits the new ``History`` rows, the touched granules and
mappings, the other mappings of the granules they name, and what a touched
sharing reaches: the mappings in its windows before and after the edit,
and I2 over its attached records. An own mapping (its granule's owner is
its realm) never reads a policy table, and a foreign one reads only the
window covering it and the first record of that window's sharing id, so a
policy edit reaches only the mappings in the edited sharing's windows.
``_clean_since`` gives the whole argument; I1 has no per-item form, and it
covers that too. A check with nothing touched and no new row has nothing
to visit and returns at once.

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

from .csm import WindowState, find_share, ipa_span
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
    _check_tags(out, enumerate(world.granules.grans))

    # I7: identifier uniqueness and freshness.
    _check_ids(out, world, world.registry.live.keys() | world.registry.tombstones,
               realms)

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
    c_entry = c_realm.apt.find_by_sharing_id(record.sharing_id)
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
    """I4 over invalidation and flush rows: they pair up. Equal lists are
    equal multisets, so only unequal ones are counted."""
    if invalidations != flushes and Counter(invalidations) != Counter(flushes):
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
    """The I6 state/tag implication over (index, granule) pairs."""
    for index, g in grans:
        delegated = g.state is not GranuleState.UNDELEGATED
        if delegated and g.pas is not PasTag.REALM:
            out.append(_violation(
                "I6", f"granule {index} state {g.state.value} but "
                      f"tag {g.pas.value}"))
        if not delegated and g.pas is not PasTag.NORMAL:
            out.append(_violation(
                "I6", f"undelegated granule {index} tagged {g.pas.value}"))


def _check_ids(out: list, world, rids, realms, floor: int = 1,
               held: dict | None = None) -> None:
    """I7 over realm ids and the region ids of ``realms`` (None skipped):
    ids are below their counters; a live realm id is not retired and names
    a descriptor that names it, one per live id; a region id is held once
    and, if below ``floor``, by the realm ``held`` (realm id -> ids) names."""
    reg, seen = world.registry, set()
    if len(world.realms) != len(reg.live):
        out.append(_violation("I7", "descriptor and live id counts differ"))
    for rid in rids:
        if not 1 <= rid < reg.next_id:
            out.append(_violation("I7", f"realm id {rid} outside counter range"))
        realm = world.realms.get(reg.live.get(rid))
        if rid in reg.live and (rid in reg.tombstones or realm is None or
                                realm.realm_id != rid):
            out.append(_violation("I7", f"registry entry {rid} inconsistent"))
    for realm in realms:
        for e in realm.apt.providers if realm else ():
            cid = e.csm_id
            if cid in seen:
                out.append(_violation("I7", f"region id {cid} held twice"))
            if not 1 <= cid < world.next_csm_id:
                out.append(_violation("I7", f"region id {cid} outside counter range"))
            elif cid < floor and cid not in held.get(realm.realm_id, ()):
                out.append(_violation("I7", f"region id {cid} reissued"))
            seen.add(cid)


# ------------------------------------------------------------ incremental

class _Index:
    """What the incremental pass must know of the last clean state, built
    from raw state and updated after each clean pass: per touched mapping
    for the mapping tables, per touched sharing for the windows and per
    touched realm for the region ids, which were all below ``floor``."""

    def __init__(self, world):
        self.maps = {}       # realm id -> {ipa: pa}
        self.by_pa = {}      # pa -> {(realm id, ipa)} mapping it
        self.regions = {}    # realm id -> ids of the regions it provides
        self.windows = {}    # sharing id -> [(realm id, base, size)] attached
        self.floor = world.next_csm_id
        for realm in world.realms.values():
            rid = realm.realm_id
            maps = self.maps[rid] = {}
            for ipa, entry in realm.rtt.entries.items():
                maps[ipa] = entry.pa
                self.by_pa.setdefault(entry.pa, set()).add((rid, ipa))
            self.regions[rid] = {e.csm_id for e in realm.apt.providers}
            for w in realm.apt.consumers:
                if w.state is WindowState.ATTACHED:
                    self.windows.setdefault(w.sharing_id, []).append(
                        (rid, w.base, w.size))

    def update(self, world, maps: set, rids: set, windows: dict) -> None:
        """Take in a clean pass over ``world``: the touched mappings and
        realms, and the attached window spans of each touched sharing."""
        live, descs = world.registry.live, world.realms
        self.floor = world.next_csm_id
        for rid, ipa in maps:
            own = self.maps.setdefault(rid, {})
            old = own.pop(ipa, None)
            if old is not None:
                self.by_pa[old].discard((rid, ipa))
            realm = descs.get(live.get(rid))
            entry = realm.rtt.entries.get(ipa) if realm is not None else None
            if entry is not None:
                own[ipa] = entry.pa
                self.by_pa.setdefault(entry.pa, set()).add((rid, ipa))
        for (rid, sid), spans in windows.items():
            spans += [w for w in self.windows.pop(sid, ()) if w[0] != rid]
            if spans:
                self.windows[sid] = spans
        for rid in rids:
            realm = descs.get(live.get(rid))
            if realm is None:
                self.regions.pop(rid, None)
                for ipa, pa in self.maps.pop(rid, {}).items():
                    self.by_pa[pa].discard((rid, ipa))
            else:
                self.regions[rid] = {e.csm_id for e in realm.apt.providers}


class _Baseline:
    """The last world found clean: a weak reference, so a finished world is
    freed (the indexes hold ids, addresses and spans, never its objects),
    the lengths of its ``History`` lists, and the indexes, built on that
    world's second check."""

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
    armed = same and base.index is not None and not world.disabled_checks
    if armed and lengths == base.lengths and not world.granules.touched \
            and not world.touched_maps and not world.touched_sharings \
            and not world.touched_realms:
        # Nothing changed since the clean check: what ``_clean_since``
        # finds over empty inputs.
        _baseline = base
        return []
    if armed and all(n >= m for n, m in zip(lengths, base.lengths)):
        grans, world.granules.touched = world.granules.touched, set()
        maps, world.touched_maps = world.touched_maps, set()
        sids, world.touched_sharings = world.touched_sharings, set()
        rids, world.touched_realms = world.touched_realms, set()
        windows = _clean_since(world, base, grans, maps, sids, rids)
        if windows is not None:
            base.lengths = lengths
            base.index.update(world, maps, rids, windows)
            _baseline = base
            return []
    # The reference reads everything, so the touch log starts afresh.
    world.granules.touched.clear()
    world.touched_maps.clear()
    world.touched_sharings.clear()
    world.touched_realms.clear()
    out = check_all(world)
    if not out and not world.disabled_checks:
        _baseline = _Baseline(world, lengths, _Index(world) if same else None)
    return out


def _clean_since(world, base: _Baseline, grans: set, maps: set, sids: set,
                 rids: set) -> dict | None:
    """The attached windows of each touched (realm id, sharing id), for the
    index, if the items changed since ``base`` still satisfy I1-I7, else
    None.

    The baseline was clean, so only an item whose verdict reads something
    that changed can have turned bad. The argument rests on rules the
    monitor keeps: a share record lives at the provider its sharing id
    names (``sid[0]``) and a window at the consumer it names (``sid[1]``);
    policy-table entries are appended and removed, never reordered; and a
    realm leaves the registry only after its windows and records are gone,
    each a logged sharing edit.

    A mapping's verdict (I5/I6) reads its entry, its granule and its realm's
    ``ipa_width``, which never changes. An own mapping (its granule's owner
    is its realm) reads nothing more: never the policy tables. A foreign
    mapping was clean only through the first window of its realm covering
    it, attached, and the first record of that window's sharing id at
    ``sid[0]``, attached, naming the realm, in a region whose provider maps
    the same granule at the same offset. So besides a touched mapping or
    granule, only a logged edit of that sharing id, whose baseline attached
    windows hold the mapping, or of a window of another id that now covers
    it, can change its verdict. The pass visits these mappings:

    (a) every touched mapping;
    (b) every other mapping of a touched granule, or of a touched mapping's
        old or new granule (a provider remapping its region's page changes
        the old granule's consumers);
    (c) for each touched (rid, sid), the mappings in the baseline's
        attached windows of sid (the index keeps them by sharing id) and in
        rid's current windows of sid.

    I2 over a sharing reads its record and region, the consumer's first
    window of its sharing id, the consumer's registry entry and both
    realms' mappings over them. It runs over the attached records (d) of
    sid held by rid and by ``sid[0]``, for each touched (rid, sid), and (e)
    of the region, or of the sharing id of the attached window, that covers
    a touched mapping.

    I1 has no pass of its own: a protected mapping that I1 flags maps a
    granule its realm does not own without covering records, which I5
    flags too unless I6 already did. So when I5 and I6 find nothing over
    all protected mappings, I1 finds nothing either. I7 reads the registry,
    the descriptors and the region ids, which only logged registry and
    policy-table edits change, so it runs over the touched realm ids (and
    the descriptor count on every pass). An untouched realm still holds
    the region ids it held at the baseline, all below the baseline's region
    counter (the floor), so a touched realm's id clashes with none of them
    if it is at or above the floor or the realm held it at the baseline.
    Any other is a finding, and the reference decides.
    """
    hist, idx = world.history, base.index
    live, descs = world.registry.live, world.realms
    out = []
    if rids or len(descs) != len(live):
        _check_ids(out, world, rids, [descs.get(live.get(rid)) for rid in rids],
                   idx.floor, idx.regions)
    n_acc, n_inv, n_flush = base.lengths
    # I3 and I4 over the new rows: the baseline's were clean, and it was
    # balanced, so the whole is balanced exactly when the new rows are.
    _check_accesses(out, hist.accesses[n_acc:])
    _check_flushes(out, hist.invalidations[n_inv:], hist.flushes[n_flush:])
    _check_tags(out, [(index, world.granules[index]) for index in grans])

    visit = set(maps)   # (realm id, ipa) of the mappings to check
    sharings = {}       # id(record) -> (provider, region, record) for I2
    windows = {}        # (realm id, sharing id) -> its attached windows

    def records(rid: int, sid: tuple) -> None:
        realm = descs.get(live.get(rid))
        for e in realm.apt.providers if realm else ():
            for s in e.shares:
                if s.attached and s.sharing_id == sid:
                    sharings[id(s)] = (realm, e, s)

    # (c) and (d)
    for rid, sid in sids:
        for holder, w_base, size in idx.windows.get(sid, ()):
            visit.update((holder, ipa) for ipa in ipa_span(w_base, size))
        realm = descs.get(live.get(rid))
        spans = windows[rid, sid] = []
        for w in realm.apt.consumers if realm else ():
            if w.sharing_id == sid:
                visit.update((rid, ipa) for ipa in ipa_span(w.base, w.size))
                if w.state is WindowState.ATTACHED:
                    spans.append((rid, w.base, w.size))
        for holder in {rid, sid[0]}:
            records(holder, sid)

    # (a), (b) and (e)
    pas = set(grans)
    for rid, ipa in maps:
        old = idx.maps.get(rid, {}).get(ipa)
        if old is not None:
            pas.add(old)
        realm = descs.get(live.get(rid))
        if realm is None:
            continue
        entry = realm.rtt.entries.get(ipa)
        if entry is not None:
            pas.add(entry.pa)
        for e in realm.apt.providers:
            if e.base <= ipa < e.base + e.size * GRANULE_SIZE:
                sharings.update((id(s), (realm, e, s))
                                for s in e.shares if s.attached)
        for w in realm.apt.consumers:
            if w.state is WindowState.ATTACHED and \
                    w.base <= ipa < w.base + w.size * GRANULE_SIZE:
                records(w.sharing_id[0], w.sharing_id)
    for pa in pas:
        for ref in idx.by_pa.get(pa, ()):
            if ref in maps:
                continue
            rid, ipa = ref
            realm = descs.get(live.get(rid))
            entry = realm.rtt.entries.get(ipa) if realm else None
            # An untouched mapping cannot have changed: if it did, a touch
            # went unlogged, and the reference decides.
            if entry is None or entry.pa != pa:
                return None
            visit.add(ref)
    for rid, ipa in visit:
        realm = descs.get(live.get(rid))
        entry = realm.rtt.entries.get(ipa) if realm is not None else None
        if entry is not None:
            _check_mapping(out, world, realm, ipa, entry)
    for p_realm, p_entry, record in sharings.values():
        _check_sharing(out, world, p_realm, p_entry, record)
    return None if out else windows
