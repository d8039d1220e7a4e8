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
``GranuleSpace.touched``, the (realm id, ipa) of each translation-table
entry installed or removed in ``World.touched_maps``, and the ids of
realms whose policy table, share records or registry entry changed in
``World.touched_realms``. The incremental pass visits the new ``History``
rows, the touched granules and mappings, and the mappings and sharings
whose verdict reads what changed, found through indexes it builds from
raw state and keeps up to date. An own mapping (its granule's owner is
its realm) never reads a policy table, so a policy edit reaches only the
foreign mappings its windows and records vouched for; a table edit
reaches the mappings of the granules it moved. ``_clean_since`` gives the
whole argument; I1 and I7 have no per-item form, and it covers them too.
A check with nothing touched and no new row has nothing to visit and
returns at once.

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
    from raw state and updated after each clean pass: per touched mapping
    for the mapping tables, per touched realm for the policy tables."""

    def __init__(self, world):
        self.realms = {r.realm_id: r for r in world.realms.values()}
        self.maps = {}       # realm id -> {ipa: pa}
        self.by_pa = {}      # pa -> {(realm id, ipa)} mapping it
        self.regions = {}    # region id -> provider realm id
        self.owned = {}      # realm id -> its region ids
        self.records = {}    # realm id -> first record keys, as _policy
        self.windows = {}    # realm id -> windows, as _policy
        self.attached = {}   # sharing id -> [(provider, region, record)]
        self.shared = {}     # realm id -> sharing ids of its attached records
        for rid, realm in self.realms.items():
            maps = self.maps[rid] = {}
            for ipa, entry in realm.rtt.entries.items():
                maps[ipa] = entry.pa
                self.by_pa.setdefault(entry.pa, set()).add((rid, ipa))
            self._add_policy(realm, _policy(realm, rid in world.registry.live))

    def update(self, realms: dict, maps: set, policy: dict) -> None:
        """Take in a clean pass over ``realms``: the touched mappings, and
        the ``_policy`` it computed of each touched realm."""
        self.realms = realms
        for rid, ipa in maps:
            own = self.maps.setdefault(rid, {})
            old = own.pop(ipa, None)
            if old is not None:
                self.by_pa[old].discard((rid, ipa))
            realm = realms.get(rid)
            entry = realm.rtt.entries.get(ipa) if realm is not None else None
            if entry is not None:
                own[ipa] = entry.pa
                self.by_pa.setdefault(entry.pa, set()).add((rid, ipa))
        for rid, scan in policy.items():
            self._drop_policy(rid)
            realm = realms.get(rid)
            if realm is not None:
                self._add_policy(realm, scan)
            else:
                for ipa, pa in self.maps.pop(rid, {}).items():
                    self.by_pa[pa].discard((rid, ipa))

    def _drop_policy(self, rid: int) -> None:
        for cid in self.owned.pop(rid, ()):
            del self.regions[cid]
        for sid in self.shared.pop(rid, ()):
            refs = [r for r in self.attached[sid] if r[0].realm_id != rid]
            if refs:
                self.attached[sid] = refs
            else:
                del self.attached[sid]
        self.records.pop(rid, None)
        self.windows.pop(rid, None)

    def _add_policy(self, realm, scan: tuple) -> None:
        rid = realm.realm_id
        self.owned[rid] = [e.csm_id for e in realm.apt.providers] \
            if realm.apt else []
        self.regions.update(dict.fromkeys(self.owned[rid], rid))
        self.records[rid], attached, self.windows[rid] = scan
        for e, s, _ in attached:
            self.attached.setdefault(s.sharing_id, []).append((realm, e, s))
        self.shared[rid] = {s.sharing_id for _, s, _ in attached}


def _policy(realm, live: bool) -> tuple:
    """What the pass compares of a realm's policy table: the key of the
    first record of each sharing id, in the order ``find_share`` searches a
    live provider (none when the realm is not live); (region, record, key)
    of every attached record; and the windows in table order, each as
    (sharing id, base, size, state). A record's key is what a mapping's
    consent reads of it and its region."""
    first, attached = {}, []
    if realm is None or realm.apt is None:
        return first, attached, ()
    for e in realm.apt.providers:
        for s in e.shares:
            key = (e.csm_id, e.base, e.size, s.c_id, s.perm, s.attached)
            first.setdefault(s.sharing_id, key)
            if s.attached:
                attached.append((e, s, key))
    windows = tuple((w.sharing_id, w.base, w.size, w.state)
                    for w in realm.apt.consumers)
    return first if live else {}, attached, windows


def _first_windows(windows: tuple) -> dict:
    """Sharing id -> its first window, as ``find_by_sharing_id`` finds it."""
    out = {}
    for w in windows:
        out.setdefault(w[0], w)
    return out


class _Baseline:
    """The last world found clean: a weak reference, so a finished world's
    granules are freed (the indexes hold on to its realm descriptors until
    another world takes the slot), the lengths of its ``History`` lists,
    and the indexes, built on that world's second check."""

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
            and not world.touched_maps and not world.touched_realms:
        # Nothing changed since the clean check: what ``_clean_since``
        # finds over empty inputs.
        _baseline = base
        return []
    if armed and all(n >= m for n, m in zip(lengths, base.lengths)):
        grans, world.granules.touched = world.granules.touched, set()
        maps, world.touched_maps = world.touched_maps, set()
        rids, world.touched_realms = world.touched_realms, set()
        # Only a logged registry edit adds or drops a realm.
        realms = base.index.realms if not rids else \
            {r.realm_id: r for r in world.realms.values()}
        policy = _clean_since(world, base, realms, grans, maps, rids)
        if policy is not None:
            base.lengths = lengths
            base.index.update(realms, maps, policy)
            _baseline = base
            return []
    # The reference reads everything, so the touch log starts afresh.
    world.granules.touched.clear()
    world.touched_maps.clear()
    world.touched_realms.clear()
    out = check_all(world)
    if not out and not world.disabled_checks:
        _baseline = _Baseline(world, lengths, _Index(world) if same else None)
    return out


def _clean_since(world, base: _Baseline, realms: dict, grans: set,
                 maps: set, rids: set) -> dict | None:
    """The ``_policy`` of each touched realm if the items changed since
    ``base`` still satisfy I1-I7, else None.

    The baseline was clean, so only an item whose verdict reads something
    that changed can have turned bad. A mapping's verdict (I5/I6) reads its
    entry, its granule and its realm's ``ipa_width``, which never changes.
    An own mapping (its granule's owner is its realm) reads nothing more:
    never the policy tables. A foreign mapping was clean only because the
    first window of its realm covering it was attached and the first
    provider record of that window's sharing id was attached, named the
    realm, and lay in a region whose provider mapped the same granule at
    the same offset. So the pass visits these mappings:

    (a) every touched mapping;
    (b) every other mapping of a touched granule, or of a touched mapping's
        old or new granule (a provider remapping its region's page changes
        the old granule's consumers);
    (c) in a touched realm whose window list changed other than by appends
        at its end, every mapping in its baseline attached windows from the
        first changed position on (a window earlier in the list still comes
        first where it did);
    (d) for each sharing id whose first record at a touched provider
        changed from an attached one, every mapping in the baseline attached
        windows of that sharing id at the record's consumer.

    (e) I2 over a sharing reads its record and region, the consumer's first
    window of its sharing id, the consumer's registry entry and both
    realms' mappings over the region and window. It runs for each attached
    sharing whose record, at a touched provider, differs from the
    baseline's first record of its sharing id (a second record equal to the
    first reads the same), whose consumer changed that window or left the
    registry, or that holds a touched mapping in its region or window.

    I1 has no pass of its own: a protected mapping that I1 flags maps a
    granule its realm does not own without covering records, which I5
    flags too unless I6 already did. So when I5 and I6 find nothing over
    all protected mappings, I1 finds nothing either. I7 reads only the
    registry and the region ids, so it runs over the touched realms.
    """
    hist, idx, reg = world.history, base.index, world.registry
    # I7: touched realm ids, and their region ids against the index. It
    # runs first: the policy diffs below trust a touched realm's registry.
    fresh = set()
    for rid in rids:
        if rid in reg.live and rid in reg.tombstones:
            return None
        if (rid in reg.live or rid in reg.tombstones) and \
                not 1 <= rid < reg.next_id:
            return None
        if rid in reg.live:
            realm = world.realms.get(reg.live[rid])
            if realm is None or realm.realm_id != rid:
                return None
        realm = realms.get(rid)
        if realm is None or realm.apt is None:
            continue
        for e in realm.apt.providers:
            cid = e.csm_id
            if cid in fresh or not 1 <= cid < world.next_csm_id or \
                    idx.regions.get(cid, rid) not in rids:
                return None
            fresh.add(cid)

    n_acc, n_inv, n_flush = base.lengths
    out = []
    # I3 and I4 over the new rows: the baseline's were clean, and it was
    # balanced, so the whole is balanced exactly when the new rows are.
    _check_accesses(out, hist.accesses[n_acc:])
    _check_flushes(out, hist.invalidations[n_inv:], hist.flushes[n_flush:])
    _check_tags(out, [world.granules[index] for index in grans])

    visit = set(maps)   # (realm id, ipa) of the mappings to check
    ipas = {}           # realm id -> ipas of its touched mappings
    for rid, ipa in maps:
        ipas.setdefault(rid, set()).add(ipa)
    moved = {}          # realm id -> sharing ids whose first window changed,
                        # or None when the realm left the registry

    def visit_windows(rid: int, windows, sharing_id=None) -> None:
        for sid, w_base, size, state in windows:
            if state is WindowState.ATTACHED and sharing_id in (None, sid):
                visit.update((rid, ipa) for ipa in ipa_span(w_base, size))

    policy = {}
    sharings = {}       # id(record) -> (provider, region, record) for I2
    kept = []           # the same of attached records a step left as they were
    for rid in rids:
        realm = realms.get(rid)
        first, attached, windows = policy[rid] = \
            _policy(realm, rid in reg.live)
        # (c): nothing to visit when the old list is a prefix of the new.
        old, k = idx.windows.get(rid, ()), 0
        while k < min(len(old), len(windows)) and old[k] == windows[k]:
            k += 1
        visit_windows(rid, old[k:])
        if rid not in reg.live:
            moved[rid] = None
        elif windows != old:
            old, new = _first_windows(old), _first_windows(windows)
            moved[rid] = {sid for sid in old.keys() | new.keys()
                          if old.get(sid) != new.get(sid)}
        # (d), and I2 where a record or its region changed.
        old = idx.records.get(rid, {})
        for sid, key in old.items():
            if key[5] and first.get(sid) != key:
                visit_windows(key[3], idx.windows.get(key[3], ()), sid)
        for e, s, key in attached:
            if old.get(s.sharing_id) == key:
                kept.append((realm, e, s))
            else:
                sharings[id(s)] = (realm, e, s)

    # (a) and (b)
    pas = set(grans)
    for rid, ipa in maps:
        old = idx.maps.get(rid, {}).get(ipa)
        if old is not None:
            pas.add(old)
        realm = realms.get(rid)
        entry = realm.rtt.entries.get(ipa) if realm is not None else None
        if entry is not None:
            pas.add(entry.pa)
    for pa in pas:
        for ref in idx.by_pa.get(pa, ()):
            if ref in maps:
                continue
            rid, ipa = ref
            realm = realms.get(rid)
            entry = realm.rtt.entries.get(ipa) if realm else None
            # An untouched mapping cannot have changed: if it did, a touch
            # went unlogged, and the reference decides.
            if entry is None or entry.pa != pa:
                return None
            visit.add(ref)
    for rid, ipa in visit:
        realm = realms.get(rid)
        entry = realm.rtt.entries.get(ipa) if realm is not None else None
        if entry is not None:
            _check_mapping(out, world, realm, ipa, entry)

    # (e)
    def touches(rid: int, lo: int, size: int) -> bool:
        got = ipas.get(rid)
        return got is not None and \
            any(lo <= ipa < lo + size * GRANULE_SIZE for ipa in got)

    def due(p_realm, p_entry, record) -> bool:
        """Whether I2 over the sharing reads a changed window or mapping."""
        c_id, sid = record.c_id, record.sharing_id
        if c_id in moved and (moved[c_id] is None or sid in moved[c_id]):
            return True
        if touches(p_realm.realm_id, p_entry.base, p_entry.size):
            return True
        c_realm = realms.get(c_id) if c_id in ipas else None
        w = c_realm.apt.find_by_sharing_id(sid) \
            if c_realm is not None and c_realm.apt is not None else None
        return w is not None and touches(c_id, w.base, p_entry.size)

    for p_realm, e, s in kept:
        if due(p_realm, e, s):
            sharings[id(s)] = (p_realm, e, s)
    for rid in ipas.keys() | moved.keys():
        # Attached sharings at untouched providers are the baseline's, which
        # the index names by sharing id: those with this realm on either side.
        sids = {w[0] for w in idx.windows.get(rid, ())}
        for sid in sids | idx.shared.get(rid, set()):
            for p_realm, e, s in idx.attached.get(sid, ()):
                if p_realm.realm_id not in rids and due(p_realm, e, s):
                    sharings[id(s)] = (p_realm, e, s)
    for p_realm, p_entry, record in sharings.values():
        _check_sharing(out, world, p_realm, p_entry, record)
    return None if out else policy
