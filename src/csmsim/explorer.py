"""Bounded exhaustive exploration of command interleavings on tiny worlds.

From an initial state with a few scaffolded realms (each active with a
policy table, vCPU context, table backing, and one private data granule at
0x1000), the explorer enumerates every enabled command with every in-range
argument combination, breadth first, deduplicating states by a canonical
structural key. Every newly reached state is checked against the global
invariants and against the brute-force access oracle; a violation is
reported with the shortest command sequence that produced it.

Only the worlds still to be expanded are kept: a frontier world is dropped
once its successors are made, and the worlds of the last depth are checked
and dropped at once. The oracle check of a world whose parent's check found
no mismatch compares only the normal, secure and root cells of the granules
the transition touched (those cells depend on the granule's tag alone, and
only a touched granule changes its tag), plus every realm row. The full
reference oracle runs on the initial world, on every successor of a world
with a mismatch, and on any world where the limited check finds one, so
every recorded mismatch list is the reference's.

Granule-index symmetry is handled by construction: the cooperative host
always delegates the lowest-index free granule, so interchangeable granules
never multiply states.

The ``disabled_checks`` knob builds deliberately broken monitors (for
example, skipping the attach size-equality check) to confirm the explorer
actually catches the violations those checks exist to prevent.
"""

import functools
import hashlib
import time
from dataclasses import dataclass, field

from .granules import GRANULE_SIZE, GranuleState, SecurityState
from .harness import execute_step
from .host import Host, HostPolicy
from .invariants import _ACCESS_RULE, check_invariants
from .rmm import World

DEFAULT_COMMANDS = ("csm_create", "csm_share", "csm_reserve", "csm_attach",
                    "csm_revoke", "csm_destroy", "csm_detach")

_WORLD_ACTORS = {"normal": SecurityState.NORMAL, "secure": SecurityState.SECURE,
                 "root": SecurityState.ROOT}


@dataclass
class ExplorationConfig:
    realm_count: int = 2
    # Free granules available for delegation beyond the per-realm scaffold
    # (descriptor, policy table, context, table granule). The per-realm
    # private data granule is drawn from this pool at setup.
    granule_count: int = 8
    csm_max_size: int = 2
    depth: int = 6
    commands: tuple = DEFAULT_COMMANDS
    create_bases: tuple = (0x0,)
    reserve_bases: tuple = (0x0, 0x3000)
    disabled_checks: tuple = ()
    state_cap: int = 200_000
    seed: int = 0


@dataclass
class ExplorationReport:
    states: int = 0
    transitions: int = 0
    depth_reached: int = 0
    violations: list = field(default_factory=list)
    oracle_mismatches: list = field(default_factory=list)
    budget_exceeded: bool = False
    wall_time_s: float = 0.0

    def clean(self) -> bool:
        return not self.violations and not self.oracle_mismatches

    def to_json(self) -> dict:
        return {"states": self.states, "transitions": self.transitions,
                "depth_reached": self.depth_reached,
                "violations": self.violations,
                "oracle_mismatches": self.oracle_mismatches,
                "budget_exceeded": self.budget_exceeded,
                "wall_time_s": round(self.wall_time_s, 3)}


def build_initial_world(cfg: ExplorationConfig) -> World:
    total = cfg.realm_count * 4 + cfg.granule_count
    world = World(granule_count=total, seed=cfg.seed)
    world.disabled_checks = set(cfg.disabled_checks)
    nxt = iter(range(total))
    for r in range(cfg.realm_count):
        rd, apt, rec, rtt, data = (next(nxt) for _ in range(5))
        world.granule_delegate(rd)
        world.rmi_realm_create(rd, ipa_width=20)
        world.granule_delegate(apt)
        world.rmi_apt_create(rd, apt)
        world.granule_delegate(rec)
        world.rmi_rec_create(rd, rec)
        world.granule_delegate(rtt)
        world.rmi_rtt_create(rd, rtt, 0)
        # Private data adjacent to the create-base candidates, so windows
        # negotiated too large would land on genuinely private granules.
        world.granule_delegate(data)
        world.rmi_data_create(rd, data, 0x1000, f"private-{r}".encode())
        world.rmi_realm_activate(rd)
    world.take_events()
    return world


# ------------------------------------------------------------ command space

def enabled_commands(world: World, cfg: ExplorationConfig) -> list:
    """All command instances runnable from this state, deterministic order.

    Returns (label, actor, op, args) tuples in the harness dispatch format.
    """
    out = []
    live = sorted(world.registry.live)
    want = set(cfg.commands)

    def realm_ready(rid):
        realm = world.realm_by_id(rid)
        return realm.rec is not None and realm.rec.pending is None

    for rid in live:
        if not realm_ready(rid):
            continue
        realm = world.realm_by_id(rid)
        actor = f"realm:{rid}"
        if "csm_create" in want:
            for base in cfg.create_bases:
                for size in range(1, cfg.csm_max_size + 1):
                    out.append((f"create(r{rid},{base:#x},{size})", actor,
                                "rsi_csm_create", {"base": base, "size": size}))
        p_entries = realm.apt.providers if realm.apt else []
        c_entries = realm.apt.consumers if realm.apt else []
        if "csm_share" in want:
            for e in p_entries:
                for peer in live:
                    if peer == rid:
                        continue
                    for perm in ("ro", "rw"):
                        out.append((f"share(r{rid},csm{e.csm_id},r{peer},{perm})",
                                    actor, "rsi_csm_share",
                                    {"csm": e.csm_id, "c_id": peer, "perm": perm}))
        if "csm_reserve" in want:
            for sid in _reservable_sids(world, rid, live):
                for base in cfg.reserve_bases:
                    for size in range(1, cfg.csm_max_size + 1):
                        out.append((f"reserve(r{rid},{sid},{base:#x},{size})",
                                    actor, "rsi_csm_reserve",
                                    {"sharing": list(sid), "base": base,
                                     "size": size}))
        if "csm_attach" in want:
            for e in c_entries:
                out.append((f"attach(r{rid},{e.sharing_id})", actor,
                            "rsi_csm_attach", {"sharing": list(e.sharing_id)}))
        if "csm_revoke" in want:
            for e in p_entries:
                for record in e.shares:
                    out.append((f"revoke(r{rid},{record.sharing_id})", actor,
                                "rsi_csm_revoke",
                                {"sharing": list(record.sharing_id)}))
        if "csm_destroy" in want:
            for e in p_entries:
                out.append((f"destroy(r{rid},csm{e.csm_id})", actor,
                            "rsi_csm_destroy", {"csm": e.csm_id}))
        if "csm_detach" in want:
            for e in c_entries:
                out.append((f"detach(r{rid},{e.sharing_id})", actor,
                            "rsi_csm_detach_and_free",
                            {"sharing": list(e.sharing_id)}))
    if "host_data" in want:
        out += _host_data_commands(world, cfg, live)
    return out


def _reservable_sids(world: World, rid: int, live: list) -> list:
    """Sharing ids realm rid could reserve for: ones already granted to it,
    plus the next id it can derive per provider (reserve may precede share)."""
    sids = []
    for peer in live:
        if peer == rid:
            continue
        p_realm = world.realm_by_id(peer)
        if p_realm.apt is None:
            continue
        for e in p_realm.apt.providers:
            for record in e.shares:
                if record.c_id == rid and record.sharing_id not in sids:
                    sids.append(record.sharing_id)
        predicted = (peer, rid, p_realm.apt.share_counters.get(rid, 0))
        if predicted not in sids:
            sids.append(predicted)
    return sids


def _host_data_commands(world: World, cfg: ExplorationConfig, live: list) -> list:
    """Low-level host commands over representative granules: exercises the
    delegation state machine alongside the sharing protocol."""
    out = []
    free = world.granules.lowest_undelegated()
    if free is not None:
        out.append((f"delegate(g{free})", "host", "granule_delegate",
                    {"granule": free}))
    for g in world.granules.grans:
        if g.state is GranuleState.DELEGATED:
            out.append((f"undelegate(g{g.index})", "host", "granule_undelegate",
                        {"granule": g.index}))
            for rid in live:
                rd = world.registry.live[rid]
                for base in cfg.create_bases:
                    out.append((f"map(r{rid},g{g.index},{base:#x})", "host",
                                "rmi_data_create_unknown",
                                {"rd": rd, "granule": g.index, "ipa": base}))
            break  # one representative delegated granule is enough
    for rid in live:
        rd = world.registry.live[rid]
        realm = world.realm_by_id(rid)
        for ipa in sorted(realm.rtt.entries):
            out.append((f"unmap(r{rid},{ipa:#x})", "host", "rmi_data_destroy",
                        {"rd": rd, "ipa": ipa}))
    return out


# -------------------------------------------------------------- state digest

# Clones share their parent's content bytes, so a digest is computed once
# per content object, not once per state. The cache holds at most 1 MiB of
# granule contents.
@functools.lru_cache(maxsize=(1 << 20) // GRANULE_SIZE)
def _content_digest(content: bytes) -> bytes:
    return hashlib.sha256(content).digest()[:8]


def canonical_state(world: World) -> tuple:
    """Structural key for deduplication; granule contents enter only as a
    digest per data granule, logs and event buffers are ignored.

    Enum values are read as ``_value_``, the attribute behind the slower
    ``value`` descriptor. The key's repr is pinned by test, and
    ``perfbench``'s ``monitor-churn`` fingerprint hashes it.
    """
    data = GranuleState.DATA
    grans = tuple([(g.state._value_, g.pas._value_, g.owner,
                    _content_digest(g.content) if g.state is data else None)
                   for g in world.granules.grans])
    realms = []
    for rd in sorted(world.realms):
        r = world.realms[rd]
        apt = None
        if r.apt is not None:
            entries = []
            for e in r.apt.providers:
                shares = tuple((s.sharing_id, s.perm._value_, s.attached)
                               for s in e.shares)
                entries.append(("P", e.csm_id, e.base, e.size, shares))
            for e in r.apt.consumers:
                entries.append(("C", e.sharing_id, e.base, e.size,
                                e.state._value_))
            apt = (tuple(sorted(entries)),
                   tuple(sorted(r.apt.share_counters.items())))
        rtt = (tuple(sorted((ipa, e.pa, e.perm._value_)
                            for ipa, e in r.rtt.entries.items())),
               tuple(sorted(r.rtt.backed.items())))
        pending = None
        if r.rec is not None and r.rec.pending is not None:
            p = r.rec.pending
            pending = (p.op, p.base, p.size, p.csm_id, p.sharing_id)
        realms.append((r.realm_id, r.lifecycle._value_, r.rim, apt, rtt,
                       pending, tuple(r.peer_ids)))
    return (grans, tuple(realms),
            world.registry.next_id, tuple(sorted(world.registry.live.items())),
            tuple(sorted(world.registry.tombstones)), world.next_csm_id)


# ------------------------------------------------------------- access oracle

def access_oracle(world: World) -> dict:
    """Brute-force reachability matrix: (actor, granule) -> none|read|read_write.

    Recomputed from the tag store, translation tables, and policy tables
    using an independent transcription of the access rule; never calls the
    operational check helpers.
    """
    matrix = {}
    for label, _ in _WORLD_ACTORS.items():
        for g in world.granules.grans:
            allowed = _ACCESS_RULE[(label, g.pas.value)]
            matrix[(label, g.index)] = "read_write" if allowed else "none"
    for rid in sorted(world.registry.live):
        realm = world.realm_by_id(rid)
        label = f"realm:{rid}"
        for g in world.granules.grans:
            matrix[(label, g.index)] = "none"
        runnable = (realm.rec is not None and realm.rec.pending is None)
        if not runnable:
            continue
        for ipa, entry in realm.rtt.entries.items():
            if not _ACCESS_RULE[("realm", world.granules[entry.pa].pas.value)]:
                continue
            level = "read_write" if entry.perm.value == "rw" else "read"
            prev = matrix[(label, entry.pa)]
            if prev == "none" or (prev == "read" and level == "read_write"):
                matrix[(label, entry.pa)] = level
    return matrix


def operational_matrix(world: World) -> dict:
    """The same matrix computed through the operational access checks."""
    matrix = {}
    for label, state in _WORLD_ACTORS.items():
        for g in world.granules.grans:
            ok_r = world.physical_access_allowed(state, g.index, "read")
            ok_w = world.physical_access_allowed(state, g.index, "write")
            matrix[(label, g.index)] = {(True, True): "read_write",
                                        (True, False): "read",
                                        (False, False): "none",
                                        (False, True): "write"}[(ok_r, ok_w)]
    for rid in sorted(world.registry.live):
        realm = world.realm_by_id(rid)
        label = f"realm:{rid}"
        for g in world.granules.grans:
            matrix[(label, g.index)] = "none"
        for ipa, entry in realm.rtt.entries.items():
            ok_r = world.realm_access_allowed(rid, ipa, "read")
            ok_w = world.realm_access_allowed(rid, ipa, "write")
            if not ok_r:
                continue
            level = "read_write" if ok_w else "read"
            prev = matrix[(label, entry.pa)]
            if prev == "none" or (prev == "read" and level == "read_write"):
                matrix[(label, entry.pa)] = level
    return matrix


def oracle_mismatches(world: World, granules=None) -> list:
    """Cells where the oracle and the operational checks disagree.

    With one argument this is the reference: both full matrices, compared
    cell by cell. Given ``granules``, the indices a transition touched since
    its parent was found clean, it compares only those granules' cells of
    the normal, secure and root rows, which depend on the granule's tag
    alone, and every realm row in full, and it may return its findings in
    another order than the reference.
    """
    if granules is not None:
        return _touched_mismatches(world, granules)
    oracle = access_oracle(world)
    actual = operational_matrix(world)
    out = []
    for key in oracle:
        if oracle[key] != actual[key]:
            out.append({"actor": key[0], "granule": key[1],
                        "oracle": oracle[key], "operational": actual[key]})
    return out


_LEVELS = {(True, True): "read_write", (True, False): "read",
           (False, False): "none", (False, True): "write"}


def _touched_mismatches(world: World, granules) -> list:
    out = []

    def compare(actor, index, want, got):
        if want != got:
            out.append({"actor": actor, "granule": index,
                        "oracle": want, "operational": got})

    for label, state in _WORLD_ACTORS.items():
        for index in granules:
            allowed = _ACCESS_RULE[(label, world.granules[index].pas._value_)]
            compare(label, index, "read_write" if allowed else "none",
                    _LEVELS[(world.physical_access_allowed(state, index, "read"),
                             world.physical_access_allowed(state, index, "write"))])
    # A realm row lists the granules the realm reaches; every other cell of
    # it is "none" on both sides.
    for rid in sorted(world.registry.live):
        realm = world.realm_by_id(rid)
        runnable = realm.rec is not None and realm.rec.pending is None
        want, got = {}, {}
        for ipa, entry in realm.rtt.entries.items():
            pa = entry.pa
            if runnable and \
                    _ACCESS_RULE[("realm", world.granules[pa].pas._value_)]:
                _widen(want, pa, entry.perm._value_ == "rw")
            if world.realm_access_allowed(rid, ipa, "read"):
                _widen(got, pa, world.realm_access_allowed(rid, ipa, "write"))
        for pa in want.keys() | got.keys():
            compare(f"realm:{rid}", pa, want.get(pa, "none"),
                    got.get(pa, "none"))
    return out


def _widen(row: dict, pa: int, write: bool) -> None:
    """Raise a row's level for ``pa`` to what one more mapping grants."""
    if write:
        row[pa] = "read_write"
    else:
        row.setdefault(pa, "read")


# ---------------------------------------------------------------- main loop

def explore(cfg: ExplorationConfig) -> ExplorationReport:
    t0 = time.perf_counter()
    report = ExplorationReport()
    init = build_initial_world(cfg)
    # Entries are (world, path, whether its oracle check found nothing).
    frontier = [(init, [], _check_state(init, [], report, None))]
    visited = {canonical_state(init)}
    del init
    for depth in range(1, cfg.depth + 1):
        keep = depth < cfg.depth
        nxt, found = [], False
        for i, (world, path, clean) in enumerate(frontier):
            frontier[i] = None  # so the world is freed once expanded
            for label, actor, op, args in enabled_commands(world, cfg):
                clone = world.clone()
                execute_step(clone, Host(HostPolicy.COOPERATIVE), actor, op,
                             args, env={})
                report.transitions += 1
                key = canonical_state(clone)
                if key in visited:
                    continue
                visited.add(key)
                found = True
                seq = path + [label]
                # The parent's check emptied the touch log, so it names what
                # this command touched (or more, which is safe).
                touched = sorted(clone.granules.touched) if clean else None
                child_clean = _check_state(clone, seq, report, touched)
                if keep:
                    nxt.append((clone, seq, child_clean))
                if len(visited) >= cfg.state_cap:
                    report.budget_exceeded = True
                    break
            if report.budget_exceeded:
                break
        frontier = nxt
        if found:
            report.depth_reached = depth
        if report.budget_exceeded or not frontier:
            break
    report.states = len(visited)
    report.wall_time_s = time.perf_counter() - t0
    return report


def _check_state(world: World, seq: list, report: ExplorationReport,
                 touched) -> bool:
    """Record the world's violations and oracle mismatches; return whether
    the oracle found none. ``touched`` names the granules changed since a
    clean parent, or is None to run the reference oracle, which also words
    every mismatch the touched-rows pass finds."""
    violations = check_invariants(world)
    if violations:
        report.violations.append({"sequence": seq, "violations": violations})
    mismatches = oracle_mismatches(world, touched)
    if mismatches and touched is not None:
        mismatches = oracle_mismatches(world)
    if mismatches:
        report.oracle_mismatches.append({"sequence": seq,
                                         "mismatches": mismatches})
    return not mismatches
