"""The incremental invariant checker against its reference, ``check_all``.

``check_invariants`` re-verifies only what the monitor logged as touched
since the last clean check. A clean differential run cannot show a missing
touch site, because both checkers then return ``[]``, so the log itself is
tested: every granule, mapping, sharing and realm entry a command changes
must be in it. The other tests hold the two checkers to the same verdicts,
on every builtin, on generated traffic and on corruptions injected while
the incremental pass is armed, and bound the work a step costs.
"""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_realm, rsi
from csmsim import harness, invariants
from csmsim.csm import (
    ConsumerEntry,
    Permission,
    ProviderEntry,
    ShareRecord,
    WindowState,
)
from csmsim.errors import ParseError
from csmsim.explorer import enabled_commands
from csmsim.granules import GranuleState, PasTag
from csmsim.harness import (
    RunConfig,
    builtin_scenarios,
    execute_step,
    parse_scenario,
    run_scenario,
)
from csmsim.host import Host, HostPolicy
from csmsim.invariants import check_all, check_invariants
from csmsim.rmm import RttEntry, World
from test_clone import CFG, initial_world, rich_world


# ------------------------------------------------------------- touch log

def granule_view(world) -> list:
    return [(g.state, g.pas, g.owner) for g in world.granules.grans]


def mapping_view(world) -> dict:
    """(realm id, ipa) -> (granule, permission) of every mapping."""
    return {(realm.realm_id, ipa): (e.pa, e.perm)
            for realm in world.realms.values()
            for ipa, e in realm.rtt.entries.items()}


def sharing_view(world) -> dict:
    """Per (realm id, sharing id): that realm's records of the id, each
    with its region's id, base and size, and its windows of the id, each
    in table order."""
    out = {}
    for realm in world.realms.values():
        for e in realm.apt.providers:
            for s in e.shares:
                out.setdefault((realm.realm_id, s.sharing_id), ([], []))[0] \
                    .append((e.csm_id, e.base, e.size, s.c_id, s.perm, s.attached))
        for w in realm.apt.consumers:
            out.setdefault((realm.realm_id, w.sharing_id), ([], []))[1] \
                .append((w.base, w.size, w.state))
    return out


def policy_view(world) -> dict:
    """Per realm id: its policy table granule, its region ids and its
    registry entry."""
    out = {realm.realm_id: (realm.apt_granule,
                            [e.csm_id for e in realm.apt.providers])
           for realm in world.realms.values()}
    reg = world.registry
    return {rid: (out.get(rid), reg.live.get(rid), rid in reg.tombstones)
            for rid in out.keys() | reg.live.keys() | reg.tombstones}


def changed(before: dict, after: dict) -> set:
    return {key for key in before.keys() | after.keys()
            if before.get(key) != after.get(key)}


def clear_touch_log(world) -> None:
    world.granules.touched.clear()
    world.touched_maps.clear()
    world.touched_sharings.clear()
    world.touched_realms.clear()


def host_commands(world) -> list:
    """Realm destroy and re-create, beyond the explorer's own commands."""
    out = [("host", "rmi_realm_destroy", {"rd": rd}) for rd in sorted(world.realms)]
    free = [index for index, g in enumerate(world.granules.grans)
            if g.state is GranuleState.DELEGATED]
    if free:
        out.append(("host", "rmi_realm_create", {"rd": free[0]}))
    for rd, realm in sorted(world.realms.items()):
        if realm.apt_granule is None and free:
            out.append(("host", "rmi_apt_create", {"rd": rd, "granule": free[-1]}))
    return out


def ready_world():
    """A sharing one attach away and a realm just created: attach, policy
    table creation and the destroy of a realm that maps nothing are each
    one command from here."""
    world = initial_world()
    coop = Host(HostPolicy.COOPERATIVE)
    csm = rsi(world, coop, 1, "rsi_csm_create", base=0x2000, size=1)
    sid = rsi(world, coop, 1, "rsi_csm_share", csm=csm, c_id=2, perm="ro")
    rsi(world, coop, 2, "rsi_csm_reserve", sharing=sid, base=0x5000, size=1)
    rd = coop.alloc_granule(world)
    world.granule_delegate(rd)
    world.rmi_realm_create(rd)
    return world


def test_host_commands_give_a_new_realm_its_policy_table():
    """The generator below keeps issuing ``rmi_apt_create``: once a granule
    is delegated, the realm ``ready_world`` created is offered its table."""
    world = ready_world()
    rd = world.registry.live[max(world.registry.live)]
    free = world.granules.lowest_undelegated()
    world.granule_delegate(free)
    assert ("host", "rmi_apt_create", {"rd": rd, "granule": free}) \
        in host_commands(world)


@pytest.mark.parametrize("make_world", [initial_world, rich_world, ready_world])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_touch_log_names_everything_a_command_changes(make_world, data):
    world = make_world()
    clear_touch_log(world)
    for _ in range(data.draw(st.integers(1, 10), label="steps")):
        commands = [c[1:] for c in enabled_commands(world, CFG)]
        commands += host_commands(world)
        if not commands:
            break
        actor, op, args = data.draw(st.sampled_from(commands), label="command")
        grans, maps = granule_view(world), mapping_view(world)
        sharings, policy = sharing_view(world), policy_view(world)
        execute_step(world, Host(HostPolicy.COOPERATIVE), actor, op, args)
        assert {i for i, (a, b) in enumerate(zip(grans, granule_view(world)))
                if a != b} <= world.granules.touched, (op, args)
        assert changed(maps, mapping_view(world)) <= world.touched_maps, (op, args)
        assert changed(sharings, sharing_view(world)) <= world.touched_sharings, \
            (op, args)
        assert changed(policy, policy_view(world)) <= world.touched_realms, \
            (op, args)
        # The premise of the shared zeroed granule values.
        free = (GranuleState.UNDELEGATED, GranuleState.DELEGATED)
        assert all(g.owner == 0 for g in world.granules.grans
                   if g.state in free), (op, args)
        clear_touch_log(world)


def test_a_host_populate_touches_one_mapping_and_no_realm(world, coop):
    world.granule_delegate(0)
    rid = world.rmi_realm_create(0)
    world.granule_delegate(1)
    world.rmi_rtt_create(0, 1, 0)
    world.granule_delegate(2)
    clear_touch_log(world)
    execute_step(world, coop, "host", "rmi_data_create",
                 {"rd": 0, "granule": 2, "ipa": 0x3000, "content": "00"})
    assert world.touched_maps == {(rid, 0x3000)}
    assert world.touched_sharings == world.touched_realms == set()
    assert world.granules.touched == {2}


def test_clone_copies_the_touch_log():
    world = rich_world()
    logs = ("touched_maps", "touched_sharings", "touched_realms")
    assert world.granules.touched and all(getattr(world, log) for log in logs)
    clone = world.clone()
    assert clone.granules.touched == world.granules.touched
    clone.granules.touched.add(-1)
    assert -1 not in world.granules.touched
    for log in logs:
        assert getattr(clone, log) == getattr(world, log)
        getattr(clone, log).add(-1)
        assert -1 not in getattr(world, log)


# ---------------------------------------------------------- differential

@pytest.fixture
def both_checkers(monkeypatch):
    """Run both checkers wherever the harness checks; return their verdicts."""
    verdicts = []

    def checked(world):
        got = check_invariants(world)
        verdicts.append((got, check_all(world)))
        return got

    monkeypatch.setattr(harness, "check_invariants", checked)
    return verdicts


@pytest.mark.parametrize("policy", [None] + [p.value for p in HostPolicy])
@pytest.mark.parametrize("name", sorted(builtin_scenarios()))
def test_builtin_verdicts_match_the_reference(name, policy, both_checkers):
    try:
        trace, _ = run_scenario(builtin_scenarios()[name], RunConfig(policy=policy))
    except ParseError:
        pytest.skip("the probe steps do not fit this policy")
    assert len(both_checkers) == len(trace) - 1
    for got, want in both_checkers:
        assert got == want


@pytest.fixture
def reference_calls(monkeypatch):
    """Count the calls the incremental checker makes to the reference."""
    calls = []

    def counted(world):
        calls.append(world)
        return check_all(world)

    monkeypatch.setattr(invariants, "check_all", counted)
    return calls


def arm(world, calls) -> None:
    """Check until the incremental pass answers without the reference."""
    assert check_invariants(world) == []
    assert check_invariants(world) == []   # builds the indexes
    del calls[:]
    assert check_invariants(world) == []
    assert calls == []


def foreign_mapping(world, coop):
    build_realm(world, 0, image=[(8, 0x0000, b"private")])
    c = build_realm(world, 16)

    def corrupt():
        world.realm_by_id(c).rtt.entries[0x5000] = RttEntry(8, Permission.READ_WRITE)
        world.touched_maps.add((c, 0x5000))
    return corrupt


def single_foreign_mapping(world, coop):
    p = build_realm(world, 0, image=[(8, 0x0000, b"private")])
    c = build_realm(world, 16)

    def corrupt():
        entries = world.realm_by_id(p).rtt.entries
        world.touched_maps.update((p, ipa) for ipa in entries)
        entries.clear()
        world.realm_by_id(c).rtt.entries[0x5000] = RttEntry(8, Permission.READ_ONLY)
        world.touched_maps.add((c, 0x5000))
    return corrupt


def attached_sharing(world, coop, perm):
    p = build_realm(world, 0)
    c = build_realm(world, 8)
    csm = rsi(world, coop, p, "rsi_csm_create", base=0x2000, size=2)
    sid = rsi(world, coop, p, "rsi_csm_share", csm=csm, c_id=c, perm=perm)
    rsi(world, coop, c, "rsi_csm_reserve", sharing=sid, base=0x5000, size=2)
    rsi(world, coop, c, "rsi_csm_attach", sharing=sid)
    return p, c, sid


def view_divergence(world, coop):
    _, c, _ = attached_sharing(world, coop, "rw")

    def corrupt():
        entries = world.realm_by_id(c).rtt.entries
        entries[0x5000] = RttEntry(entries[0x6000].pa, entries[0x5000].perm)
        world.touched_maps.add((c, 0x5000))
    return corrupt


def window_permission(world, coop):
    """Only I2 sees it: consent does not depend on the permission."""
    _, c, _ = attached_sharing(world, coop, "ro")

    def corrupt():
        entries = world.realm_by_id(c).rtt.entries
        entries[0x5000] = entries[0x5000]._replace(perm=Permission.READ_WRITE)
        world.touched_maps.add((c, 0x5000))
    return corrupt


def share_permission(world, coop):
    p, _, sid = attached_sharing(world, coop, "ro")

    def corrupt():
        world.realm_by_id(p).apt.providers[0].shares[0].perm = Permission.READ_WRITE
        world.touched_sharings.add((p, sid))
    return corrupt


# Each of the next seven edits a policy table alone and leaves the consumer's
# mappings in place, so the pass must find them from the sharing touch.

def record_dropped(world, coop):
    p, _, sid = attached_sharing(world, coop, "ro")

    def corrupt():
        world.realm_by_id(p).apt.providers[0].shares.clear()
        world.touched_sharings.add((p, sid))
    return corrupt


def region_dropped(world, coop):
    p, _, sid = attached_sharing(world, coop, "ro")

    def corrupt():
        world.realm_by_id(p).apt.providers.clear()
        world.touched_sharings.add((p, sid))
        world.touched_realms.add(p)
    return corrupt


def record_detached(world, coop):
    p, _, sid = attached_sharing(world, coop, "ro")

    def corrupt():
        world.realm_by_id(p).apt.providers[0].shares[0].attached = False
        world.touched_sharings.add((p, sid))
    return corrupt


def window_reserved(world, coop):
    _, c, sid = attached_sharing(world, coop, "ro")

    def corrupt():
        world.realm_by_id(c).apt.consumers[0].state = WindowState.RESERVED
        world.touched_sharings.add((c, sid))
    return corrupt


def window_removed(world, coop):
    _, c, sid = attached_sharing(world, coop, "ro")

    def corrupt():
        world.realm_by_id(c).apt.consumers.clear()
        world.touched_sharings.add((c, sid))
    return corrupt


def window_shadowed(world, coop):
    """Only the consent of the first window page fails: a reserved window
    put ahead of the attached one covers it, while I2 still reads the
    attached window by its sharing id."""
    p, c, _ = attached_sharing(world, coop, "ro")

    def corrupt():
        world.realm_by_id(c).apt.consumers.insert(
            0, ConsumerEntry(sharing_id=(p, c, 9), base=0x5000, size=1))
        world.touched_sharings.add((c, (p, c, 9)))
    return corrupt


def window_duplicated(world, coop):
    """Only I2 sees it: a copy of the attached window at another base, put
    first, is what I2 reads by the sharing id, while the mappings stay
    covered by the original."""
    _, c, sid = attached_sharing(world, coop, "ro")

    def corrupt():
        consumers = world.realm_by_id(c).apt.consumers
        w = consumers[0]
        consumers.insert(0, ConsumerEntry(w.sharing_id, 0x8000, w.size, w.state))
        world.touched_sharings.add((c, sid))
    return corrupt


def record_misplaced(world, coop):
    """Only I2 sees it: an attached record held by a realm its sharing id
    does not name as provider, which no consent reads."""
    p, c, _ = attached_sharing(world, coop, "ro")

    def corrupt():
        sid = (c, p, 7)
        world.realm_by_id(p).apt.providers[0].shares.append(ShareRecord(
            sharing_id=sid, c_id=c, perm=Permission.READ_ONLY, attached=True))
        world.touched_sharings.add((p, sid))
    return corrupt


def provider_remap(world, coop):
    """Only I2 sees it: the provider maps a new granule at its region's
    first page, and the consumer keeps the old one, which now counts as its
    own, so its mapping is consented."""
    p, c, _ = attached_sharing(world, coop, "rw")

    def corrupt():
        entries = world.realm_by_id(p).rtt.entries
        old = entries[0x2000].pa
        new = coop.alloc_granule(world)
        world.granule_delegate(new)
        world.granules.retag(new, GranuleState.DATA, p)
        entries[0x2000] = RttEntry(new, Permission.READ_WRITE)
        world.touched_maps.add((p, 0x2000))
        world.granules.grans[old] = world.granules[old]._replace(owner=c)
        world.granules.touched.add(old)
    return corrupt


def remap_behind_a_second_window(world, coop):
    """Only the mappings of the old granule see it: the provider and the
    consumer's first window move to a new granule together, so I2 holds,
    while a second window of the same sharing keeps the old one."""
    p, c, _ = attached_sharing(world, coop, "rw")
    c_realm = world.realm_by_id(c)
    first = c_realm.apt.consumers[0]
    c_realm.apt.consumers.append(ConsumerEntry(
        first.sharing_id, 0x8000, first.size, WindowState.ATTACHED))
    for k in range(first.size):
        entry = c_realm.rtt.entries[first.base + k * 0x1000]
        c_realm.rtt.entries[0x8000 + k * 0x1000] = RttEntry(entry.pa, entry.perm)

    def corrupt():
        new = coop.alloc_granule(world)
        world.granule_delegate(new)
        world.granules.retag(new, GranuleState.DATA, p)
        p_entries = world.realm_by_id(p).rtt.entries
        p_entries[0x2000] = p_entries[0x2000]._replace(pa=new)
        c_realm.rtt.entries[0x5000] = c_realm.rtt.entries[0x5000]._replace(pa=new)
        world.touched_maps.update(((p, 0x2000), (c, 0x5000)))
    return corrupt


def released_while_mapped(world, coop):
    """Only the granule is touched; the realm that maps it is not."""
    build_realm(world, 0, image=[(8, 0x0000, b"x")])

    def corrupt():
        world.granules.grans[8] = world.granules[8]._replace(
            state=GranuleState.DELEGATED, owner=0)
        world.granules.touched.add(8)
    return corrupt


def missing_flush(world, coop):
    rid = build_realm(world, 0, image=[(8, 0x0000, b"x")])

    def corrupt():
        del world.realm_by_id(rid).rtt.entries[0x0000]
        world.history.invalidations.append((rid, 0x0000))
        world.touched_maps.add((rid, 0x0000))
    return corrupt


def illegal_access(world, coop):
    build_realm(world, 0)

    def corrupt():
        world.history.accesses.append(("normal", "realm", "read", True))
    return corrupt


def wrong_backing(world, coop):
    rid = build_realm(world, 0)

    def corrupt():
        world.realm_by_id(rid).rtt.entries[0x7000] = RttEntry(30, Permission.READ_WRITE)
        world.touched_maps.add((rid, 0x7000))
    return corrupt


def wrong_tag(world, coop):
    build_realm(world, 0)

    def corrupt():
        world.granules.grans[30] = world.granules[30]._replace(pas=PasTag.REALM)
        world.granules.touched.add(30)
    return corrupt


def duplicate_region_id(world, coop):
    p = build_realm(world, 0)
    rsi(world, coop, p, "rsi_csm_create", base=0x2000, size=1)

    def corrupt():
        world.realm_by_id(p).apt.providers.append(
            ProviderEntry(csm_id=1, base=0x8000, size=1))
        world.touched_realms.add(p)
    return corrupt


def registry_inconsistency(world, coop):
    rid = build_realm(world, 0)

    def corrupt():
        world.registry.live[rid] = 44
        world.touched_realms.add(rid)
    return corrupt


def zombie_descriptor(world, coop):
    """A retired id whose descriptor stays behind, still mapping its pages."""
    rid = build_realm(world, 0, image=[(8, 0x0000, b"x")])

    def corrupt():
        world.registry.retire(rid)
        world.touched_realms.add(rid)
    return corrupt


def descriptor_duplicated(world, coop):
    """A live realm's descriptor also held at a granule the registry does
    not name for it."""
    rid = build_realm(world, 0)

    def corrupt():
        world.realms[30] = world.realm_by_id(rid)
        world.touched_realms.add(rid)
    return corrupt


def descriptor_overwritten(world, coop):
    """A realm's descriptor granule made to hold another live realm's
    descriptor: the overwritten realm's entry changed, so the log names it."""
    rid = build_realm(world, 0)
    other = build_realm(world, 8)

    def corrupt():
        world.realms[8] = world.realm_by_id(rid)
        world.touched_realms.add(other)
    return corrupt


def region_id_taken(world, coop):
    """A realm gains a region id that another, untouched realm holds."""
    p = build_realm(world, 0)
    q = build_realm(world, 8)
    csm = rsi(world, coop, p, "rsi_csm_create", base=0x2000, size=1)
    rsi(world, coop, q, "rsi_csm_create", base=0x2000, size=1)

    def corrupt():
        world.realm_by_id(q).apt.providers.append(
            ProviderEntry(csm_id=csm, base=0x8000, size=1))
        world.touched_realms.add(q)
    return corrupt


CORRUPTIONS = [
    foreign_mapping, single_foreign_mapping, view_divergence, window_permission,
    share_permission, record_dropped, region_dropped, record_detached,
    window_reserved, window_removed, window_shadowed, window_duplicated,
    record_misplaced, provider_remap, remap_behind_a_second_window,
    released_while_mapped, missing_flush, illegal_access, wrong_backing,
    wrong_tag, duplicate_region_id, region_id_taken, registry_inconsistency,
    zombie_descriptor, descriptor_duplicated, descriptor_overwritten]


@pytest.mark.parametrize("setup", CORRUPTIONS, ids=lambda f: f.__name__)
def test_incremental_pass_catches_touched_corruption(setup, world, coop,
                                                      reference_calls):
    corrupt = setup(world, coop)
    arm(world, reference_calls)
    corrupt()
    got = check_invariants(world)
    assert len(reference_calls) == 1   # the pass found it and asked the reference
    assert got == check_all(world) != []


@pytest.mark.parametrize("setup", CORRUPTIONS, ids=lambda f: f.__name__)
def test_incremental_pass_catches_corruption_under_a_wider_log(
        setup, world, coop, reference_calls):
    """A log may name more realms and sharings than changed; the pass must
    then find the same."""
    corrupt = setup(world, coop)
    arm(world, reference_calls)
    sids = {sid for _, sid in sharing_view(world)}
    corrupt()
    sids |= {sid for _, sid in sharing_view(world)}
    rids = [r.realm_id for r in world.realms.values()]
    world.touched_realms.update(rids)
    world.touched_sharings.update((rid, sid) for rid in rids for sid in sids)
    got = check_invariants(world)
    assert len(reference_calls) == 1
    assert got == check_all(world) != []


def test_reference_runs_for_a_mutant_and_a_shorter_history(world, coop,
                                                          reference_calls):
    build_realm(world, 0, image=[(8, 0x0000, b"x")])
    world.history.accesses.append(("root", "normal", "read", True))
    arm(world, reference_calls)
    world.disabled_checks.add("attach_size_equality")
    check_invariants(world)
    assert len(reference_calls) == 1
    world.disabled_checks.clear()
    arm(world, reference_calls)
    world.history.accesses.clear()
    check_invariants(world)
    assert len(reference_calls) == 1


def refuse(*args):
    raise AssertionError("a check with nothing to check did work")


def test_a_step_that_touches_nothing_is_not_checked(world, coop, reference_calls,
                                                    monkeypatch):
    build_realm(world, 0, image=[(8, 0x0000, b"x")])
    arm(world, reference_calls)
    monkeypatch.setattr(invariants, "_clean_since", refuse)
    monkeypatch.setattr(invariants, "check_all", refuse)
    execute_step(world, coop, "host", "rmi_rtt_read_entry", {"rd": 0, "ipa": 0})
    assert not world.granules.touched and not world.touched_maps
    assert not world.touched_sharings and not world.touched_realms
    assert check_invariants(world) == []
    assert invariants._baseline.world() is world


def test_a_step_that_only_adds_history_rows_is_checked(world, coop,
                                                       reference_calls,
                                                       monkeypatch):
    rid = build_realm(world, 0, image=[(8, 0x0000, b"x")])
    arm(world, reference_calls)
    clean_since, passes = invariants._clean_since, []

    def counted(*args):
        passes.append(args)
        return clean_since(*args)

    monkeypatch.setattr(invariants, "_clean_since", counted)
    execute_step(world, coop, f"realm:{rid}", "realm_access",
                 {"ipa": 0, "kind": "read", "length": 1})
    assert not world.granules.touched and not world.touched_maps
    assert not world.touched_sharings and not world.touched_realms
    assert check_invariants(world) == []
    assert len(passes) == 1 and reference_calls == []


def rule_calls(world, monkeypatch, step) -> Counter:
    """The rule and reference calls of the check after ``step()``."""
    calls = Counter()
    for name in ("_check_mapping", "_check_sharing", "_check_ids", "check_all"):
        rule = getattr(invariants, name)

        def counted(*args, rule=rule, name=name):
            calls[name] += 1
            return rule(*args)
        monkeypatch.setattr(invariants, name, counted)
    step()
    assert check_invariants(world) == []
    monkeypatch.undo()
    return calls


def provider_with(sharings: int, pages: int = 0):
    """A provider with ``pages`` image pages and ``sharings`` one-page
    regions, each attached by one consumer, and the indexes built."""
    world = World(granule_count=1024, seed=0)
    coop = Host(HostPolicy.COOPERATIVE)
    p = build_realm(world, 0, width=24,
                    image=[(8 + k, k * 0x1000, b"x") for k in range(pages)])
    c = build_realm(world, 300, width=24)
    for k in range(sharings):
        csm = rsi(world, coop, p, "rsi_csm_create", base=0x100000 + k * 0x1000,
                  size=1)
        sid = rsi(world, coop, p, "rsi_csm_share", csm=csm, c_id=c, perm="ro")
        rsi(world, coop, c, "rsi_csm_reserve", sharing=sid,
            base=0x10000 + k * 0x1000, size=1)
        rsi(world, coop, c, "rsi_csm_attach", sharing=sid)
    assert check_invariants(world) == []
    assert check_invariants(world) == []   # builds the indexes
    return world, coop, p, c


def populate_work(pages: int, sharings: int, monkeypatch) -> Counter:
    """The rule calls of the check after one host populate into a realm
    that holds ``pages`` image pages and provides ``sharings`` attached
    one-page regions."""
    world, coop, _, _ = provider_with(sharings, pages)
    granule = coop.alloc_granule(world)

    def populate():
        execute_step(world, coop, "host", "granule_delegate", {"granule": granule})
        execute_step(world, coop, "host", "rmi_data_create_unknown",
                     {"rd": 0, "granule": granule, "ipa": 0x180000})
    return rule_calls(world, monkeypatch, populate)


def test_a_populate_checks_the_same_work_whatever_the_realm_holds(monkeypatch):
    """One new private page: the pass visits that mapping, whatever else
    the realm maps or shares."""
    counts = [populate_work(pages, sharings, monkeypatch)
              for pages in (4, 256) for sharings in (1, 8)]
    assert counts[0] == Counter({"_check_mapping": 1})
    assert all(c == counts[0] for c in counts), counts


def policy_edit_work(sharings: int, monkeypatch) -> list:
    """The rule calls of the check after each of a share, a reserve, an
    attach and a detach of a new one-page region at a provider that
    already holds ``sharings`` attached sharings."""
    world, coop, p, c = provider_with(sharings)
    csm = rsi(world, coop, p, "rsi_csm_create", base=0x180000, size=1)
    assert check_invariants(world) == []
    sid = [p, c, sharings]   # the next counter of the pair
    steps = [(p, "rsi_csm_share", {"csm": csm, "c_id": c, "perm": "ro"}),
             (c, "rsi_csm_reserve", {"sharing": sid, "base": 0x80000, "size": 1}),
             (c, "rsi_csm_attach", {"sharing": sid}),
             (c, "rsi_csm_detach_and_free", {"sharing": sid})]
    return [rule_calls(world, monkeypatch,
                       lambda: rsi(world, coop, realm, op, **args))
            for realm, op, args in steps]


def test_a_policy_edit_checks_the_same_work_whatever_the_provider_shares(
        monkeypatch):
    """A share or reserve vouches for no mapping yet; an attach adds the
    window's page and its provider page, and one sharing for I2; a detach
    leaves the provider page to check."""
    counts = [policy_edit_work(sharings, monkeypatch) for sharings in (1, 8)]
    assert counts[0] == [Counter(), Counter(),
                         Counter({"_check_mapping": 2, "_check_sharing": 1}),
                         Counter({"_check_mapping": 1})]
    assert counts[1] == counts[0]


def region_work(others: int, monkeypatch) -> tuple:
    """For two region creates and the destroy of the first by a realm
    beside ``others`` providers: the rule calls of the check after each,
    and the realm ids and region ids that its I7 calls visit."""
    world = World(granule_count=256, seed=0)
    coop = Host(HostPolicy.COOPERATIVE)
    p, *rest = [build_realm(world, 4 * k) for k in range(others + 1)]
    for q in rest:
        rsi(world, coop, q, "rsi_csm_create", base=0x2000, size=1)
    assert check_invariants(world) == []
    assert check_invariants(world) == []   # builds the indexes
    csm = world.next_csm_id
    steps = [("rsi_csm_create", {"base": 0x2000, "size": 1}),
             ("rsi_csm_create", {"base": 0x3000, "size": 1}),
             ("rsi_csm_destroy", {"csm": csm})]
    work = []
    for op, args in steps:
        visited, check_ids = [], invariants._check_ids

        def spy(out, world, rids, realms, *rest):
            realms = list(realms)
            visited.append((sorted(rids), [e.csm_id for r in realms if r
                                            for e in r.apt.providers]))
            return check_ids(out, world, rids, realms, *rest)
        monkeypatch.setattr(invariants, "_check_ids", spy)
        calls = rule_calls(world, monkeypatch,
                           lambda: rsi(world, coop, p, op, **args))
        work.append((calls, visited))
    return work, p, csm


@pytest.mark.parametrize("others", [1, 16])
def test_a_region_create_or_destroy_checks_only_the_callers_ids(others,
                                                                monkeypatch):
    """I7 visits the caller's realm id and its region ids, whatever the
    other realms provide, and the reference does not run: the second
    create finds the first region in the index."""
    work, p, csm = region_work(others, monkeypatch)
    create = Counter({"_check_ids": 1, "_check_mapping": 1})
    assert work == [(create, [([p], [csm])]), (create, [([p], [csm, csm + 1])]),
                    (Counter({"_check_ids": 1}), [([p], [csm + 1])])]


def load_generator():
    """``perfbench``'s seeded traffic generator, loaded from its file under
    the name ``perfbench``'s own tests import it by."""
    if "scenario_gen" not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "scenario_gen.py"
        spec = importlib.util.spec_from_file_location("scenario_gen", path)
        sys.modules["scenario_gen"] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules["scenario_gen"]


@pytest.mark.parametrize("seed", range(1, 6))
def test_generated_traffic_verdicts_match_the_reference(seed, both_checkers):
    """The control-plane churn of the ``monitor-churn`` benchmark, small."""
    doc, _ = load_generator().generate(seed, 400, granules=512, realms=8)
    scenario = parse_scenario(doc, name=doc["name"])
    trace, code = run_scenario(scenario)
    assert code == 0
    assert len(both_checkers) == len(scenario.steps) == len(trace) - 1
    for got, want in both_checkers:
        assert got == want == []


@pytest.mark.parametrize("invalidations, flushes", [
    ([], []),
    ([(1, 0x0000), (2, 0x1000)], [(1, 0x0000), (2, 0x1000)]),
    ([(1, 0x0000), (2, 0x1000)], [(2, 0x1000), (1, 0x0000)]),
    ([(1, 0x0000), (1, 0x0000)], [(1, 0x0000), (2, 0x1000)]),
    ([(1, 0x0000)], [(2, 0x1000)]),
], ids=["empty", "equal", "reordered", "unbalanced", "mismatched"])
def test_flush_pairing_is_a_multiset_comparison(invalidations, flushes):
    out = []
    invariants._check_flushes(out, invalidations, flushes)
    assert bool(out) == (Counter(invalidations) != Counter(flushes))


# ------------------------------------------------------------ final audit

def test_final_audit_overrides_a_missed_violation(monkeypatch):
    missed = [{"invariant": "I6", "detail": "missed by the fast path"}]
    monkeypatch.setattr(harness, "check_all", lambda world: missed)
    trace, code = run_scenario(builtin_scenarios()["happy_path"])
    assert code == 1
    assert trace[-1]["invariants"] == missed
    assert all(e["invariants"] == [] for e in trace[1:-1])
