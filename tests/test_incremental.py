"""The incremental invariant checker against its reference, ``check_all``.

``check_invariants`` re-verifies only what the monitor logged as touched
since the last clean check. A clean differential run cannot show a missing
touch site, because both checkers then return ``[]``, so the log itself is
tested: every granule and realm a command changes must be in it. The other
tests hold the two checkers to the same verdicts, on every builtin and on
corruptions injected while the incremental pass is armed.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_realm, rsi
from csmsim import harness, invariants
from csmsim.csm import Permission, ProviderEntry
from csmsim.errors import ParseError
from csmsim.explorer import enabled_commands
from csmsim.granules import GranuleState, PasTag
from csmsim.harness import RunConfig, builtin_scenarios, execute_step, run_scenario
from csmsim.host import Host, HostPolicy
from csmsim.invariants import check_all, check_invariants
from csmsim.rmm import RttEntry
from test_clone import CFG, initial_world, rich_world


# ------------------------------------------------------------- touch log

def granule_view(world) -> list:
    return [(g.state, g.pas, g.owner) for g in world.granules.grans]


def realm_view(world) -> dict:
    """Per realm id: what the checker reads of its tables and records."""
    out = {}
    for realm in world.realms.values():
        apt = None
        if realm.apt is not None:
            apt = ([(e.csm_id, e.base, e.size,
                     [(s.sharing_id, s.c_id, s.perm, s.attached) for s in e.shares])
                    for e in realm.apt.providers],
                   [(e.sharing_id, e.base, e.size, e.state)
                    for e in realm.apt.consumers])
        rtt = {ipa: (e.pa, e.perm) for ipa, e in realm.rtt.entries.items()}
        out[realm.realm_id] = (rtt, apt)
    return out


def host_commands(world) -> list:
    """Realm destroy and re-create, beyond the explorer's own commands."""
    out = [("host", "rmi_realm_destroy", {"rd": rd}) for rd in sorted(world.realms)]
    free = [g.index for g in world.granules.grans
            if g.state is GranuleState.DELEGATED]
    if free:
        out.append(("host", "rmi_realm_create", {"rd": free[0]}))
    for rd, realm in sorted(world.realms.items()):
        if realm.apt is None and free:
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


@pytest.mark.parametrize("make_world", [initial_world, rich_world, ready_world])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_touch_log_names_everything_a_command_changes(make_world, data):
    world = make_world()
    world.granules.touched, world.touched_realms = set(), set()
    for _ in range(data.draw(st.integers(1, 10), label="steps")):
        commands = [c[1:] for c in enabled_commands(world, CFG)]
        commands += host_commands(world)
        if not commands:
            break
        actor, op, args = data.draw(st.sampled_from(commands), label="command")
        grans, realms = granule_view(world), realm_view(world)
        execute_step(world, Host(HostPolicy.COOPERATIVE), actor, op, args)
        changed = {i for i, (a, b) in enumerate(zip(grans, granule_view(world)))
                   if a != b}
        assert changed <= world.granules.touched, (op, args)
        after = realm_view(world)
        changed = {rid for rid in realms.keys() | after.keys()
                   if realms.get(rid) != after.get(rid)}
        assert changed <= world.touched_realms, (op, args)
        world.granules.touched, world.touched_realms = set(), set()


def test_clone_copies_the_touch_log():
    world = rich_world()
    assert world.granules.touched and world.touched_realms
    clone = world.clone()
    assert clone.granules.touched == world.granules.touched
    assert clone.touched_realms == world.touched_realms
    clone.granules.touched.add(-1)
    clone.touched_realms.add(-1)
    assert -1 not in world.granules.touched | world.touched_realms


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
        world.touched_realms.add(c)
    return corrupt


def single_foreign_mapping(world, coop):
    p = build_realm(world, 0, image=[(8, 0x0000, b"private")])
    c = build_realm(world, 16)

    def corrupt():
        world.realm_by_id(p).rtt.entries.clear()
        world.realm_by_id(c).rtt.entries[0x5000] = RttEntry(8, Permission.READ_ONLY)
        world.touched_realms.update((p, c))
    return corrupt


def attached_sharing(world, coop, perm):
    p = build_realm(world, 0)
    c = build_realm(world, 8)
    csm = rsi(world, coop, p, "rsi_csm_create", base=0x2000, size=2)
    sid = rsi(world, coop, p, "rsi_csm_share", csm=csm, c_id=c, perm=perm)
    rsi(world, coop, c, "rsi_csm_reserve", sharing=sid, base=0x5000, size=2)
    rsi(world, coop, c, "rsi_csm_attach", sharing=sid)
    return p, c


def view_divergence(world, coop):
    _, c = attached_sharing(world, coop, "rw")

    def corrupt():
        entries = world.realm_by_id(c).rtt.entries
        entries[0x5000] = RttEntry(entries[0x6000].pa, entries[0x5000].perm)
        world.touched_realms.add(c)
    return corrupt


def window_permission(world, coop):
    """Only I2 sees it: consent does not depend on the permission."""
    _, c = attached_sharing(world, coop, "ro")

    def corrupt():
        world.realm_by_id(c).rtt.entries[0x5000].perm = Permission.READ_WRITE
        world.touched_realms.add(c)
    return corrupt


def share_permission(world, coop):
    p, _ = attached_sharing(world, coop, "ro")

    def corrupt():
        world.realm_by_id(p).apt.providers[0].shares[0].perm = Permission.READ_WRITE
        world.touched_realms.add(p)
    return corrupt


def released_while_mapped(world, coop):
    """Only the granule is touched; the realm that maps it is not."""
    build_realm(world, 0, image=[(8, 0x0000, b"x")])

    def corrupt():
        world.granules[8].state = GranuleState.DELEGATED
        world.granules[8].owner = 0
        world.granules.touched.add(8)
    return corrupt


def missing_flush(world, coop):
    rid = build_realm(world, 0, image=[(8, 0x0000, b"x")])

    def corrupt():
        del world.realm_by_id(rid).rtt.entries[0x0000]
        world.history.invalidations.append((rid, 0x0000))
        world.touched_realms.add(rid)
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
        world.touched_realms.add(rid)
    return corrupt


def wrong_tag(world, coop):
    build_realm(world, 0)

    def corrupt():
        world.granules[30].pas = PasTag.REALM
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


@pytest.mark.parametrize("setup", [
    foreign_mapping, single_foreign_mapping, view_divergence, window_permission,
    share_permission, released_while_mapped, missing_flush, illegal_access,
    wrong_backing, wrong_tag, duplicate_region_id, registry_inconsistency],
    ids=lambda f: f.__name__)
def test_incremental_pass_catches_touched_corruption(setup, world, coop,
                                                      reference_calls):
    corrupt = setup(world, coop)
    arm(world, reference_calls)
    corrupt()
    got = check_invariants(world)
    assert len(reference_calls) == 1   # the pass found it and asked the reference
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


# ------------------------------------------------------------ final audit

def test_final_audit_overrides_a_missed_violation(monkeypatch):
    missed = [{"invariant": "I6", "detail": "missed by the fast path"}]
    monkeypatch.setattr(harness, "check_all", lambda world: missed)
    trace, code = run_scenario(builtin_scenarios()["happy_path"])
    assert code == 1
    assert trace[-1]["invariants"] == missed
    assert all(e["invariants"] == [] for e in trace[1:-1])
