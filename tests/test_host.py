import pytest

from conftest import build_realm, rsi
from csmsim.errors import BadState
from csmsim.granules import GRANULE_SIZE, GranuleState, PasTag
from csmsim.harness import execute_step
from csmsim.host import Host, HostPolicy
from csmsim.invariants import check_invariants
from csmsim.rmm import World


def rmi_calls(events, op):
    return [e for e in events if e.get("event") == "rmi" and e["op"] == op]


def test_populate_skips_prepopulated_granules(world, coop):
    p = build_realm(world, 0, image=[(8, 0x2000, b"already here")])
    _, result, events = execute_step(world, coop, f"realm:{p}",
                                     "rsi_csm_create", {"base": 0x2000, "size": 4})
    assert result == 1
    # One of four pages existed: exactly 3 delegations and 3 maps.
    assert len(rmi_calls(events, "granule_delegate")) == 3
    assert len(rmi_calls(events, "rmi_data_create_unknown")) == 3
    for k in range(4):
        assert world.rmi_rtt_read_entry(0, 0x2000 + k * GRANULE_SIZE)[
            "state"] == "assigned"


def test_populate_fresh_single_granule(world, coop):
    p = build_realm(world, 0)
    _, result, events = execute_step(world, coop, f"realm:{p}",
                                     "rsi_csm_create", {"base": 0x2000, "size": 1})
    assert result == 1
    assert len(rmi_calls(events, "granule_delegate")) == 1
    assert len(rmi_calls(events, "rmi_data_create_unknown")) == 1


def test_reclaim_only_resident_granules(world, coop):
    p = build_realm(world, 0)
    c = build_realm(world, 8)
    # Two of the three window pages hold consumer data.
    for i, ipa in enumerate((0x5000, 0x6000)):
        world.granule_delegate(16 + i)
        world.rmi_data_create_unknown(8, 16 + i, ipa)
    csm = rsi(world, coop, p, "rsi_csm_create", base=0x2000, size=3)
    sid = rsi(world, coop, p, "rsi_csm_share", csm=csm, c_id=c, perm="rw")
    _, result, events = execute_step(
        world, coop, f"realm:{c}", "rsi_csm_reserve",
        {"sharing": list(sid), "base": 0x5000, "size": 3})
    assert result == {"reserved": True}
    assert len(rmi_calls(events, "rmi_data_destroy")) == 2
    assert len(rmi_calls(events, "granule_undelegate")) == 2
    # Reclaimed granules are zero-filled normal-world memory again.
    for idx in (16, 17):
        g = world.granules[idx]
        assert g.state is GranuleState.UNDELEGATED
        assert g.pas is PasTag.NORMAL
        assert g.content == bytes(GRANULE_SIZE)


def test_reclaim_empty_window_issues_no_reclaims(world, coop):
    p = build_realm(world, 0)
    c = build_realm(world, 8)
    csm = rsi(world, coop, p, "rsi_csm_create", base=0x2000, size=2)
    sid = rsi(world, coop, p, "rsi_csm_share", csm=csm, c_id=c, perm="rw")
    _, result, events = execute_step(
        world, coop, f"realm:{c}", "rsi_csm_reserve",
        {"sharing": list(sid), "base": 0x5000, "size": 2})
    assert result == {"reserved": True}
    assert rmi_calls(events, "rmi_data_destroy") == []
    assert rmi_calls(events, "granule_undelegate") == []


def test_starving_host_leaves_call_pending(world):
    starve = Host(HostPolicy.STARVE)
    p = build_realm(world, 0)
    _, result, events = execute_step(world, starve, f"realm:{p}",
                                     "rsi_csm_create", {"base": 0x2000, "size": 1})
    assert result == "pending"
    assert world.realm_by_id(p).rec.pending is not None
    # Re-entry without the granule work just re-emits the exit.
    assert world.rec_enter(0) == "pending"
    exits = [e for e in world.take_events() if e.get("event") == "exit"]
    assert exits and exits[-1]["kind"] == "p_realm_csm"
    assert check_invariants(world) == []


def test_wrong_granule_host_cannot_complete_call(world):
    wrong = Host(HostPolicy.WRONG_GRANULE)
    p = build_realm(world, 0)
    _, result, _ = execute_step(world, wrong, f"realm:{p}",
                                "rsi_csm_create", {"base": 0x2000, "size": 1})
    # The host populated the wrong range; revalidation refuses to complete.
    assert result == "pending"
    assert world.rmi_rtt_read_entry(0, 0x2000) == {"state": "unassigned"}
    assert world.rmi_rtt_read_entry(0, 0x3000)["state"] == "assigned"
    assert check_invariants(world) == []


def test_pool_exhaustion_is_host_failure_not_fault(coop):
    world = World(granule_count=6, seed=0)
    p = build_realm(world, 0)  # granules 0..3; 2 left
    _, result, events = execute_step(world, coop, f"realm:{p}",
                                     "rsi_csm_create", {"base": 0x2000, "size": 4})
    assert result == "pending"
    failures = [e for e in events if e.get("event") == "host_failure"]
    assert failures and failures[0]["error"] == "OutOfGranules"
    assert check_invariants(world) == []


def test_prober_reads_nothing_from_realm_world(world, coop):
    build_realm(world, 0, image=[(8, 0x0000, b"secret")])
    prober = Host(HostPolicy.PROBER)
    outcome = prober.adversarial_step(world)
    assert outcome["probed"] == 64
    assert outcome["realm_pas_reads"] == 0
    assert outcome["faults"] == 5  # rd, apt, rec, rtt, one image granule
    assert check_invariants(world) == []


def test_double_mapper_denied(world):
    host = Host(HostPolicy.DOUBLE_MAPPER)
    build_realm(world, 0)
    build_realm(world, 8)
    world.granule_delegate(16)
    world.rmi_data_create_unknown(0, 16, 0x4000)
    outcome = host.adversarial_step(world, rd=8, ipa=0x4000)
    assert outcome == {"granule": 16, "result": "AlreadyMapped"}
    assert check_invariants(world) == []


def test_toctou_swap_yields_fresh_identifier(world):
    host = Host(HostPolicy.TOCTOU_SWAPPER)
    build_realm(world, 0)
    victim = build_realm(world, 8)
    outcome = host.adversarial_step(world, rd=8)
    assert outcome == {"old_id": victim, "new_id": victim + 1}
    from csmsim.errors import NoSuchRealm
    with pytest.raises(NoSuchRealm):
        world.realm_by_id(victim)
    assert check_invariants(world) == []


def test_adversarial_step_needs_adversarial_policy(world, coop):
    build_realm(world, 0)
    with pytest.raises(BadState):
        coop.adversarial_step(world)
    with pytest.raises(BadState):
        Host(HostPolicy.STARVE).adversarial_step(world)


def test_cooperative_round_completes_within_one_exit(world, coop):
    """Every pending call under a cooperative host finishes in the same
    service round that saw its exit."""
    p = build_realm(world, 0)
    c = build_realm(world, 8)
    csm = rsi(world, coop, p, "rsi_csm_create", base=0x2000, size=2)
    assert world.realm_by_id(p).rec.pending is None
    sid = rsi(world, coop, p, "rsi_csm_share", csm=csm, c_id=c, perm="rw")
    rsi(world, coop, c, "rsi_csm_reserve", sharing=sid, base=0x5000, size=2)
    assert world.realm_by_id(c).rec.pending is None
