"""The invariant checker must catch corrupt states that no command sequence
can produce; these tests inject them directly into the structures."""

from conftest import build_realm, rsi
from csmsim.csm import Permission
from csmsim.invariants import check_invariants
from csmsim.rmm import RttEntry


def codes(violations):
    return {v["invariant"] for v in violations}


def test_clean_world_has_no_violations(world, coop):
    p = build_realm(world, 0)
    c = build_realm(world, 8)
    csm = rsi(world, coop, p, "rsi_csm_create", base=0x2000, size=2)
    sid = rsi(world, coop, p, "rsi_csm_share", csm=csm, c_id=c, perm="rw")
    rsi(world, coop, c, "rsi_csm_reserve", sharing=sid, base=0x5000, size=2)
    rsi(world, coop, c, "rsi_csm_attach", sharing=sid)
    assert check_invariants(world) == []


def test_injected_foreign_mapping_trips_disjointness_and_consent(world):
    """A consumer window over provider-private memory with no policy records
    behind it: unreachable through the command interface, caught by I1+I5."""
    build_realm(world, 0, image=[(8, 0x0000, b"private")])
    c = build_realm(world, 16)
    c_realm = world.realm_by_id(c)
    c_realm.rtt.entries[0x5000] = RttEntry(8, Permission.READ_WRITE)
    found = codes(check_invariants(world))
    assert "I1" in found
    assert "I5" in found


def test_single_foreign_mapping_still_trips_consent(world):
    """Even without double mapping (owner unmapped), a foreign granule in a
    realm's table needs consent records."""
    p = build_realm(world, 0, image=[(8, 0x0000, b"private")])
    c = build_realm(world, 16)
    world.realm_by_id(p).rtt.entries.clear()
    world.realm_by_id(c).rtt.entries[0x5000] = RttEntry(8, Permission.READ_ONLY)
    assert "I5" in codes(check_invariants(world))


def test_view_divergence_trips_consistency(world, coop):
    p = build_realm(world, 0)
    c = build_realm(world, 8)
    csm = rsi(world, coop, p, "rsi_csm_create", base=0x2000, size=2)
    sid = rsi(world, coop, p, "rsi_csm_share", csm=csm, c_id=c, perm="rw")
    rsi(world, coop, c, "rsi_csm_reserve", sharing=sid, base=0x5000, size=2)
    rsi(world, coop, c, "rsi_csm_attach", sharing=sid)
    # Silently retarget one consumer entry: the windows no longer agree.
    entry = world.realm_by_id(c).rtt.entries[0x5000]
    other = world.realm_by_id(c).rtt.entries[0x6000]
    world.realm_by_id(c).rtt.entries[0x5000] = RttEntry(other.pa, entry.perm)
    assert "I2" in codes(check_invariants(world))


def test_missing_flush_trips_pairing(world):
    rid = build_realm(world, 0, image=[(8, 0x0000, b"x")])
    realm = world.realm_by_id(rid)
    del realm.rtt.entries[0x0000]
    world.history.invalidations.append((rid, 0x0000))
    # No matching flush recorded.
    assert "I4" in codes(check_invariants(world))


def test_recorded_illegal_access_trips_exclusion(world):
    build_realm(world, 0)
    world.history.accesses.append(("normal", "realm", "read", True))
    assert "I3" in codes(check_invariants(world))


def test_mapping_to_wrong_backing_trips_backing(world):
    rid = build_realm(world, 0)
    # Protected mapping onto an undelegated (normal-world) granule.
    world.realm_by_id(rid).rtt.entries[0x7000] = RttEntry(30, Permission.READ_WRITE)
    assert "I6" in codes(check_invariants(world))


def test_duplicate_region_id_trips_freshness(world, coop):
    p = build_realm(world, 0)
    rsi(world, coop, p, "rsi_csm_create", base=0x2000, size=1)
    apt = world.realm_by_id(p).apt
    from csmsim.csm import ProviderEntry
    apt.providers.append(ProviderEntry(csm_id=1, base=0x8000, size=1))
    assert "I7" in codes(check_invariants(world))


def test_registry_inconsistency_trips_freshness(world):
    rid = build_realm(world, 0)
    world.registry.live[rid] = 44  # points at a granule holding no realm
    assert "I7" in codes(check_invariants(world))


def test_descriptor_of_a_retired_id_trips_freshness(world):
    """A realm id retired while its descriptor stays behind: the descriptor
    is resurrected state, whatever it maps."""
    rid = build_realm(world, 0, image=[(8, 0x0000, b"x")])
    world.registry.retire(rid)
    assert "I7" in codes(check_invariants(world))
