import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import build_realm, rsi, rsi_error
from csmsim.csm import compose_sharing_id
from csmsim.errors import Fault
from csmsim.granules import GRANULE_SIZE, GranuleState
from csmsim.harness import execute_step
from csmsim.invariants import check_invariants
from csmsim.rmm import World


def two_realms(world):
    p = build_realm(world, 0)
    c = build_realm(world, 8)
    return p, c


def established_sharing(world, coop, perm="rw", size=2):
    """create + share + reserve + attach between fresh P and C realms."""
    p, c = two_realms(world)
    csm = rsi(world, coop, p, "rsi_csm_create", base=0x2000, size=size)
    sid = rsi(world, coop, p, "rsi_csm_share", csm=csm, c_id=c, perm=perm)
    rsi(world, coop, c, "rsi_csm_reserve", sharing=sid, base=0x5000, size=size)
    rsi(world, coop, c, "rsi_csm_attach", sharing=sid)
    return p, c, csm, sid


def test_create_returns_first_region_id_and_populates(world, coop):
    p, _ = two_realms(world)
    csm = rsi(world, coop, p, "rsi_csm_create", base=0x10000, size=2)
    assert csm == 1
    for ipa in (0x10000, 0x11000):
        assert world.rmi_rtt_read_entry(0, ipa)["state"] == "assigned"


def test_create_alignment_and_overlap(world, coop):
    p, _ = two_realms(world)
    assert rsi_error(world, coop, p, "rsi_csm_create",
                     base=0x2004, size=1) == "Unaligned"
    rsi(world, coop, p, "rsi_csm_create", base=0x2000, size=2)
    assert rsi_error(world, coop, p, "rsi_csm_create",
                     base=0x3000, size=2) == "Overlap"


def test_create_requires_policy_table(world, coop):
    world.granule_delegate(0)
    rid = world.rmi_realm_create(0)
    world.granule_delegate(2)
    world.rmi_rec_create(0, 2)
    world.granule_delegate(3)
    world.rmi_rtt_create(0, 3, 0)
    # No way to activate without a policy table; confirm the command-level
    # error by forcing the lifecycle forward.
    from csmsim.rmm import Lifecycle
    world.realm_at(0).lifecycle = Lifecycle.ACTIVE
    assert rsi_error(world, coop, rid, "rsi_csm_create",
                     base=0x2000, size=1) == "NoApt"


def test_create_retains_prepopulated_contents(world, coop):
    p = build_realm(world, 0, image=[(8, 0x2000, b"kept-content")])
    before = world.granules[8].content
    events = []
    value, result, ev = execute_step(world, coop, f"realm:{p}",
                                     "rsi_csm_create", {"base": 0x2000, "size": 2})
    events += ev
    assert value == 1
    assert world.granules[8].content == before
    # Only the one gap granule was delegated and mapped by the host.
    rmi_ops = [e["op"] for e in events if e.get("event") == "rmi"]
    assert rmi_ops.count("granule_delegate") == 1
    assert rmi_ops.count("rmi_data_create_unknown") == 1


def test_share_identifier_sequence(world, coop):
    p, c = two_realms(world)
    csm1 = rsi(world, coop, p, "rsi_csm_create", base=0x2000, size=1)
    csm2 = rsi(world, coop, p, "rsi_csm_create", base=0x8000, size=1)
    assert rsi(world, coop, p, "rsi_csm_share",
               csm=csm1, c_id=c, perm="rw") == (1, 2, 0)
    # Second share between the same pair draws the next counter value.
    assert rsi(world, coop, p, "rsi_csm_share",
               csm=csm2, c_id=c, perm="ro") == (1, 2, 1)


def test_share_error_paths(world, coop):
    p, c = two_realms(world)
    csm = rsi(world, coop, p, "rsi_csm_create", base=0x2000, size=1)
    assert rsi_error(world, coop, p, "rsi_csm_share",
                     csm=csm, c_id=p, perm="rw") == "SelfShare"
    assert rsi_error(world, coop, p, "rsi_csm_share",
                     csm=csm, c_id=99, perm="rw") == "NoSuchRealm"
    rsi(world, coop, p, "rsi_csm_share", csm=csm, c_id=c, perm="rw")
    assert rsi_error(world, coop, p, "rsi_csm_share",
                     csm=csm, c_id=c, perm="ro") == "AlreadyShared"
    assert rsi_error(world, coop, c, "rsi_csm_share",
                     csm=csm, c_id=p, perm="rw") == "NotOwner"
    assert rsi_error(world, coop, p, "rsi_csm_share",
                     csm=77, c_id=c, perm="rw") == "NoSuchCsm"


def test_share_to_destroyed_realm(world, coop):
    p, c = two_realms(world)
    csm = rsi(world, coop, p, "rsi_csm_create", base=0x2000, size=1)
    world.rmi_realm_destroy(8)
    assert rsi_error(world, coop, p, "rsi_csm_share",
                     csm=csm, c_id=c, perm="rw") == "NoSuchRealm"


def test_reserve_wrong_consumer_and_overlap(world, coop):
    p, c = two_realms(world)
    m = build_realm(world, 16)
    csm = rsi(world, coop, p, "rsi_csm_create", base=0x2000, size=1)
    sid = rsi(world, coop, p, "rsi_csm_share", csm=csm, c_id=c, perm="rw")
    assert rsi_error(world, coop, m, "rsi_csm_reserve",
                     sharing=sid, base=0x5000, size=1) == "WrongConsumer"
    rsi(world, coop, c, "rsi_csm_reserve", sharing=sid, base=0x5000, size=1)
    assert rsi_error(world, coop, c, "rsi_csm_reserve",
                     sharing=[1, 2, 1], base=0x5000, size=1) == "Overlap"


def test_overlap_names_a_region_before_a_window(world, coop):
    """A range overlapping entries of both kinds is refused naming the
    first overlapping region, even if a window was reserved before it."""
    p, c = two_realms(world)
    rsi(world, coop, c, "rsi_csm_reserve", sharing=[p, c, 0], base=0x5000, size=2)
    rsi(world, coop, c, "rsi_csm_create", base=0x7000, size=1)
    _, result, _ = execute_step(world, coop, f"realm:{c}", "rsi_csm_create",
                                {"base": 0x6000, "size": 2})
    assert result == {"error": "Overlap", "detail": "[0x6000,0x8000) overlaps "
                                                    "existing entry at 0x7000"}


def test_reserve_reclaims_resident_granules(world, coop):
    p, c = two_realms(world)
    # The consumer has private data inside its future window.
    world.granule_delegate(16)
    world.rmi_data_create_unknown(8, 16, 0x5000)
    csm = rsi(world, coop, p, "rsi_csm_create", base=0x2000, size=2)
    sid = rsi(world, coop, p, "rsi_csm_share", csm=csm, c_id=c, perm="rw")
    rsi(world, coop, c, "rsi_csm_reserve", sharing=sid, base=0x5000, size=2)
    g = world.granules[16]
    assert g.state is GranuleState.UNDELEGATED
    assert g.content == bytes(GRANULE_SIZE)
    assert world.rmi_rtt_read_entry(8, 0x5000) == {"state": "unassigned"}


def test_reserve_may_precede_share(world, coop):
    p, c = two_realms(world)
    csm = rsi(world, coop, p, "rsi_csm_create", base=0x2000, size=1)
    # The consumer derives the sharing id deterministically and reserves
    # first; attach succeeds once the provider's consent lands.
    predicted = compose_sharing_id(p, c, 0)
    rsi(world, coop, c, "rsi_csm_reserve", sharing=predicted, base=0x5000, size=1)
    assert rsi_error(world, coop, c, "rsi_csm_attach",
                     sharing=predicted) == "NotShared"
    sid = rsi(world, coop, p, "rsi_csm_share", csm=csm, c_id=c, perm="rw")
    assert sid == predicted
    rsi(world, coop, c, "rsi_csm_attach", sharing=sid)


def test_attach_maps_identical_granules(world, coop):
    p, c, _, _ = established_sharing(world, coop)
    world.realm_access(p, 0x2000, "write", data=b"from provider")
    assert world.realm_access(c, 0x5000, "read", length=13) == b"from provider"
    for k in range(2):
        p_pa = world.rmi_rtt_read_entry(0, 0x2000 + k * GRANULE_SIZE)["pa"]
        c_pa = world.rmi_rtt_read_entry(8, 0x5000 + k * GRANULE_SIZE)["pa"]
        assert p_pa == c_pa
    assert check_invariants(world) == []


def test_attach_error_paths(world, coop):
    p, c = two_realms(world)
    csm = rsi(world, coop, p, "rsi_csm_create", base=0x2000, size=2)
    assert rsi_error(world, coop, c, "rsi_csm_attach",
                     sharing=[1, 2, 0]) == "NotShared"
    sid = rsi(world, coop, p, "rsi_csm_share", csm=csm, c_id=c, perm="rw")
    assert rsi_error(world, coop, c, "rsi_csm_attach",
                     sharing=sid) == "NotReserved"
    rsi(world, coop, c, "rsi_csm_reserve", sharing=sid, base=0x5000, size=3)
    assert rsi_error(world, coop, c, "rsi_csm_attach",
                     sharing=sid) == "SizeMismatch"


def test_attach_requires_populated_region(world, coop):
    p, c = two_realms(world)
    csm = rsi(world, coop, p, "rsi_csm_create", base=0x2000, size=2)
    sid = rsi(world, coop, p, "rsi_csm_share", csm=csm, c_id=c, perm="rw")
    rsi(world, coop, c, "rsi_csm_reserve", sharing=sid, base=0x5000, size=2)
    # The host rips one granule out before the consumer attaches.
    world.rmi_data_destroy(0, 0x3000)
    assert rsi_error(world, coop, c, "rsi_csm_attach",
                     sharing=sid) == "Unpopulated"


def test_attach_twice(world, coop):
    _, c, _, sid = established_sharing(world, coop)
    assert rsi_error(world, coop, c, "rsi_csm_attach",
                     sharing=sid) == "AlreadyAttached"


def test_read_only_window(world, coop):
    p, c, _, _ = established_sharing(world, coop, perm="ro")
    world.realm_access(p, 0x2000, "write", data=b"look but do not touch")
    assert world.realm_access(c, 0x5000, "read", length=21) == \
        b"look but do not touch"
    with pytest.raises(Fault):
        world.realm_access(c, 0x5000, "write", data=b"vandalism")


@pytest.mark.parametrize("kind", ["Write", "WRITE", "", None])
def test_access_of_unknown_kind_is_refused(world, coop, kind):
    """Only "read" and "write" are accesses: a read-only window cannot be
    written by spelling the kind another way, and nothing is recorded."""
    p, c, _, _ = established_sharing(world, coop, perm="ro")
    before = world.realm_access(p, 0x2000, "read")
    accesses = len(world.history.accesses)
    _, result, _ = execute_step(world, coop, f"realm:{c}", "realm_access",
                                {"ipa": 0x5000, "kind": kind, "data": "4100"})
    refused = {"error": "BadState", "detail": f"access kind {kind!r}"}
    assert result == refused
    _, result, _ = execute_step(world, coop, "root", "physical_access",
                                {"granule": 30, "kind": kind, "data": "4100"})
    assert result == refused
    assert world.realm_access(p, 0x2000, "read") == before
    assert world.granules[30].content == bytes(GRANULE_SIZE)
    assert len(world.history.accesses) == accesses + 1
    assert check_invariants(world) == []


def test_revoke_cuts_access_with_flushes(world, coop):
    p, c, _, sid = established_sharing(world, coop)
    flushes_before = len(world.history.flushes)
    rsi(world, coop, p, "rsi_csm_revoke", sharing=sid)
    assert len(world.history.flushes) == flushes_before + 2
    with pytest.raises(Fault):
        world.realm_access(c, 0x5000, "read")
    assert check_invariants(world) == []


def test_revoke_reserved_only_no_flush(world, coop):
    p, c = two_realms(world)
    csm = rsi(world, coop, p, "rsi_csm_create", base=0x2000, size=1)
    sid = rsi(world, coop, p, "rsi_csm_share", csm=csm, c_id=c, perm="rw")
    rsi(world, coop, c, "rsi_csm_reserve", sharing=sid, base=0x5000, size=1)
    flushes_before = len(world.history.flushes)
    rsi(world, coop, p, "rsi_csm_revoke", sharing=sid)
    assert len(world.history.flushes) == flushes_before
    assert world.realm_by_id(c).apt.consumers == []


def test_revoke_authority(world, coop):
    p, c, _, sid = established_sharing(world, coop)
    assert rsi_error(world, coop, c, "rsi_csm_revoke", sharing=sid) == "NotOwner"
    assert rsi_error(world, coop, p, "rsi_csm_revoke",
                     sharing=[1, 2, 7]) == "NoSuchSharing"


def test_destroy_with_two_consumers_emits_three_removals(world, coop):
    p = build_realm(world, 0)
    c1 = build_realm(world, 8)
    c2 = build_realm(world, 16)
    csm = rsi(world, coop, p, "rsi_csm_create", base=0x2000, size=1)
    for cid, base in ((c1, 0x5000), (c2, 0x6000)):
        sid = rsi(world, coop, p, "rsi_csm_share", csm=csm, c_id=cid, perm="rw")
        rsi(world, coop, cid, "rsi_csm_reserve", sharing=sid, base=base, size=1)
        rsi(world, coop, cid, "rsi_csm_attach", sharing=sid)
    value, _, events = execute_step(world, coop, f"realm:{p}",
                                    "rsi_csm_destroy", {"csm": csm})
    removals = [e for e in events
                if e.get("event") == "exit" and e["kind"] == "remove_csm"]
    assert len(removals) == 3
    assert [r["realm"] for r in removals] == [c1, c2, p]
    for cid, base in ((c1, 0x5000), (c2, 0x6000)):
        with pytest.raises(Fault):
            world.realm_access(cid, base, "read")


def test_destroy_unshared_single_removal(world, coop):
    p, _ = two_realms(world)
    csm = rsi(world, coop, p, "rsi_csm_create", base=0x2000, size=1)
    world.realm_access(p, 0x2000, "write", data=b"mine before and after")
    _, _, events = execute_step(world, coop, f"realm:{p}",
                                "rsi_csm_destroy", {"csm": csm})
    removals = [e for e in events
                if e.get("event") == "exit" and e["kind"] == "remove_csm"]
    assert len(removals) == 1
    # Region reverts to ordinary private memory, contents intact.
    assert world.realm_access(p, 0x2000, "read", length=21) == \
        b"mine before and after"
    assert world.realm_by_id(p).apt.providers == []


def test_destroy_authority(world, coop):
    p, c, csm, _ = established_sharing(world, coop)
    assert rsi_error(world, coop, c, "rsi_csm_destroy", csm=csm) == "NotOwner"
    assert rsi_error(world, coop, p, "rsi_csm_destroy", csm=42) == "NoSuchCsm"


def test_detach_and_reattach_same_view(world, coop):
    p, c, _, sid = established_sharing(world, coop)
    pas_before = [world.rmi_rtt_read_entry(8, 0x5000 + k * GRANULE_SIZE)["pa"]
                  for k in range(2)]
    rsi(world, coop, c, "rsi_csm_detach_and_free", sharing=sid)
    with pytest.raises(Fault):
        world.realm_access(c, 0x5000, "read")
    # The provider-side consent survives detach; reserve and attach again.
    rsi(world, coop, c, "rsi_csm_reserve", sharing=sid, base=0x5000, size=2)
    rsi(world, coop, c, "rsi_csm_attach", sharing=sid)
    pas_after = [world.rmi_rtt_read_entry(8, 0x5000 + k * GRANULE_SIZE)["pa"]
                 for k in range(2)]
    assert pas_before == pas_after


def test_detach_authority(world, coop):
    p, c, _, sid = established_sharing(world, coop)
    assert rsi_error(world, coop, p, "rsi_csm_detach_and_free",
                     sharing=sid) == "WrongConsumer"
    assert rsi_error(world, coop, c, "rsi_csm_detach_and_free",
                     sharing=[1, 2, 9]) == "NoSuchSharing"


def test_shared_region_repopulation_propagates(world, coop):
    """Host destroy and re-create inside a live region keeps all views equal."""
    p, c, _, _ = established_sharing(world, coop)
    flushes_before = len(world.history.flushes)
    world.rmi_data_destroy(0, 0x3000)
    # Both sides lost the page, with one flush each.
    assert world.rmi_rtt_read_entry(8, 0x6000) == {"state": "unassigned"}
    assert len(world.history.flushes) == flushes_before + 2
    free = world.granules.lowest_undelegated()
    world.granule_delegate(free)
    world.rmi_data_create_unknown(0, free, 0x3000)
    assert world.rmi_rtt_read_entry(8, 0x6000)["pa"] == free
    world.realm_access(p, 0x3000, "write", data=b"round two")
    assert world.realm_access(c, 0x6000, "read", length=9) == b"round two"
    assert check_invariants(world) == []


def test_dedup_accounting_property(world, coop):
    """Provider plus k consumers over S shared granules cost S data granules,
    not (k+1) * S, on top of private mappings."""
    S = 3
    p = build_realm(world, 0, image=[(24 + i, 0x2000 + i * GRANULE_SIZE,
                                      b"shared") for i in range(S)])
    consumers = [build_realm(world, 8), build_realm(world, 16)]
    private = world.granules.counts()["data"]
    assert private == S
    csm = rsi(world, coop, p, "rsi_csm_create", base=0x2000, size=S)
    for cid in consumers:
        sid = rsi(world, coop, p, "rsi_csm_share", csm=csm, c_id=cid, perm="ro")
        rsi(world, coop, cid, "rsi_csm_reserve", sharing=sid, base=0x10000, size=S)
        rsi(world, coop, cid, "rsi_csm_attach", sharing=sid)
    assert world.granules.counts()["data"] == S
    # Both consumers map all S granules, yet no new data granule exists.
    for cid in consumers:
        mapped = len(world.realm_by_id(cid).rtt.entries)
        assert mapped == S


def test_apt_capacity(coop):
    from csmsim.csm import APT_CAPACITY, ConsumerEntry

    world = World(granule_count=16, seed=0)
    p = build_realm(world, 0, width=24)
    apt = world.realm_by_id(p).apt
    for i in range(APT_CAPACITY):
        apt.consumers.append(ConsumerEntry(sharing_id=(9, p, i),
                                         base=0x100000 + i * GRANULE_SIZE,
                                         size=1))
    assert rsi_error(world, coop, p, "rsi_csm_create",
                     base=0x2000, size=1) == "CapacityExceeded"


def test_compose_sharing_id_basics():
    assert compose_sharing_id(1, 2, 0) == compose_sharing_id(1, 2, 0)
    assert compose_sharing_id(1, 2, 0) != compose_sharing_id(2, 1, 0)


@given(st.tuples(st.integers(0, 2**32), st.integers(0, 2**32),
                 st.integers(0, 2**16)),
       st.tuples(st.integers(0, 2**32), st.integers(0, 2**32),
                 st.integers(0, 2**16)))
def test_compose_sharing_id_injective(a, b):
    ida = compose_sharing_id(*a)
    idb = compose_sharing_id(*b)
    assert (ida == idb) == (a == b)
