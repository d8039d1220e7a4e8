import pytest

from conftest import build_realm, rsi, rsi_error
from csmsim.errors import (
    AlreadyExists,
    AlreadyMapped,
    BadState,
    Fault,
    MissingApt,
    NoSuchRealm,
    NotDelegated,
    NotEmpty,
    NotMapped,
    TableMiss,
)
from csmsim.granules import GRANULE_SIZE, GranuleState, PasTag, SecurityState


def test_first_realm_gets_id_one(world):
    world.granule_delegate(0)
    assert world.rmi_realm_create(0) == 1


def test_recreate_at_same_descriptor_gets_fresh_id(world):
    rid = build_realm(world, 0)
    world.rmi_realm_destroy(0)
    # Descriptor granule came back as delegated; a new realm there must not
    # inherit the old identity.
    assert world.granules[0].state is GranuleState.DELEGATED
    new = world.rmi_realm_create(0)
    assert rid == 1 and new == 2


def test_create_requires_delegated_granule(world):
    with pytest.raises(BadState):
        world.rmi_realm_create(0)


def test_apt_create_rules(world):
    world.granule_delegate(0)
    world.rmi_realm_create(0)
    world.granule_delegate(1)
    world.rmi_apt_create(0, 1)
    assert world.realm_at(0).apt_granule == 1
    apt = world.realm_at(0).apt
    assert apt.providers == [] and apt.consumers == []
    world.granule_delegate(5)
    with pytest.raises(AlreadyExists):
        world.rmi_apt_create(0, 5)


def test_apt_create_only_before_activation(world):
    build_realm(world, 0)
    world.granule_delegate(8)
    with pytest.raises(BadState):
        world.rmi_apt_create(0, 8)


def test_apt_destroy_outside_teardown_rejected(world):
    build_realm(world, 0)
    with pytest.raises(BadState):
        world.rmi_apt_destroy(0, 1)


def test_apt_destroy_with_live_entries_not_empty(world, coop):
    build_realm(world, 0)
    rsi(world, coop, 1, "rsi_csm_create", base=0x2000, size=1)
    realm = world.realm_at(0)
    realm.tearing_down = True
    with pytest.raises(NotEmpty):
        world.rmi_apt_destroy(0, 1)


def test_apt_destroy_during_teardown_reclaims_granule(world):
    build_realm(world, 0)
    realm = world.realm_at(0)
    realm.tearing_down = True
    world.rmi_apt_destroy(0, 1)
    assert world.granules[1].state is GranuleState.DELEGATED
    assert realm.apt_granule is None


def test_rim_deterministic_across_identical_loads(world):
    image = [(8, 0x0000, b"alpha"), (9, 0x1000, b"beta")]
    a = build_realm(world, 0, image=image)
    b = build_realm(world, 16, image=[(24, 0x0000, b"alpha"), (25, 0x1000, b"beta")])
    assert world.realm_by_id(a).rim == world.realm_by_id(b).rim


def test_rim_sensitive_to_order_and_content(world):
    a = build_realm(world, 0, image=[(8, 0x0000, b"alpha"), (9, 0x1000, b"beta")])
    b = build_realm(world, 16, image=[(24, 0x1000, b"beta"), (25, 0x0000, b"alpha")])
    c = build_realm(world, 32, image=[(40, 0x0000, b"alphA"), (41, 0x1000, b"beta")])
    rims = {world.realm_by_id(r).rim for r in (a, b, c)}
    assert len(rims) == 3


def test_measured_create_only_while_new(world):
    build_realm(world, 0)
    world.granule_delegate(8)
    with pytest.raises(BadState):
        world.rmi_data_create(0, 8, 0x0, b"late")


def test_data_create_unknown_plain_map(world):
    build_realm(world, 0)
    world.granule_delegate(8)
    world.rmi_data_create_unknown(0, 8, 0x4000)
    entry = world.rmi_rtt_read_entry(0, 0x4000)
    assert entry == {"state": "assigned", "pa": 8, "perm": "rw"}
    assert world.granules[8].state is GranuleState.DATA
    assert world.granules[8].owner == 1


def test_data_create_unknown_rejects_undelegated_and_used(world):
    build_realm(world, 0)
    build_realm(world, 16)
    with pytest.raises(NotDelegated):
        world.rmi_data_create_unknown(0, 40, 0x4000)
    world.granule_delegate(8)
    world.rmi_data_create_unknown(0, 8, 0x4000)
    # Same granule into another realm: refused, it is in use elsewhere.
    with pytest.raises(AlreadyMapped):
        world.rmi_data_create_unknown(16, 8, 0x4000)
    # Same ipa again in the owner realm: the address is taken.
    world.granule_delegate(9)
    with pytest.raises(AlreadyMapped):
        world.rmi_data_create_unknown(0, 9, 0x4000)


def test_data_create_unknown_only_after_activation(world):
    world.granule_delegate(0)
    world.rmi_realm_create(0)
    world.granule_delegate(8)
    with pytest.raises(BadState):
        world.rmi_data_create_unknown(0, 8, 0x4000)


def test_map_into_unbacked_range_is_table_miss(world):
    # 24-bit space: block 0 covers the first 512 granules only.
    world.granule_delegate(0)
    world.rmi_realm_create(0, ipa_width=24)
    world.granule_delegate(1)
    world.rmi_apt_create(0, 1)
    world.granule_delegate(2)
    world.rmi_rec_create(0, 2)
    world.granule_delegate(3)
    world.rmi_rtt_create(0, 3, 0)
    world.rmi_realm_activate(0)
    world.granule_delegate(8)
    with pytest.raises(TableMiss):
        world.rmi_data_create_unknown(0, 8, 0x200000)
    world.granule_delegate(9)
    world.rmi_rtt_create(0, 9, 0x200000)
    world.rmi_data_create_unknown(0, 8, 0x200000)


def test_duplicate_rtt_create(world):
    world.granule_delegate(0)
    world.rmi_realm_create(0)
    world.granule_delegate(3)
    world.rmi_rtt_create(0, 3, 0)
    world.granule_delegate(4)
    with pytest.raises(AlreadyExists):
        world.rmi_rtt_create(0, 4, 0x1000)  # same block as ipa 0


def test_rtt_read_entry_lifecycle(world):
    build_realm(world, 0)
    assert world.rmi_rtt_read_entry(0, 0x4000) == {"state": "unassigned"}
    world.granule_delegate(8)
    world.rmi_data_create_unknown(0, 8, 0x4000)
    assert world.rmi_rtt_read_entry(0, 0x4000)["pa"] == 8
    world.rmi_data_destroy(0, 0x4000)
    assert world.rmi_rtt_read_entry(0, 0x4000) == {"state": "unassigned"}
    # Unbacked ranges read as unassigned rather than erroring.
    assert world.rmi_rtt_read_entry(0, 0x40000000) == {"state": "unassigned"}


def test_data_destroy_wipes_and_flushes(world):
    build_realm(world, 0, image=[(8, 0x0000, b"secret payload")])
    pa = world.rmi_data_destroy(0, 0x0000)
    assert pa == 8
    g = world.granules[8]
    assert g.state is GranuleState.DELEGATED
    assert g.content == bytes(GRANULE_SIZE)
    assert world.history.invalidations == [(1, 0)]
    assert world.history.flushes == [(1, 0)]
    with pytest.raises(NotMapped):
        world.rmi_data_destroy(0, 0x0000)


def test_activate_requires_apt(world):
    world.granule_delegate(0)
    world.rmi_realm_create(0)
    with pytest.raises(MissingApt):
        world.rmi_realm_activate(0)


def test_activate_only_once(world):
    build_realm(world, 0)
    with pytest.raises(BadState):
        world.rmi_realm_activate(0)


def test_destroy_isolated_realm_releases_everything(world):
    build_realm(world, 0, image=[(8, 0x0000, b"to be wiped")])
    world.rmi_realm_destroy(0)
    for idx in (0, 1, 2, 3, 8):
        g = world.granules[idx]
        assert g.state is GranuleState.DELEGATED, idx
        assert g.content == bytes(GRANULE_SIZE)
        assert g.owner == 0
    assert world.realms == {}


def test_registry_lookup_and_tombstones(world):
    rid = build_realm(world, 0)
    assert world.realm_by_id(rid).realm_id == rid
    with pytest.raises(NoSuchRealm):
        world.realm_by_id(0)
    world.rmi_realm_destroy(0)
    with pytest.raises(NoSuchRealm):
        world.realm_by_id(rid)


def test_realm_access_reads_own_data(world):
    rid = build_realm(world, 0, image=[(8, 0x0000, b"hello realm")])
    got = world.realm_access(rid, 0x0000, "read", length=11)
    assert got == b"hello realm"
    world.realm_access(rid, 0x0000, "write", data=b"HELLO", offset=0)
    assert world.realm_access(rid, 0x0000, "read", length=5) == b"HELLO"


def test_realm_access_unmapped_faults(world):
    rid = build_realm(world, 0)
    with pytest.raises(Fault):
        world.realm_access(rid, 0x7000, "read")


def test_realm_access_requires_active(world):
    world.granule_delegate(0)
    rid = world.rmi_realm_create(0)
    with pytest.raises(Fault):
        world.realm_access(rid, 0x0, "read")


def test_unprotected_map_shares_with_host(world):
    rid = build_realm(world, 0)
    # Top bit of a 20-bit space: 0x80000.
    world.rmi_unprotected_map(0, 0x80000, 20)
    world.realm_access(rid, 0x80000, "write", data=b"visible to host")
    # The granule stayed normal-world: the host reads the plaintext.
    got = world.physical_access(SecurityState.NORMAL, 20, "read", length=15)
    assert got == b"visible to host"
    assert world.granules[20].pas is PasTag.NORMAL


def test_unprotected_map_rejects_protected_ipa_and_delegated_granule(world):
    build_realm(world, 0)
    with pytest.raises(BadState):
        world.rmi_unprotected_map(0, 0x4000, 20)
    world.granule_delegate(20)
    with pytest.raises(BadState):
        world.rmi_unprotected_map(0, 0x80000, 20)


def test_suspended_realm_cannot_issue_calls(world):
    from csmsim.harness import execute_step
    from csmsim.host import Host, HostPolicy

    rid = build_realm(world, 0)
    starve = Host(HostPolicy.STARVE)
    _, result, _ = execute_step(world, starve, f"realm:{rid}", "rsi_csm_create",
                                {"base": 0x2000, "size": 1})
    assert result == "pending"
    assert rsi_error(world, starve, rid, "rsi_csm_create",
                     base=0x4000, size=1) == "BadState"
    with pytest.raises(Fault):
        world.realm_access(rid, 0x0, "read")
