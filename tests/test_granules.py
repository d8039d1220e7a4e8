import pytest
from hypothesis import given
from hypothesis import strategies as st

from csmsim.errors import BadState, Fault, OutOfRange
from csmsim.granules import (
    GRANULE_SIZE,
    GranuleSpace,
    GranuleState,
    PasTag,
    SecurityState,
    gpc_check,
)

# Independent statement of the access rule: rows are security states in
# (normal, secure, realm, root) order, columns PAS tags in the same order.
EXPECTED_MATRIX = [
    [1, 0, 0, 0],
    [1, 1, 0, 0],
    [1, 0, 1, 0],
    [1, 1, 1, 1],
]
ORDER = ["normal", "secure", "realm", "root"]


def test_gpc_matrix_all_sixteen_cases():
    for i, state in enumerate(ORDER):
        for j, pas in enumerate(ORDER):
            got = gpc_check(SecurityState(state), PasTag(pas))
            assert got == bool(EXPECTED_MATRIX[i][j]), (state, pas)


@given(st.sampled_from(list(SecurityState)), st.sampled_from(list(PasTag)))
def test_gpc_structural_properties(state, pas):
    allowed = gpc_check(state, pas)
    # Normal-world memory is reachable from everywhere; root reaches all.
    if pas is PasTag.NORMAL or state is SecurityState.ROOT:
        assert allowed
    # Nobody but root reaches root memory; realm and secure never mix.
    if pas is PasTag.ROOT and state is not SecurityState.ROOT:
        assert not allowed
    if (state, pas) in ((SecurityState.REALM, PasTag.SECURE),
                        (SecurityState.SECURE, PasTag.REALM)):
        assert not allowed


def test_delegate_wipes_and_retags():
    space = GranuleSpace(4)
    space.grans[2].content = b"\xaa" * GRANULE_SIZE
    space.delegate(2)
    g = space[2]
    assert g.state is GranuleState.DELEGATED
    assert g.pas is PasTag.REALM
    assert g.content == bytes(GRANULE_SIZE)


def test_lowest_undelegated_skips_the_realm_world():
    space = GranuleSpace(3)
    assert space.lowest_undelegated() == 0
    space.delegate(0)
    space.delegate(2)
    assert space.lowest_undelegated() == 1
    space.delegate(1)
    assert space.lowest_undelegated() is None
    space.undelegate(2)
    assert space.lowest_undelegated() == 2


def test_delegate_rejects_non_undelegated():
    space = GranuleSpace(4)
    space.delegate(1)
    with pytest.raises(BadState):
        space.delegate(1)
    space.retag(1, GranuleState.DATA, owner=7)
    with pytest.raises(BadState):
        space.delegate(1)


def test_undelegate_only_from_delegated():
    space = GranuleSpace(4)
    with pytest.raises(BadState):
        space.undelegate(0)
    space.delegate(0)
    space.retag(0, GranuleState.DATA, owner=1)
    with pytest.raises(BadState):
        space.undelegate(0)


def test_delegate_undelegate_round_trip_restores_gpt():
    space = GranuleSpace(8)
    before = space.gpt()
    space.delegate(3)
    assert space.gpt() != before
    space.undelegate(3)
    assert space.gpt() == before
    assert space[3].content == bytes(GRANULE_SIZE)


def test_realm_bytes_never_visible_after_reclaim():
    space = GranuleSpace(4)
    space.delegate(1)
    space.retag(1, GranuleState.DATA, owner=1)
    space.write(1, b"realm secret")
    space.release(1)
    space.undelegate(1)
    assert space[1].pas is PasTag.NORMAL
    assert space.read(1, 0, 64) == bytes(64)


def test_state_counts_conserved():
    space = GranuleSpace(16)
    for i in (0, 5, 9):
        space.delegate(i)
    counts = space.counts()
    assert sum(counts.values()) == 16
    assert counts["undelegated"] == 13
    assert counts["delegated"] == 3


def test_physical_access_normal_world(world):
    # Normal actor can read undelegated (normal-world) granules.
    world.granules.write(5, b"host data")
    got = world.physical_access(SecurityState.NORMAL, 5, "read", length=9)
    assert got == b"host data"


def test_physical_access_denied_on_realm_granule(world):
    world.granule_delegate(5)
    world.granules.retag(5, GranuleState.DATA, owner=1)
    with pytest.raises(Fault):
        world.physical_access(SecurityState.NORMAL, 5, "read")
    # Content untouched and the fault was traced.
    assert any(e["event"] == "fault" for e in world.take_events())


def test_root_accesses_everything(world):
    world.granule_delegate(3)
    world.granules.retag(3, GranuleState.DATA, owner=1)
    world.physical_access(SecurityState.ROOT, 3, "write", data=b"root was here")
    got = world.physical_access(SecurityState.ROOT, 3, "read", length=13)
    assert got == b"root was here"


def test_physical_access_out_of_range(world):
    with pytest.raises(OutOfRange):
        world.physical_access(SecurityState.NORMAL, 64, "read")


def test_secure_world_isolated_from_realm(world):
    world.granule_delegate(2)
    with pytest.raises(Fault):
        world.physical_access(SecurityState.SECURE, 2, "read")
