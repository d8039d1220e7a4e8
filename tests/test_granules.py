import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csmsim.errors import BadState, Fault, OutOfRange
from csmsim.granules import (
    GRANULE_SIZE,
    Granule,
    GranuleSpace,
    GranuleState,
    PasTag,
    SecurityState,
    gpc_check,
)
from csmsim.host import Host, HostPolicy
from csmsim.rmm import World

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
    space.grans[2] = space.grans[2]._replace(content=b"\xaa" * GRANULE_SIZE)
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


def scan_lowest_undelegated(space) -> int | None:
    """The reference for ``lowest_undelegated``: a scan from granule 0."""
    for index, g in enumerate(space.grans):
        if g.state is GranuleState.UNDELEGATED:
            return index
    return None


GRANULE_OPS = st.tuples(
    st.sampled_from(["delegate", "undelegate", "retag", "release", "clone"]),
    st.integers(0, 11),   # granule index, taken modulo the granule count
    st.integers(0, 3))    # which world, taken modulo the number of worlds


@settings(max_examples=200, deadline=None)
@given(count=st.integers(1, 12), ops=st.lists(GRANULE_OPS, max_size=60))
def test_lowest_undelegated_matches_a_scan(count, ops):
    """The low-water index against the scan, on parents and clones alike,
    after every operation, refused ones included."""
    worlds = [World(granule_count=count)]
    for op, index, which in ops:
        world = worlds[which % len(worlds)]
        if op == "clone":
            worlds.append(world.clone())
            continue
        space, index = world.granules, index % count
        try:
            if op == "retag":
                space.retag(index, GranuleState.DATA, owner=1)
            else:
                getattr(space, op)(index)
        except BadState:
            pass
        for w in worlds:
            assert w.granules.lowest_undelegated() == \
                scan_lowest_undelegated(w.granules)


@pytest.mark.parametrize("delegated", [(), (0,), (0, 1), (1, 3), (0, 1, 2, 3)])
def test_lowest_undelegated_of_a_given_granule_list(delegated):
    grans = [Granule()] * 4
    for i in delegated:
        grans[i] = grans[i]._replace(state=GranuleState.DELEGATED, pas=PasTag.REALM)
    space = GranuleSpace(4, grans=grans)
    while space.lowest_undelegated() is not None:
        assert space.lowest_undelegated() == scan_lowest_undelegated(space)
        space.delegate(space.lowest_undelegated())
    assert scan_lowest_undelegated(space) is None


class CountingList(list):
    """A granule list that counts the granules read from it."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)

    def __iter__(self):
        for g in super().__iter__():
            self.reads += 1
            yield g


def allocation_reads(count: int) -> int:
    """Granules read by a populate-and-reclaim churn: the host allocates and
    delegates five granules, then gives back a low and the highest one."""
    world = World(granule_count=count)
    host = Host(HostPolicy.COOPERATIVE)
    grans = world.granules.grans = CountingList(world.granules.grans)
    held = []
    for r in range(60):
        for _ in range(5):
            g = host.alloc_granule(world)
            world.granule_delegate(g)
            held.append(g)
        held.sort()
        for g in (held.pop(r % 3), held.pop()):
            world.granule_undelegate(g)
    reads, space = grans.reads, world.granules
    assert space.lowest_undelegated() == scan_lowest_undelegated(space)
    return reads


def test_allocation_reads_do_not_grow_with_the_granule_count(monkeypatch):
    reads = allocation_reads(512)
    assert allocation_reads(4096) == reads
    # The scan the index replaced reads more on the same churn.
    monkeypatch.setattr(GranuleSpace, "lowest_undelegated", scan_lowest_undelegated)
    assert allocation_reads(512) > reads


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


def gpt(space) -> dict:
    """The granule protection table: dense index -> PAS tag map."""
    return {index: g.pas for index, g in enumerate(space.grans)}


def test_delegate_undelegate_round_trip_restores_gpt():
    space = GranuleSpace(8)
    before = gpt(space)
    space.delegate(3)
    assert gpt(space) != before
    space.undelegate(3)
    assert gpt(space) == before
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
