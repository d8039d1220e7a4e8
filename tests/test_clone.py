"""``World.clone`` against its reference, ``copy.deepcopy``.

The explorer copies a world per transition with ``World.clone``, a
structural copy that shares immutable values. Random command sequences run
here on a clone and on a deep copy of the same world: both must end equal,
the parent must not change, and no mutable object may be reachable from
both a parent and its clone. The aliasing walker is generic, so a field
added to ``World`` or to a model dataclass and forgotten in ``clone``
fails here.
"""

import copy
from enum import Enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_realm, rsi
from csmsim import attestation
from csmsim.errors import Fault
from csmsim.explorer import (
    DEFAULT_COMMANDS,
    ExplorationConfig,
    build_initial_world,
    canonical_state,
    enabled_commands,
)
from csmsim.granules import SecurityState
from csmsim.harness import execute_step
from csmsim.host import Host, HostPolicy
from csmsim.rmm import World

CFG = ExplorationConfig(commands=DEFAULT_COMMANDS + ("host_data",),
                        create_bases=(0x0, 0x2000),
                        reserve_bases=(0x0, 0x3000, 0x6000))


def initial_world() -> World:
    return build_initial_world(ExplorationConfig(granule_count=8))


def tableless_world() -> World:
    """The initial world plus a realm just created, without a policy table
    granule."""
    world = initial_world()
    rd = world.granules.lowest_undelegated()
    world.granule_delegate(rd)
    world.rmi_realm_create(rd)
    return world


def rich_world() -> World:
    """Every kind of mutable state at once: an attached read-only window, a
    pending share, a suspended call, a tombstoned realm, provisioned peer
    ids, access and flush history, queued events and a disabled check."""
    world = World(granule_count=64, seed=7)
    coop = Host(HostPolicy.COOPERATIVE)
    p = build_realm(world, 0, image=[(8, 0x0, b"provider image")])
    c = build_realm(world, 16, image=[(24, 0x0, b"consumer image")])
    s = build_realm(world, 32)
    build_realm(world, 40, image=[(44, 0x0, b"doomed")])
    world.rmi_realm_destroy(40)
    csm = rsi(world, coop, p, "rsi_csm_create", base=0x2000, size=2)
    sid = rsi(world, coop, p, "rsi_csm_share", csm=csm, c_id=c, perm="ro")
    rsi(world, coop, p, "rsi_csm_share", csm=csm, c_id=s, perm="rw")
    rsi(world, coop, c, "rsi_csm_reserve", sharing=sid, base=0x5000, size=2)
    rsi(world, coop, c, "rsi_csm_attach", sharing=sid)
    world.realm_access(p, 0x2000, "write", data=b"shared bytes")
    world.rmi_unprotected_map(0, 0x80000, 50)
    with pytest.raises(Fault):
        world.physical_access(SecurityState.NORMAL, 8, "read")
    exp = attestation.expected_for_image(world, [(0x0, b"consumer image")], 20)
    attestation.owner_release_peer_id(
        world, p, attestation.rsi_attestation_token(world, c), exp)
    execute_step(world, Host(HostPolicy.STARVE), f"realm:{s}",
                 "rsi_csm_create", {"base": 0x2000, "size": 1})
    coop._rmi(world, "rmi_rtt_read_entry", 0, 0x2000)
    world.disabled_checks.add("attach_size_equality")
    return world


def mutables(root) -> dict:
    """Every list, dict, set and model object reachable from root, by id."""
    found, stack = {}, [root]
    while stack:
        obj = stack.pop()
        if isinstance(obj, (list, tuple, set)):
            children = list(obj)
        elif isinstance(obj, dict):
            children = [*obj.keys(), *obj.values()]
        elif hasattr(obj, "__dict__") and not isinstance(obj, Enum):
            children = list(vars(obj).values())
        else:
            continue
        if not isinstance(obj, tuple):  # tuples are walked, never shared state
            if id(obj) in found:
                continue
            found[id(obj)] = obj
        stack.extend(children)
    return found


def shared_mutables(a, b) -> list:
    ours, theirs = mutables(a), mutables(b)
    return [ours[i] for i in ours.keys() & theirs.keys()]


def snapshot(world: World) -> tuple:
    return canonical_state(world), copy.deepcopy(world.history)


@pytest.mark.parametrize("make_world",
                         [initial_world, tableless_world, rich_world])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_clone_matches_deepcopy_and_leaves_parent_alone(make_world, data):
    parent = make_world()
    twin = copy.deepcopy(parent)
    for _ in range(data.draw(st.integers(1, 6), label="steps")):
        before = snapshot(parent)
        clone, ref = parent.clone(), copy.deepcopy(twin)
        assert shared_mutables(parent, clone) == []
        assert vars(clone) == vars(ref)
        commands = enabled_commands(clone, CFG)
        if not commands:
            break
        _, actor, op, args = data.draw(st.sampled_from(commands), label="command")
        got = execute_step(clone, Host(HostPolicy.COOPERATIVE), actor, op, args)
        want = execute_step(ref, Host(HostPolicy.COOPERATIVE), actor, op, args)
        assert got == want
        assert canonical_state(clone) == canonical_state(ref)
        assert vars(clone) == vars(ref)
        assert snapshot(parent) == before
        parent, twin = clone, ref


def test_rich_world_clone_equals_deepcopy():
    world = rich_world()
    assert world.events and world.history.flushes and world.disabled_checks
    assert vars(world.clone()) == vars(copy.deepcopy(world))


def test_walker_sees_a_shallow_copy():
    world = rich_world()
    assert shared_mutables(world, copy.copy(world))
    assert shared_mutables(world, copy.deepcopy(world)) == []


def test_walker_catches_a_field_clone_forgets():
    world = rich_world()
    notes = []
    next(iter(world.realms.values())).notes = notes
    assert any(obj is notes for obj in shared_mutables(world, world.clone()))
