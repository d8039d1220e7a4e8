import hashlib
import json
import weakref

import pytest

from conftest import build_realm, rsi
from csmsim import explorer, harness
from csmsim.explorer import (
    ExplorationConfig,
    access_oracle,
    build_initial_world,
    canonical_state,
    enabled_commands,
    explore,
    operational_matrix,
    oracle_mismatches,
)
from csmsim.errors import ParseError
from csmsim.granules import GranuleState, PasTag, SecurityState
from csmsim.harness import execute_step
from csmsim.host import Host, HostPolicy
from csmsim.rmm import World
from test_clone import rich_world


def test_depth_zero_visits_initial_state_only():
    report = explore(ExplorationConfig(depth=0))
    assert report.states == 1
    assert report.violations == []
    assert report.oracle_mismatches == []


def test_small_exploration_is_clean():
    report = explore(ExplorationConfig(realm_count=2, granule_count=8, depth=3))
    assert report.states > 100
    assert report.violations == []
    assert report.oracle_mismatches == []
    assert report.depth_reached == 3


def test_three_realms_shallow_clean():
    report = explore(ExplorationConfig(realm_count=3, granule_count=10, depth=2))
    assert report.violations == []
    assert report.oracle_mismatches == []


def test_mutant_attach_size_check_caught_quickly():
    report = explore(ExplorationConfig(
        realm_count=2, granule_count=8, depth=4,
        disabled_checks=("attach_size_equality",)))
    assert report.violations
    shortest = min(len(v["sequence"]) for v in report.violations)
    assert shortest <= 4
    first = min(report.violations, key=lambda v: len(v["sequence"]))
    codes = {item["invariant"] for item in first["violations"]}
    # The oversized window maps provider-private granules: a disjointness
    # and consent breach.
    assert codes & {"I1", "I5"}


def test_a_misspelt_mutant_is_refused():
    """An unknown check name would otherwise run an unmutated exploration."""
    with pytest.raises(ParseError, match="attach_size_eqality"):
        explore(ExplorationConfig(depth=4,
                                  disabled_checks=("attach_size_eqality",)))


@pytest.mark.parametrize("fields,match", [
    ({"csm_max_size": 0}, "csm_max_size"),
    ({"csm_max_size": explorer.MAX_CSM_SIZE + 1}, "csm_max_size"),
    ({"granule_count": 1_000_000}, "access oracle"),
    ({"realm_count": 1000, "granule_count": 1000}, "access oracle"),
], ids=["zero_csm_max_size", "csm_max_size_above_half", "many_granules",
        "many_realms"])
def test_a_config_past_its_bounds_is_refused(fields, match):
    """Refused before the first world is built: a create of more than the
    protected half can never succeed, and the reference oracle's matrix
    grows with realms times granules."""
    with pytest.raises(ParseError, match=match):
        explore(ExplorationConfig(depth=1, **fields))


def test_the_largest_create_fits_the_protected_half():
    world = explorer.build_initial_world(ExplorationConfig(
        realm_count=1, granule_count=explorer.MAX_CSM_SIZE + 8))
    coop = Host(HostPolicy.COOPERATIVE)
    size = explorer.MAX_CSM_SIZE
    _, result, _ = execute_step(world, coop, "realm:1", "rsi_csm_create",
                                {"base": 0, "size": size})
    assert not isinstance(result, dict), result
    _, result, _ = execute_step(world, coop, "realm:1", "rsi_csm_create",
                                {"base": 0, "size": size + 1})
    assert result["error"] == "BadState"


def test_low_level_host_commands_clean():
    report = explore(ExplorationConfig(
        realm_count=2, granule_count=6, depth=3,
        commands=("csm_create", "host_data")))
    assert report.violations == []
    assert report.oracle_mismatches == []


def test_data_granules_never_reenter_delegation_without_destroy():
    """Across every reachable state, a granule in the data state is never
    simultaneously delegatable: delegation is only reachable again after an
    explicit unmap wiped it back."""
    cfg = ExplorationConfig(realm_count=2, granule_count=6, depth=3,
                            commands=("csm_create", "host_data"))
    world = build_initial_world(cfg)
    # Every enabled delegate command targets an undelegated granule; no
    # command ever proposes delegating a data granule.
    for label, actor, op, args in enabled_commands(world, cfg):
        if op == "granule_delegate":
            assert world.granules[args["granule"]].state is GranuleState.UNDELEGATED


def test_state_dedup_is_structural():
    cfg = ExplorationConfig()
    a = build_initial_world(cfg)
    b = build_initial_world(cfg)
    assert canonical_state(a) == canonical_state(b)
    b.granules.write(4, b"drift")  # granule 4 is realm 1's private data
    assert canonical_state(a) != canonical_state(b)


def test_canonical_state_ignores_history():
    cfg = ExplorationConfig()
    a = build_initial_world(cfg)
    key = canonical_state(a)
    a.history.flushes.append((1, 0))
    a.history.invalidations.append((1, 0))
    assert canonical_state(a) == key


def test_oracle_matches_operational_on_rich_state(world, coop):
    p = build_realm(world, 0, image=[(8, 0x2000, b"payload")])
    c = build_realm(world, 16)
    csm = rsi(world, coop, p, "rsi_csm_create", base=0x2000, size=2)
    sid = rsi(world, coop, p, "rsi_csm_share", csm=csm, c_id=c, perm="ro")
    rsi(world, coop, c, "rsi_csm_reserve", sharing=sid, base=0x5000, size=2)
    rsi(world, coop, c, "rsi_csm_attach", sharing=sid)
    world.rmi_unprotected_map(0, 0x80000, 40)
    assert oracle_mismatches(world) == []
    oracle = access_oracle(world)
    # The consumer row gained exactly the region's granules, read-only.
    shared_pas = [world.rmi_rtt_read_entry(0, 0x2000)["pa"],
                  world.rmi_rtt_read_entry(0, 0x3000)["pa"]]
    consumer_row = {g: lvl for (a, g), lvl in oracle.items()
                    if a == f"realm:{c}" and lvl != "none"}
    assert consumer_row == {shared_pas[0]: "read", shared_pas[1]: "read"}
    # Normal world reaches nothing realm-owned; root reaches everything.
    for g in range(len(world.granules)):
        if world.granules[g].pas.value == "realm":
            assert oracle[("normal", g)] == "none"
        assert oracle[("root", g)] == "read_write"


def test_suspended_realm_has_empty_oracle_row(world):
    from csmsim.harness import execute_step
    from csmsim.host import Host, HostPolicy

    p = build_realm(world, 0, image=[(8, 0x0000, b"x")])
    execute_step(world, Host(HostPolicy.STARVE), f"realm:{p}",
                 "rsi_csm_create", {"base": 0x2000, "size": 1})
    oracle = access_oracle(world)
    assert all(lvl == "none" for (a, g), lvl in oracle.items()
               if a == f"realm:{p}")
    assert oracle_mismatches(world) == []


def test_initial_state_violation_is_recorded_once(monkeypatch):
    flagged = [{"invariant": "I0", "detail": "flagged"}]
    monkeypatch.setattr("csmsim.explorer.check_invariants",
                        lambda world: list(flagged))
    report = explore(ExplorationConfig(depth=0))
    assert report.violations == [{"sequence": [], "violations": flagged}]


def test_state_cap_reports_budget_exceeded():
    report = explore(ExplorationConfig(depth=4, state_cap=50))
    assert report.budget_exceeded
    assert report.states >= 50


def test_report_json_shape():
    report = explore(ExplorationConfig(depth=1))
    out = report.to_json()
    assert set(out) == {"states", "transitions", "depth_reached", "violations",
                        "oracle_mismatches", "budget_exceeded", "wall_time_s"}


# sha256 of repr(canonical_state(world)), recorded before the key was made
# cheaper. perfbench's monitor-churn fingerprint hashes the same repr, so the
# key's value must not change, only the cost of computing it.
CANONICAL_KEY_SHA256 = {
    "initial": "97981d5c9f4f9331edcd152656e86a2086654272b5eb53498333a8f943519aec",
    "rich": "bec665c9d996f97716a65d7eece35f234a4eaae7718ef9687f5be669df8da046",
    "happy_path": "d2abcf1a468bdfffbe19d0fe624c3bb4fb9b68c33e4fbe263b81a4d3cad6a9ee",
    "two_consumers": "24335e3d7fd0e1efde44e61ebcc5ae8fef1b891f928984b94dc353ebe6f31dfd",
}


def final_builtin_world(name, monkeypatch):
    """The world a builtin scenario ends in, taken from the final audit."""
    seen = []
    reference = harness.check_all
    monkeypatch.setattr(harness, "check_all",
                        lambda world: seen.append(world) or reference(world))
    assert harness.run_scenario(harness.builtin_scenarios()[name])[1] == 0
    return seen[-1]


@pytest.mark.parametrize("name", sorted(CANONICAL_KEY_SHA256))
def test_canonical_key_is_pinned(name, monkeypatch):
    if name == "initial":
        world = build_initial_world(ExplorationConfig())
    elif name == "rich":
        world = rich_world()
    else:
        world = final_builtin_world(name, monkeypatch)
    key = repr(canonical_state(world)).encode()
    assert hashlib.sha256(key).hexdigest() == CANONICAL_KEY_SHA256[name]
    # A second key of the same world reads the content digests back from
    # the memo; it must be the same bytes.
    assert repr(canonical_state(world)).encode() == key


# ------------------------------------------------ touched-rows oracle pass

MUTANT = ("attach_size_equality",)
HOST_DATA = ("csm_create", "host_data")
WORLD_ACTORS = ("normal", "secure", "root")


def _ordered(mismatches: list) -> list:
    return sorted(mismatches, key=lambda m: (m["actor"], m["granule"]))


_matrices = weakref.WeakKeyDictionary()


def _world_rows(world: World, skip) -> tuple:
    """The normal/secure/root cells of both matrices, minus granules skip."""
    if world not in _matrices:
        _matrices[world] = (access_oracle(world), operational_matrix(world))
    return tuple({key: level for key, level in matrix.items()
                  if key[0] in WORLD_ACTORS and key[1] not in skip}
                 for matrix in _matrices[world])


# sha256 of each report's JSON (sorted keys, without wall_time_s), recorded
# before worlds were released early and oracle rows limited to touched
# granules: the same states, transitions, violations and sequences.
REPORT_SHA256 = {
    "depth0": ({"depth": 0}, "139141061ff9e5febc77348b3172224c97aacdb89ca9702d52679949dcb30a77"),
    "depth1": ({"depth": 1}, "919f6dd6931d8752266cdd4e4f497e6d0b2417499b6b3a4003b4c57b3ca6d8de"),
    "depth2": ({"depth": 2}, "0787b68ead668dae3b4986846a26d301b1c017c7c6f73b6ff9caeee626b217f3"),
    "depth3": ({"depth": 3}, "a1265bc2a46288c9a37f458445c95eb112590c4a5b6e9d049b88c664d6184768"),
    "depth4": ({"depth": 4}, "2d5e0887285c9ed9365d2a9fff9541254246f4076de68e1f018e82673adff091"),
    "depth5": ({"depth": 5}, "c2a54d0121c10f06fd2f51106c7d239c50a1177b79afcfc039efd60b279b3106"),
    "mutant5": ({"depth": 5, "disabled_checks": MUTANT},
                "00ee4fe480e82a2307e7822bb75462ea0fb9c60f3537ad3ec2b205a25920c538"),
    "capped": ({"depth": 4, "state_cap": 50},
               "2e785c349101b2a85a59de579a4a48de0576d412998fcdf0065ccab04f720e7d"),
    "host_data3": ({"granule_count": 6, "depth": 3, "commands": HOST_DATA},
                   "a5d4903f5adc8299234d199c7dd7ea65b8587a52494c590cb9eba82e22a3c623"),
    "host_data4": ({"granule_count": 6, "depth": 4, "commands": HOST_DATA},
                   "6a7a8779d04883a6262022398cde3e4db7ca9c141097b07a76f07e3c1a45d3e1"),
}
# These run in test_touched_rows_pass_matches_the_reference.
DIFFERENTIAL = ("depth5", "mutant5", "host_data4")


def _report_digest(report) -> str:
    out = report.to_json()
    del out["wall_time_s"]
    return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()


@pytest.fixture
def parents(monkeypatch):
    """Maps every live clone to the world it was cloned from."""
    found = weakref.WeakKeyDictionary()
    clone = World.clone

    def tracked(self):
        new = clone(self)
        found[new] = self
        return new

    monkeypatch.setattr(World, "clone", tracked)
    return found


@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_touched_rows_pass_matches_the_reference(name, parents, monkeypatch):
    """Every state the pass audits gets the reference's verdict, the rows it
    skips are the parent's rows, cell for cell, and the report is the one
    pinned above."""
    options, digest = REPORT_SHA256[name]
    audited = []

    def differential(world, granules=None):
        got = oracle_mismatches(world, granules)
        if granules is not None:
            assert _ordered(got) == _ordered(oracle_mismatches(world))
            assert _world_rows(world, granules) == \
                _world_rows(parents[world], granules)
            audited.append(len(granules))
        return got

    monkeypatch.setattr(explorer, "oracle_mismatches", differential)
    report = explore(ExplorationConfig(**options))
    assert report.oracle_mismatches == []
    assert len(audited) == report.states - 1  # all but the initial world
    assert any(audited)
    assert _report_digest(report) == digest


def test_oracle_lie_on_a_delegated_granule_is_reported(monkeypatch):
    """A lie that appears only once a transition delegates granule 10 (the
    host's next free granule) is found by the touched-rows pass at depth 1,
    and every record is in the reference's words."""
    cfg = ExplorationConfig(granule_count=6, depth=2, commands=HOST_DATA)
    lied = World.physical_access_allowed

    def lying(self, state, index, kind):
        if index == 10 and state is SecurityState.NORMAL and \
                self.granules[index].pas is PasTag.REALM:
            return True
        return lied(self, state, index, kind)

    monkeypatch.setattr(World, "physical_access_allowed", lying)
    report = explore(cfg)
    assert report.oracle_mismatches
    sequences = [entry["sequence"] for entry in report.oracle_mismatches]
    assert ["delegate(g10)"] in sequences
    for entry in report.oracle_mismatches:
        world = build_initial_world(cfg)
        for label in entry["sequence"]:
            _, actor, op, args = next(c for c in enabled_commands(world, cfg)
                                      if c[0] == label)
            execute_step(world, Host(HostPolicy.COOPERATIVE), actor, op, args)
        assert entry["mismatches"] == oracle_mismatches(world)
    lie = {"actor": "normal", "granule": 10, "oracle": "none",
           "operational": "read_write"}
    assert all(lie in entry["mismatches"] for entry in report.oracle_mismatches)


# --------------------------------------------------------- frontier release

def test_last_level_worlds_are_not_kept(monkeypatch):
    """During the last depth the live worlds are the unexpanded rest of the
    previous level, the world being expanded and the new one being
    checked; no new world of the last level outlives its check."""
    depth = 3
    levels = [explore(ExplorationConfig(depth=d)).states for d in range(depth + 1)]
    previous = levels[depth - 1] - levels[depth - 2]
    refs, live = [], []
    clone = World.clone

    def tracked(self):
        new = clone(self)
        refs.append(weakref.ref(new))
        return new

    checked = 0

    def counting(world):
        nonlocal checked
        checked += 1
        if checked > levels[depth - 1]:  # a state of the last level
            live.append(sum(ref() is not None for ref in refs))
        return []

    monkeypatch.setattr(World, "clone", tracked)
    monkeypatch.setattr(explorer, "check_invariants", counting)
    report = explore(ExplorationConfig(depth=depth))
    assert report.states == levels[depth]
    assert len(live) == levels[depth] - levels[depth - 1]
    assert max(live) <= previous + 1
    assert live[-1] <= 2


@pytest.mark.parametrize("name", sorted(set(REPORT_SHA256) - set(DIFFERENTIAL)))
def test_report_is_pinned(name):
    options, digest = REPORT_SHA256[name]
    assert _report_digest(explore(ExplorationConfig(**options))) == digest
