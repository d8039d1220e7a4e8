from conftest import build_realm, rsi
from csmsim.explorer import (
    ExplorationConfig,
    access_oracle,
    build_initial_world,
    canonical_state,
    enabled_commands,
    explore,
    oracle_mismatches,
)
from csmsim.granules import GranuleState


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
