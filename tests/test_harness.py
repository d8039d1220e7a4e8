import hashlib
import json

import pytest

from csmsim.errors import ParseError
from csmsim.harness import (
    OPS,
    RunConfig,
    builtin_scenarios,
    load_scenario,
    parse_scenario,
    run_scenario,
    trace_to_bytes,
)
from csmsim.host import PROBES, Host
from csmsim.rmm import World

MINIMAL = {
    "schema": 1,
    "name": "minimal",
    "steps": [
        {"actor": "host", "op": "granule_delegate", "args": {"granule": 0}},
        {"actor": "host", "op": "rmi_realm_create",
         "args": {"rd": 0, "ipa_width": 20}, "bind": "R", "expect": {"ok": 1}},
    ],
}


def test_parse_minimal():
    scenario = parse_scenario(MINIMAL)
    assert scenario.name == "minimal"
    assert len(scenario.steps) == 2
    assert run_scenario(scenario)[1] == 0


def test_parse_rejects_wrong_schema():
    with pytest.raises(ParseError):
        parse_scenario({"schema": 2, "steps": [{"op": "world_stats"}]})


def test_parse_rejects_unknown_op():
    bad = {"schema": 1, "steps": [{"actor": "host", "op": "rmi_warp_drive"}]}
    with pytest.raises(ParseError, match="unknown op"):
        parse_scenario(bad)


def test_parse_rejects_dangling_alias():
    bad = {"schema": 1, "steps": [
        {"actor": "host", "op": "rmi_realm_activate", "args": {"rd": "@ghost"}}]}
    with pytest.raises(ParseError, match="dangling reference"):
        parse_scenario(bad)


def test_parse_rejects_unbound_actor():
    bad = {"schema": 1, "steps": [
        {"actor": "realm:P", "op": "rsi_csm_create",
         "args": {"base": 0, "size": 1}}]}
    with pytest.raises(ParseError, match="not bound"):
        parse_scenario(bad)


def test_parse_rejects_actor_op_mismatch():
    bad = {"schema": 1, "steps": [
        {"actor": "host", "op": "rsi_csm_create", "args": {"base": 0, "size": 1}}]}
    with pytest.raises(ParseError, match="not callable"):
        parse_scenario(bad)


def test_required_arguments_cover_every_handler():
    """Given only its required arguments, a handler may fail, but never for
    want of an argument, so the parser's missing-argument check is complete."""
    for op, (_, required, handler) in OPS.items():
        try:
            handler(World(granule_count=4), Host(), "host", None,
                    dict.fromkeys(required, 0))
        except KeyError as err:
            pytest.fail(f"{op} reads argument {err} outside its required set")
        except Exception:  # any other failure is fine here
            pass
    for policy, (_, names) in PROBES.items():
        try:
            Host(policy).adversarial_step(World(granule_count=4),
                                          **dict.fromkeys(names, 0))
        except KeyError as err:
            pytest.fail(f"{policy.value} probe reads argument {err} outside "
                        f"its table entry")
        except Exception:
            pass


def test_parse_rejects_malformed_expect():
    bad = {"schema": 1, "steps": [
        {"actor": "host", "op": "world_stats", "expect": {"maybe": 1}}]}
    with pytest.raises(ParseError, match="malformed expect"):
        parse_scenario(bad)


def test_parse_rejects_unknown_policy():
    with pytest.raises(ParseError, match="policy"):
        parse_scenario({"schema": 1, "policy": "chaotic", "steps": MINIMAL["steps"]})


def test_load_scenario_file_errors(tmp_path):
    with pytest.raises(ParseError):
        load_scenario(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_scenario(str(bad))


def test_load_scenario_round_trip(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(MINIMAL))
    scenario = load_scenario(str(path))
    trace, code = run_scenario(scenario)
    assert code == 0


def test_expectation_mismatch_aborts_with_failure(tmp_path):
    scenario = parse_scenario({
        "schema": 1,
        "steps": [
            {"actor": "host", "op": "granule_delegate", "args": {"granule": 0}},
            {"actor": "host", "op": "rmi_realm_create", "args": {"rd": 0},
             "expect": {"ok": 7}},
            {"actor": "host", "op": "world_stats"},
        ],
    })
    trace, code = run_scenario(scenario)
    assert code == 1
    failed = [e for e in trace if e.get("expectation_failed")]
    assert len(failed) == 1
    assert failed[0]["expectation_failed"] == {"expected": {"ok": 7}, "got": 1}
    # Execution stopped at the mismatch: header + two steps only.
    assert len(trace) == 3


def test_expected_errors_count_as_met():
    scenario = parse_scenario({
        "schema": 1,
        "steps": [
            {"actor": "host", "op": "granule_undelegate", "args": {"granule": 0},
             "expect": {"error": "BadState"}},
        ],
    })
    assert run_scenario(scenario)[1] == 0


def test_builtin_registry_contents():
    registry = builtin_scenarios()
    assert len(registry) >= 11
    for name in ("happy_path", "two_consumers", "dedup_accounting",
                 "attack_impersonation", "attack_fake_csm", "attack_oob_access",
                 "attack_overlap_reserve", "attack_toctou_rd_swap",
                 "attack_host_probe", "attack_double_map", "starving_host"):
        assert name in registry


@pytest.mark.parametrize("name", sorted(builtin_scenarios()))
def test_builtin_runs_clean(name):
    trace, code = run_scenario(builtin_scenarios()[name])
    assert code == 0
    assert all(not e.get("invariants") for e in trace if "invariants" in e)


def test_trace_replay_is_byte_identical():
    scenario = builtin_scenarios()["happy_path"]
    first = trace_to_bytes(run_scenario(scenario)[0])
    second = trace_to_bytes(run_scenario(scenario)[0])
    assert first == second


# sha256 of each builtin's trace under its own policy and seed. This is a
# regression pin: a change meant to leave behaviour alone must leave these
# alone; a change meant to alter a trace updates them and says why.
BUILTIN_TRACE_SHA256 = {
    "attack_double_map": "f3e79e1b2b52f0d0f9539b72bafe2ad2fed55b13a904cf4af5504d119839dd46",
    "attack_fake_csm": "0c98a7ac9d07b66bdf724084ba4893d03b5cf2869a0baf5c01c74dca24c8bf29",
    "attack_host_probe": "b430fed25ff41c18ad0ee1f4df36c4698cd03a934a868ed941303bb79a203b09",
    "attack_impersonation": "f3413dca6986f349328abbab00c575cdc85c06a3aa4db3e067797f24d7084ed5",
    "attack_oob_access": "8e9f9d020ff308f410864bef1379f9f48841902a4ac802ec01328f7a4902c9c6",
    "attack_overlap_reserve": "8fffa97be39f6b0782c0ceb6f32845a98902ba83a1b2fa4396887e8b875a07a5",
    "attack_toctou_rd_swap": "a9441497df6962b5dea67d083025dde7d067dc9125e85321f4a0fc35e7544a04",
    "dedup_accounting": "906efa169914c165874100d7b434871cb5d3915846570b969176f091af60cf7e",
    "happy_path": "527d6ecf5d8a2bf5153e11c4fae0d640edc58b511296433f2d8c7442f4dd0f42",
    "starving_host": "0554f8efa0ab56aba822119ac84c81751aa59a3e27e3c4855078f3791322cd96",
    "two_consumers": "2a0985e1826d193cff46367190ce75acb1fec59eec8971c9643bc52002502f57",
}


@pytest.mark.parametrize("name", sorted(builtin_scenarios()))
def test_builtin_trace_bytes_are_pinned(name):
    trace, _ = run_scenario(builtin_scenarios()[name])
    digest = hashlib.sha256(trace_to_bytes(trace)).hexdigest()
    assert digest == BUILTIN_TRACE_SHA256.get(name)


def test_different_seed_changes_signatures_only():
    scenario = builtin_scenarios()["happy_path"]
    a, code_a = run_scenario(scenario, RunConfig(seed=1))
    b, code_b = run_scenario(scenario, RunConfig(seed=2))
    assert code_a == code_b == 0
    assert trace_to_bytes(a) != trace_to_bytes(b)


def test_trace_file_is_valid_jsonl(tmp_path):
    path = tmp_path / "out.jsonl"
    scenario = builtin_scenarios()["two_consumers"]
    trace, code = run_scenario(scenario, RunConfig(trace_path=str(path)))
    assert code == 0
    lines = path.read_text().splitlines()
    assert len(lines) == len(trace)
    header = json.loads(lines[0])
    assert header["scenario"] == "two_consumers"
    for line in lines[1:]:
        event = json.loads(line)
        assert {"step", "actor", "op", "result"} <= set(event)


def test_happy_path_consumer_reads_provider_bytes():
    trace, code = run_scenario(builtin_scenarios()["happy_path"])
    assert code == 0
    reads = [e for e in trace
             if e.get("op") == "realm_access" and e["args"].get("kind") == "read"]
    payload = bytes.fromhex(reads[0]["result"])
    assert payload == b"hello from provider"
