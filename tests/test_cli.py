import json

import pytest

from csmsim.cli import main
from csmsim.harness import ARGS, OPS, parse_scenario


def test_builtin_list(capsys):
    assert main(["builtin", "--list"]) == 0
    out = capsys.readouterr().out
    assert "happy_path" in out and "starving_host" in out


def test_builtin_run_with_trace(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    assert main(["builtin", "happy_path", "--trace", str(trace)]) == 0
    lines = trace.read_text().splitlines()
    assert json.loads(lines[0])["scenario"] == "happy_path"


def test_builtin_unknown_name_is_usage_error(capsys):
    assert main(["builtin", "no_such_thing"]) == 2


def test_run_scenario_file(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({
        "schema": 1, "name": "tiny",
        "steps": [{"actor": "host", "op": "world_stats",
                   "expect": {"ok": {"realms": 0}}}],
    }))
    assert main(["run", str(path)]) == 0


def test_run_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": 1, "steps": [
        {"actor": "host", "op": "not_an_op"}]}))
    assert main(["run", str(path)]) == 2


def test_run_missing_argument_is_usage_error(tmp_path, capsys):
    path = tmp_path / "missing.json"
    path.write_text(json.dumps({"schema": 1, "steps": [
        {"op": "granule_delegate", "args": {}}]}))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "ParseError: step 0: op 'granule_delegate' missing argument(s) granule"]


def test_run_failed_expectation_exit_code(tmp_path, capsys):
    path = tmp_path / "fail.json"
    path.write_text(json.dumps({
        "schema": 1,
        "steps": [{"actor": "host", "op": "granule_delegate",
                   "args": {"granule": 0}, "expect": {"error": "BadState"}}],
    }))
    assert main(["run", str(path)]) == 1
    assert "expected" in capsys.readouterr().err


def test_explore_outputs_report(capsys):
    assert main(["explore", "--realms", "2", "--granules", "6",
                 "--depth", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["states"] > 1
    assert report["violations"] == []


def test_explore_mutant_fails(capsys):
    code = main(["explore", "--realms", "2", "--granules", "8", "--depth", "4",
                 "--mutant", "attach_size_equality"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["violations"]


# Numeric options out of range: one line and exit 2, not a traceback.
@pytest.mark.parametrize("argv", [
    ["explore", "--depth", "1", "--granules", "-20"],
    ["explore", "--depth", "1", "--granules", "1"],
    ["explore", "--depth", "1", "--realms", "-1"],
    ["explore", "--depth", "1", "--seed", "-1"],
    ["bench", "--size", "8", "--iters", "0"],
    ["bench", "--size", "-1"],
    ["explore", "--depth", "1", "--granules", str(1 << 62)],
    ["explore", "--depth", "-1"],
    ["explore", "--depth", "1", "--csm-max-size", "0"],
    ["explore", "--depth", "1", "--csm-max-size", "129"],
    ["explore", "--depth", "1", "--csm-max-size", "100000000"],
    ["explore", "--depth", "1", "--state-cap", "0"],
    ["explore", "--depth", "1", "--granules", "1000000"],
    ["bench", "--size", str(1 << 40)],
    ["bench", "--size", "8", "--iters", str(10 ** 12)],
], ids=["negative_granules", "granules_below_realms", "negative_realms",
        "negative_seed", "zero_iters", "negative_size", "huge_granules",
        "negative_depth", "zero_csm_max_size", "csm_max_size_above_half",
        "huge_csm_max_size", "zero_state_cap", "oracle_too_large",
        "huge_size", "huge_iters"])
def test_bad_numeric_option_is_usage_error(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("ParseError: ")


def test_explore_unknown_mutant_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["explore", "--depth", "2", "--mutant", "typo"])
    assert exit_.value.code == 2
    assert "invalid choice: 'typo'" in capsys.readouterr().err


def test_bench_appends_csv(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    assert main(["bench", "--mode", "plaintext", "--size", "256",
                 "--iters", "16", "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("mode,size_bytes,iters")
    assert lines[1].startswith("plaintext,256,16")


def test_policy_override_flag(tmp_path, capsys):
    # Under a starving host the same scenario's create would stay pending;
    # the cooperative default lets it complete, so the expectation differs.
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "schema": 1, "policy": "starve",
        "steps": [
            {"actor": "host", "op": "granule_delegate", "args": {"granule": 0}},
            {"actor": "host", "op": "rmi_realm_create",
             "args": {"rd": 0, "ipa_width": 20}, "bind": "A"},
            {"actor": "host", "op": "granule_delegate", "args": {"granule": 1}},
            {"actor": "host", "op": "rmi_apt_create",
             "args": {"rd": 0, "granule": 1}},
            {"actor": "host", "op": "granule_delegate", "args": {"granule": 2}},
            {"actor": "host", "op": "rmi_rec_create",
             "args": {"rd": 0, "granule": 2}},
            {"actor": "host", "op": "granule_delegate", "args": {"granule": 3}},
            {"actor": "host", "op": "rmi_rtt_create",
             "args": {"rd": 0, "granule": 3, "ipa": 0}},
            {"actor": "host", "op": "rmi_realm_activate", "args": {"rd": 0}},
            {"actor": "realm:A", "op": "rsi_csm_create",
             "args": {"base": 8192, "size": 1}, "expect": "pending"},
        ],
    }))
    assert main(["run", str(path)]) == 0
    # Overriding to cooperative completes the call: "pending" no longer met.
    assert main(["run", str(path), "--policy", "cooperative"]) == 1


# A probe step without the arguments its policy's probe takes. The policy can
# be overridden on the command line, so the check runs before step 0.
@pytest.mark.parametrize("argv", [
    ["builtin", "attack_host_probe", "--policy", "double_mapper"],
    ["builtin", "attack_host_probe", "--policy", "toctou_swapper"],
    ["builtin", "attack_toctou_rd_swap", "--policy", "double_mapper"],
    ["run", "{file}"],
], ids=["host_probe-double_mapper", "host_probe-toctou_swapper",
        "toctou_rd_swap-double_mapper", "run_file"])
def test_probe_missing_policy_arguments_is_usage_error(argv, tmp_path, capsys):
    path = tmp_path / "probe.json"
    path.write_text(json.dumps({"schema": 1, "policy": "double_mapper",
                                "steps": [{"op": "adversarial_step",
                                           "args": {}}]}))
    assert main([a.format(file=path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert "'adversarial_step'" in err and "missing argument(s)" in err


@pytest.mark.parametrize("args", [
    {"ipa_width": 70000},
    {"ipa_width": 20, "image": [[0, "00" * 4097]]},
], ids=["ipa_width", "oversized_content"])
def test_owner_expectation_rejects_what_the_monitor_refuses(args, tmp_path,
                                                            capsys):
    path, trace = tmp_path / "owner.json", tmp_path / "t.jsonl"
    path.write_text(json.dumps({"schema": 1, "steps": [
        {"op": "granule_delegate", "args": {"granule": 0}},
        {"op": "rmi_realm_create", "args": {"rd": 0}, "bind": "R"},
        {"actor": "owner:R", "op": "owner_compute_expectation", "args": args,
         "expect": {"error": "BadState"}}]}))
    assert main(["run", str(path), "--trace", str(trace)]) == 0
    last = json.loads(trace.read_text().splitlines()[-1])
    assert last["result"]["error"] == "BadState"
    assert "Traceback" not in capsys.readouterr().err


# Arguments and fields of the wrong type: one line and exit 2, not a
# traceback from deep inside the monitor.
@pytest.mark.parametrize("doc", [
    {"steps": [{"op": "granule_delegate", "args": {"granule": "x"}}]},
    {"policy": "double_mapper",
     "steps": [{"op": "adversarial_step", "args": {"rd": [1], "ipa": 0}}]},
    {"granules": "many", "steps": [{"op": "world_stats"}]},
    {"seed": "abc", "steps": [{"op": "world_stats"}]},
    {"seed": -1, "steps": [{"op": "world_stats"}]},
    {"steps": [{"actor": "root", "op": "physical_access",
                "args": {"granule": 0, "kind": "write", "data": "zz"}}]},
    {"steps": [{"op": "rmi_data_create",
                "args": {"rd": 0, "granule": 1, "ipa": 0, "content": 7}}]},
    {"steps": [{"op": "granule_delegate", "args": {"granule": True}}]},
    {"steps": [{"actor": "owner:R", "op": "owner_compute_expectation",
                "args": {"ipa_width": 20, "image": "x"}}]},
    {"steps": [{"actor": "owner:R", "op": "verify_token",
                "args": {"token": 5, "expectation": "@R"}}]},
    {"steps": [{"actor": "realm:R", "op": "rsi_csm_attach",
                "args": {"sharing": [1, 2]}}]},
    {"steps": [{"actor": "root", "op": "physical_access",
                "args": {"granule": 0, "kind": "Write", "data": "41"}}]},
    {"steps": [{"actor": "realm:R", "op": "realm_access",
                "args": {"ipa": 0, "kind": "Write", "data": "41"}}]},
    {"steps": [{"actor": "realm:R", "op": "realm_access",
                "args": {"ipa": 0, "kind": "read", "lenght": 4}}]},
    {"steps": [{"op": "granule_delegate", "args": {"granule": 1, "granuel": 2}}]},
    {"steps": [{"op": "world_stats", "args": {"verbose": 1}}]},
    {"policy": "prober",
     "steps": [{"op": "adversarial_step", "args": {"rd": 0, "granule": 3}}]},
    {"steps": [{"actor": 5, "op": "world_stats"}]},
    {"steps": [{"op": ["world_stats"]}]},
    {"steps": [{"op": "world_stats", "bind": ["x"]}]},
    {"steps": [{"actor": "host:foo", "op": "world_stats"}]},
    {"granules": 1 << 62, "steps": [{"op": "world_stats"}]},
], ids=["granule", "probe_rd", "granules", "seed", "negative_seed", "data",
        "content", "bool", "image", "token", "sharing", "physical_kind",
        "realm_kind", "unknown_access_arg", "unknown_host_arg",
        "arg_of_argless_op", "unknown_probe_arg", "actor_int", "op_list",
        "bind_list", "world_actor_alias", "huge_granules"])
def test_run_wrong_argument_type_is_usage_error(doc, tmp_path, capsys):
    bind = [{"op": "granule_delegate", "args": {"granule": 0}},
            {"op": "rmi_realm_create", "args": {"rd": 0}, "bind": "R"}]
    if "R" in json.dumps(doc["steps"]):
        doc = {**doc, "steps": bind + doc["steps"]}
    path = tmp_path / "typed.json"
    path.write_text(json.dumps({"schema": 1, **doc}))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("ParseError: ")


# Generated from the op table: every argument an op declares, but for
# ``perm``, which the monitor checks. A wrong literal is refused when the
# file is parsed, and a reference bound to a wrong value before its step
# runs, each with one line that names the argument.
WRONG_LITERALS = {"an integer": True, "a hex string": "zz",
                  '"read" or "write"': "Write", "a list of 3 integers": [1, 2],
                  "a list of [ipa, hex content] pairs": "x",
                  "a reference to an AttestationToken": 5,
                  "a reference to an OwnerExpectation": 5}
VALID_LITERALS = {"an integer": 0, "a hex string": "00",
                  '"read" or "write"': "read", "a list of 3 integers": [0, 0, 0],
                  "a list of [ipa, hex content] pairs": [], "a permission": "ro",
                  "a reference to an AttestationToken": "@R",
                  "a reference to an OwnerExpectation": "@R"}
TYPED_ARGS = [(op, name) for op, spec in sorted(OPS.items())
              for name in (*spec.required, *spec.optional) if name != "perm"]


def _typed_step(op: str, name: str, value) -> dict:
    """A step of ``op`` whose argument ``name`` is ``value``, listed first,
    and whose other required arguments are valid literals."""
    args = {name: value}
    for other in OPS[op].required:
        args.setdefault(other, VALID_LITERALS[ARGS[other].want])
    kind = sorted(OPS[op].actors)[0]
    actor = f"{kind}:R" if kind in ("realm", "owner") else kind
    return {"actor": actor, "op": op, "args": args}


def _run_refused(steps, tmp_path, capsys) -> str:
    path = tmp_path / "typed.json"
    path.write_text(json.dumps({"schema": 1, "steps": [
        {"op": "granule_delegate", "args": {"granule": 0}, "bind": "N"},
        {"op": "rmi_realm_create", "args": {"rd": 0}, "bind": "R"}, *steps]}))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.splitlines()) == 1
    return err


@pytest.mark.parametrize("op,name", TYPED_ARGS, ids=[f"{o}-{n}" for o, n in TYPED_ARGS])
def test_wrong_literal_argument_is_usage_error(op, name, tmp_path, capsys):
    step = _typed_step(op, name, WRONG_LITERALS[ARGS[name].want])
    err = _run_refused([step], tmp_path, capsys)
    assert err.startswith(f"ParseError: step 2: op {op!r} argument {name!r} "
                          f"must be {ARGS[name].want}")


@pytest.mark.parametrize("op,name", TYPED_ARGS, ids=[f"{o}-{n}" for o, n in TYPED_ARGS])
def test_wrong_bound_argument_is_usage_error(op, name, tmp_path, capsys):
    # A realm id where anything but an integer belongs, and None (the
    # result of a delegation) where an integer does.
    ref = "@N" if ARGS[name].want == "an integer" else "@R"
    err = _run_refused([_typed_step(op, name, ref)], tmp_path, capsys)
    assert err.startswith(f"ParseError: step 2: op {op!r} argument {name!r} "
                          f"must be {ARGS[name].want}, but {ref!r} is bound to")


def test_seed_override_out_of_range_is_usage_error(capsys):
    assert main(["builtin", "happy_path", "--seed", "-1"]) == 2
    assert capsys.readouterr().err.startswith("ParseError: seed")


def test_references_pass_the_type_checks():
    parse_scenario({"schema": 1, "steps": [
        {"op": "granule_delegate", "args": {"granule": 0}},
        {"op": "rmi_realm_create", "args": {"rd": 0}, "bind": "R"},
        {"actor": "realm:R", "op": "rsi_csm_attach",
         "args": {"sharing": ["@R", "@R", 0]}},
        {"op": "granule_delegate", "args": {"granule": "@R"}}]})


# A reference whose bound value has the wrong type: the same one line and
# exit 2 as a wrong literal, before the step runs.
@pytest.mark.parametrize("step", [
    {"actor": "owner:R", "op": "verify_token",
     "args": {"token": "@R", "expectation": "@R"}},
    {"actor": "owner:R", "op": "owner_release_peer_id",
     "args": {"token": "@S", "expectation": "@S"}},
    {"op": "granule_delegate", "args": {"granule": "@N"}},
    {"actor": "realm:R", "op": "rsi_csm_attach",
     "args": {"sharing": ["@R", "@N", 0]}},
    {"actor": "realm:R", "op": "rsi_csm_attach", "args": {"sharing": "@R"}},
    {"actor": "realm:S", "op": "rsi_attestation_token"},
    {"actor": "root", "op": "physical_access",
     "args": {"granule": 1, "kind": "@S", "data": "41"}},
], ids=["token_int", "token_dict", "granule_none", "sharing_element",
        "sharing_int", "actor_dict", "kind_dict"])
def test_run_wrong_bound_type_is_usage_error(step, tmp_path, capsys):
    path = tmp_path / "bound.json"
    path.write_text(json.dumps({"schema": 1, "steps": [
        {"op": "granule_delegate", "args": {"granule": 0}, "bind": "N"},
        {"op": "rmi_realm_create", "args": {"rd": 0}, "bind": "R"},
        {"op": "world_stats", "bind": "S"},
        step]}))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith("ParseError: step 3: ") and "is bound to" in err
