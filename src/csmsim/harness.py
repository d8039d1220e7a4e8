"""Scenario loading, deterministic step execution, and trace emission.

A scenario is a JSON document (``"schema": 1``) naming a world size, a host
policy, a seed, and an ordered list of steps. Each step names an actor, an
operation, arguments, and an expectation. Steps may bind their result under
a name; later steps reference bound values as ``"@name"`` inside arguments,
which is how scenarios name realms, regions, sharings, and tokens before
the ids exist.

Actors:
  ``host``            the hypervisor (normal world)
  ``root``/``secure`` other worlds, for raw physical probes
  ``realm:NAME``      the realm whose id was bound under NAME
  ``owner:NAME``      the external owner of that realm

Expectations: ``"ok"`` (any success), ``{"ok": pattern}`` (dict patterns
match a subset of keys, lists match exactly, scalars compare equal),
``{"error": "Code"}``, ``"fault"``, or ``"pending"``.

Execution is strictly sequential. After every step the harness hands any
newly emitted exits to the host for one service round, re-enters suspended
vCPUs, runs the global invariant checker, and appends one JSON-lines trace
event. Same scenario plus same seed yields a byte-identical trace.
"""

import json
import reprlib
from dataclasses import dataclass

from . import attestation, csm
from .csm import PENDING
from .errors import ParseError, SimError
from .granules import MAX_GRANULES, SecurityState
from .host import PROBES, Host, HostPolicy
from .invariants import check_all, check_invariants
from .rmm import ACCESS_KINDS, World

SCHEMA_VERSION = 1


@dataclass
class ScenarioStep:
    actor: str
    op: str
    args: dict
    expect: object = "ok"
    bind: str | None = None


@dataclass
class Scenario:
    name: str
    steps: list
    seed: int = 0
    policy: str = "cooperative"
    granules: int = 64


def jsonable(value):
    """Render an operation result or resolved argument for the trace."""
    if isinstance(value, (bytes, bytearray)):
        return bytes(value).hex()
    if isinstance(value, (tuple, list)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, attestation.AttestationToken):
        return value.to_json()
    if isinstance(value, attestation.OwnerExpectation):
        return {"expected_rim": value.expected_rim.hex(),
                "platform_pubkey": value.platform_pubkey.hex(),
                "expected_platform": value.expected_platform.hex()}
    if hasattr(value, "value") and value.__class__.__module__.startswith("csmsim"):
        return value.value
    return value


# --------------------------------------------------------------------- ops

_WORLD_STATES = {"host": SecurityState.NORMAL, "root": SecurityState.ROOT,
                 "secure": SecurityState.SECURE}


def _hex(args, key):
    return bytes.fromhex(args.get(key) or "")


def _op_physical_access(world, host, actor, caller, args):
    state = _WORLD_STATES[actor.split(":")[0]]
    return world.physical_access(state, args["granule"], args["kind"],
                                 offset=args.get("offset", 0),
                                 data=_hex(args, "data"),
                                 length=args.get("length"))


def _op_realm_access(world, host, actor, caller, args):
    return world.realm_access(caller, args["ipa"], args["kind"],
                              offset=args.get("offset", 0),
                              data=_hex(args, "data"),
                              length=args.get("length"))


def _op_data_create(world, host, actor, caller, args):
    return world.rmi_data_create(args["rd"], args["granule"], args["ipa"],
                                 _hex(args, "content"))


def _op_expectation(world, host, actor, caller, args):
    image = [(ipa, bytes.fromhex(content)) for ipa, content in args.get("image", [])]
    return attestation.expected_for_image(world, image, args["ipa_width"])


def _op_adversarial(world, host, actor, caller, args):
    return host.adversarial_step(world, **args)


def _op_compose_sid(world, host, actor, caller, args):
    return csm.compose_sharing_id(args["p"], args["c"], args["counter"])


# Operation table: name -> (allowed actor kinds, required argument names,
# handler). Handlers take (world, host, actor, caller_realm_id, resolved_args).
OPS = {
    # Host-issued granule and realm management commands.
    "granule_delegate": ({"host"}, {"granule"}, lambda w, h, a, c, g: w.granule_delegate(g["granule"])),
    "granule_undelegate": ({"host"}, {"granule"}, lambda w, h, a, c, g: w.granule_undelegate(g["granule"])),
    "rmi_realm_create": ({"host"}, {"rd"}, lambda w, h, a, c, g: w.rmi_realm_create(g["rd"], g.get("ipa_width", 20))),
    "rmi_rec_create": ({"host"}, {"rd", "granule"}, lambda w, h, a, c, g: w.rmi_rec_create(g["rd"], g["granule"])),
    "rmi_apt_create": ({"host"}, {"rd", "granule"}, lambda w, h, a, c, g: w.rmi_apt_create(g["rd"], g["granule"])),
    "rmi_apt_destroy": ({"host"}, {"rd", "granule"}, lambda w, h, a, c, g: w.rmi_apt_destroy(g["rd"], g["granule"])),
    "rmi_rtt_create": ({"host"}, {"rd", "granule", "ipa"}, lambda w, h, a, c, g: w.rmi_rtt_create(g["rd"], g["granule"], g["ipa"])),
    "rmi_rtt_read_entry": ({"host"}, {"rd", "ipa"}, lambda w, h, a, c, g: w.rmi_rtt_read_entry(g["rd"], g["ipa"])),
    "rmi_data_create": ({"host"}, {"rd", "granule", "ipa"}, _op_data_create),
    "rmi_data_create_unknown": ({"host"}, {"rd", "granule", "ipa"}, lambda w, h, a, c, g: w.rmi_data_create_unknown(g["rd"], g["granule"], g["ipa"])),
    "rmi_data_destroy": ({"host"}, {"rd", "ipa"}, lambda w, h, a, c, g: w.rmi_data_destroy(g["rd"], g["ipa"])),
    "rmi_unprotected_map": ({"host"}, {"rd", "ipa", "granule"}, lambda w, h, a, c, g: w.rmi_unprotected_map(g["rd"], g["ipa"], g["granule"])),
    "rmi_realm_activate": ({"host"}, {"rd"}, lambda w, h, a, c, g: w.rmi_realm_activate(g["rd"])),
    "rmi_realm_destroy": ({"host"}, {"rd"}, lambda w, h, a, c, g: w.rmi_realm_destroy(g["rd"])),
    "rec_enter": ({"host"}, {"rd"}, lambda w, h, a, c, g: w.rec_enter(g["rd"])),
    "registry_lookup": ({"host"}, {"id"}, lambda w, h, a, c, g: w.realm_by_id(g["id"]).realm_id),
    "adversarial_step": ({"host"}, set(), _op_adversarial),
    "world_stats": ({"host"}, set(), lambda w, h, a, c, g: w.stats()),
    # Raw physical probes from any world.
    "physical_access": ({"host", "root", "secure"}, {"granule", "kind"}, _op_physical_access),
    # Realm-issued service commands.
    "rsi_csm_create": ({"realm"}, {"base", "size"}, lambda w, h, a, c, g: csm.rsi_csm_create(w, c, g["base"], g["size"])),
    "rsi_csm_share": ({"realm"}, {"csm", "c_id", "perm"}, lambda w, h, a, c, g: csm.rsi_csm_share(w, c, g["csm"], g["c_id"], g["perm"])),
    "rsi_csm_reserve": ({"realm"}, {"sharing", "base", "size"}, lambda w, h, a, c, g: csm.rsi_csm_reserve(w, c, g["sharing"], g["base"], g["size"])),
    "rsi_csm_attach": ({"realm"}, {"sharing"}, lambda w, h, a, c, g: csm.rsi_csm_attach(w, c, g["sharing"])),
    "rsi_csm_revoke": ({"realm"}, {"sharing"}, lambda w, h, a, c, g: csm.rsi_csm_revoke(w, c, g["sharing"])),
    "rsi_csm_destroy": ({"realm"}, {"csm"}, lambda w, h, a, c, g: csm.rsi_csm_destroy(w, c, g["csm"])),
    "rsi_csm_detach_and_free": ({"realm"}, {"sharing"}, lambda w, h, a, c, g: csm.rsi_csm_detach_and_free(w, c, g["sharing"])),
    "rsi_attestation_token": ({"realm"}, set(), lambda w, h, a, c, g: attestation.rsi_attestation_token(w, c)),
    "realm_access": ({"realm"}, {"ipa", "kind"}, _op_realm_access),
    "compose_sharing_id": ({"realm", "owner"}, {"p", "c", "counter"}, _op_compose_sid),
    # Owner-side verification workflow.
    "owner_compute_expectation": ({"owner"}, {"ipa_width"}, _op_expectation),
    "verify_token": ({"owner"}, {"token", "expectation"}, lambda w, h, a, c, g: attestation.verify_token(g["token"], g["expectation"])),
    "owner_release_peer_id": ({"owner"}, {"token", "expectation"}, lambda w, h, a, c, g: attestation.owner_release_peer_id(w, c, g["token"], g["expectation"])),
}
# The names an op takes besides its required arguments; no other is allowed.
_ACCESS_ARGS = {"offset", "data", "length"}
_OPTIONAL_ARGS = {
    "rmi_realm_create": {"ipa_width"}, "rmi_data_create": {"content"},
    "physical_access": _ACCESS_ARGS, "realm_access": _ACCESS_ARGS,
    "owner_compute_expectation": {"image"},
    "adversarial_step": {n for _, names in PROBES.values() for n in names},
}


# ------------------------------------------------------------------ loading

_POLICIES = {p.value for p in HostPolicy}

# The types of literal argument values, by name, for every op. A "@name"
# reference may stand for any of them; its value is bound at run time.
_INT_ARGS = {"granule", "rd", "ipa", "base", "size", "csm", "c_id", "id", "p",
             "c", "counter", "offset", "length", "ipa_width"}
_HEX_ARGS = {"data", "content"}
# Objects with no literal form, by the types a bound value may have; a token
# may also be the bytes of one, as read back from memory.
_REF_ARGS = {"token": (attestation.AttestationToken, bytes, bytearray),
             "expectation": (attestation.OwnerExpectation,)}


def _is_ref(value) -> bool:
    return isinstance(value, str) and value.startswith("@")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_hex(value) -> bool:
    try:
        bytes.fromhex(value)
    except (TypeError, ValueError):
        return False
    return True


def _arg_type_error(name: str, value, bound: bool = False) -> str | None:
    """What an argument value should have been, or None if it fits. A
    literal may be a reference; the value it is bound to is checked at run
    time, with ``bound`` set."""
    if _is_ref(value) and not bound:
        return None
    if name in _INT_ARGS and not _is_int(value):
        return "an integer"
    if name in _HEX_ARGS and not _is_hex(value):
        return "a hex string"
    if name == "kind" and value not in ACCESS_KINDS:
        return '"read" or "write"'
    if name in _REF_ARGS and not (bound and isinstance(value, _REF_ARGS[name])):
        return f"a reference to an {_REF_ARGS[name][0].__name__}"
    if name == "sharing" and not (
            isinstance(value, (list, tuple)) and len(value) == 3 and
            all(_is_int(v) or (_is_ref(v) and not bound) for v in value)):
        return "a list of 3 integers"
    if name == "image" and not (isinstance(value, list) and all(
            isinstance(e, list) and len(e) == 2 and _is_int(e[0]) and
            _is_hex(e[1]) for e in value)):
        return "a list of [ipa, hex content] pairs"
    return None


def _check_arg_types(op: str, args: dict, where: str) -> None:
    for name, value in args.items():
        want = _arg_type_error(name, value)
        if want is not None:
            raise ParseError(f"{where}: op {op!r} argument {name!r} must be "
                             f"{want}, not {value!r}")


def check_seed(seed) -> None:
    """A seed is folded into the platform identity as 8 unsigned bytes."""
    if not _is_int(seed) or not 0 <= seed < 1 << 64:
        raise ParseError(f"seed must be an integer in [0, 2**64), not {seed!r}")


def parse_scenario(obj: dict, name: str = "<inline>") -> Scenario:
    if not isinstance(obj, dict):
        raise ParseError("scenario must be a JSON object")
    if obj.get("schema") != SCHEMA_VERSION:
        raise ParseError(f"schema must be {SCHEMA_VERSION}")
    policy = obj.get("policy", "cooperative")
    if policy not in _POLICIES:
        raise ParseError(f"unknown policy {policy!r}")
    raw_steps = obj.get("steps")
    if not isinstance(raw_steps, list) or not raw_steps:
        raise ParseError("steps must be a non-empty list")
    steps, bound = [], set()
    for i, raw in enumerate(raw_steps):
        where = f"step {i}"
        if not isinstance(raw, dict):
            raise ParseError(f"{where}: not an object")
        actor = raw.get("actor", "host")
        if not isinstance(actor, str):
            raise ParseError(f"{where}: actor must be a string, not {actor!r}")
        kind, _, alias = actor.partition(":")
        if kind not in ("host", "root", "secure", "realm", "owner"):
            raise ParseError(f"{where}: unknown actor {actor!r}")
        if kind in ("realm", "owner"):
            if not alias:
                raise ParseError(f"{where}: actor {actor!r} missing alias")
            if alias not in bound:
                raise ParseError(f"{where}: actor alias {alias!r} not bound yet")
        elif alias:
            raise ParseError(f"{where}: actor {actor!r} takes no alias")
        op = raw.get("op")
        if not isinstance(op, str) or op not in OPS:
            raise ParseError(f"{where}: unknown op {op!r}")
        actors, required, _ = OPS[op]
        if kind not in actors:
            raise ParseError(f"{where}: op {op!r} not callable by {kind!r}")
        args = raw.get("args", {})
        if not isinstance(args, dict):
            raise ParseError(f"{where}: args must be an object")
        missing = sorted(required - args.keys())
        if missing:
            raise ParseError(f"{where}: op {op!r} missing argument(s) "
                             f"{', '.join(missing)}")
        unknown = args.keys() - required - _OPTIONAL_ARGS.get(op, set())
        if unknown:
            raise ParseError(f"{where}: op {op!r} takes no argument(s) "
                             f"{', '.join(sorted(map(str, unknown)))}")
        for ref in _collect_refs(args):
            if ref not in bound:
                raise ParseError(f"{where}: dangling reference @{ref}")
        _check_arg_types(op, args, where)
        expect = raw.get("expect", "ok")
        _check_expect(expect, where)
        bind = raw.get("bind")
        if bind is not None:
            if not isinstance(bind, str):
                raise ParseError(f"{where}: bind must be a string, not {bind!r}")
            bound.add(bind)
        steps.append(ScenarioStep(actor=actor, op=op, args=args,
                                  expect=expect, bind=bind))
    seed, granules = obj.get("seed", 0), obj.get("granules", 64)
    check_seed(seed)
    if not _is_int(granules) or not 1 <= granules <= MAX_GRANULES:
        raise ParseError(f"granules must be an integer in [1, {MAX_GRANULES}], "
                         f"not {granules!r}")
    return Scenario(name=obj.get("name", name), steps=steps, seed=seed,
                    policy=policy, granules=granules)


def _collect_refs(value) -> list:
    if _is_ref(value):
        return [value[1:]]
    if isinstance(value, list):
        return [r for v in value for r in _collect_refs(v)]
    if isinstance(value, dict):
        return [r for v in value.values() for r in _collect_refs(v)]
    return []


def _check_expect(expect, where: str) -> None:
    if expect in ("ok", "pending", "fault"):
        return
    if isinstance(expect, dict) and len(expect) == 1 and \
            ("ok" in expect or "error" in expect):
        return
    raise ParseError(f"{where}: malformed expect {expect!r}")


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}:{err.lineno}: {err.msg}") from None
    return parse_scenario(obj, name=path)


# ---------------------------------------------------------------- execution

def _resolve(value, env: dict):
    if _is_ref(value):
        return env[value[1:]]
    if isinstance(value, list):
        return [_resolve(v, env) for v in value]
    if isinstance(value, dict):
        return {k: _resolve(v, env) for k, v in value.items()}
    return value


def _match(pattern, value) -> bool:
    if isinstance(pattern, dict):
        return isinstance(value, dict) and \
            all(k in value and _match(p, value[k]) for k, p in pattern.items())
    if isinstance(pattern, list):
        return isinstance(value, list) and len(pattern) == len(value) and \
            all(_match(p, v) for p, v in zip(pattern, value))
    return pattern == value


def _expectation_met(expect, result) -> bool:
    if expect == "ok":
        return not isinstance(result, dict) or "error" not in result
    if expect == "pending":
        return result == PENDING
    if expect == "fault":
        return isinstance(result, dict) and result.get("error") == "Fault"
    if "ok" in expect:
        return _match(expect["ok"], result)
    return isinstance(result, dict) and result.get("error") == expect["error"]


def execute_step(world: World, host: Host, actor: str, op: str, args: dict,
                 env: dict | None = None):
    """Run one operation with its host service round.

    Returns (raw_value, json_result, events). ``raw_value`` is the Python
    object for binding; ``json_result`` is what the trace records.
    """
    env = env if env is not None else {}
    kind, _, alias = actor.partition(":")
    # Scenario files bind aliases; library callers (explorer, tests) may
    # address realms by numeric id directly.
    caller = None
    if alias:
        caller = env[alias] if alias in env else int(alias)
    resolved = _resolve(args, env)
    try:
        value = OPS[op][2](world, host, actor, caller, resolved)
    except SimError as err:
        events = world.take_events()
        return None, {"error": err.code, "detail": err.detail}, events
    events = world.take_events()
    exits = [e for e in events if e.get("event") == "exit"]
    if exits:
        # Every exit reaches the host, region-removal notices included; a
        # suspended call completes when the host re-enters its realm.
        completions = host.service_round(world, exits)
        events += world.take_events()
        if value == PENDING:
            value = completions.get(caller, PENDING)
    return value, jsonable(value), events


@dataclass
class RunConfig:
    trace_path: str | None = None
    seed: int | None = None
    policy: str | None = None


def run_scenario(scenario: Scenario, config: RunConfig | None = None):
    """Execute all steps; exit code 0 only if every expectation was met and
    no state ever violated an invariant."""
    config = config or RunConfig()
    seed = config.seed if config.seed is not None else scenario.seed
    check_seed(seed)
    policy = config.policy if config.policy is not None else scenario.policy
    host = Host(HostPolicy(policy))
    _check_probe_args(scenario, host.policy)
    world = World(granule_count=scenario.granules, seed=seed)
    env: dict = {}
    trace = [{"schema": SCHEMA_VERSION, "scenario": scenario.name, "seed": seed,
              "policy": policy, "granules": scenario.granules}]
    ok = True
    for i, step in enumerate(scenario.steps):
        _check_bound_types(step, env, f"step {i}")
        value, result, events = execute_step(world, host, step.actor, step.op,
                                             step.args, env)
        violations = check_invariants(world)
        # One trace event per executed step: inputs, outcome, emitted
        # events, invariant verdicts.
        trace.append({"step": i, "actor": step.actor, "op": step.op,
                      "args": jsonable(_resolve(step.args, env)),
                      "result": result, "events": events,
                      "invariants": violations})
        if violations:
            ok = False
        if not _expectation_met(step.expect, result):
            trace[-1]["expectation_failed"] = {"expected": step.expect,
                                               "got": result}
            ok = False
            break
        if step.bind is not None:
            env[step.bind] = value
    # The reference checker audits the final state. It agrees with the last
    # verdict unless the incremental checker missed something; then the
    # reference's verdict goes in the trace and the run fails.
    final = check_all(world)
    if final != trace[-1]["invariants"]:
        trace[-1]["invariants"] = final
        ok = False
    if config.trace_path:
        write_trace(trace, config.trace_path)
    return trace, 0 if ok else 1


def _check_bound_types(step: ScenarioStep, env: dict, where: str) -> None:
    """The parser checks literal values; a reference is checked here, once
    it is bound, against the same schema, and so is an actor's realm."""
    alias = step.actor.partition(":")[2]
    if alias and not _is_int(env[alias]):
        raise ParseError(f"{where}: actor {step.actor!r} must name a realm id, "
                         f"but {alias!r} is bound to {reprlib.repr(env[alias])}")
    for name, value in step.args.items():
        if _collect_refs(value):
            resolved = _resolve(value, env)
            want = _arg_type_error(name, resolved, bound=True)
            if want is not None:
                raise ParseError(
                    f"{where}: op {step.op!r} argument {name!r} must be {want}, "
                    f"but {value!r} is bound to {reprlib.repr(resolved)}")


def _check_probe_args(scenario: Scenario, policy: HostPolicy) -> None:
    """Which probe arguments a step needs depends on the policy, which a run
    may override after parsing, so they are checked here, before the first
    step runs. Their types were checked by name at parse time."""
    names = PROBES[policy][1] if policy in PROBES else ()
    for i, step in enumerate(scenario.steps):
        missing = [n for n in names if n not in step.args]
        if missing and step.op == "adversarial_step":
            raise ParseError(f"step {i}: op 'adversarial_step' under policy "
                             f"{policy.value!r} missing argument(s) "
                             f"{', '.join(missing)}")


def write_trace(trace: list, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(trace_to_bytes(trace))


def trace_to_bytes(trace: list) -> bytes:
    return "".join(json.dumps(e, separators=(",", ":")) + "\n"
                   for e in trace).encode()


def builtin_scenarios() -> dict:
    """Named canonical scenarios: the cooperative flows and the attack suite."""
    from .scenarios import BUILTINS
    return {name: parse_scenario(obj, name=name) for name, obj in BUILTINS.items()}
