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

Ops: ``OPS`` declares each op once, for the parser and ``execute_step``;
``ARGS`` says what a value of each argument name must be.

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
from collections.abc import Callable
from dataclasses import dataclass
from types import FunctionType
from typing import NamedTuple

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


# --------------------------------------------------------------- arguments

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


class Arg(NamedTuple):
    """What a value must be (``want``), its test ``check(value, bound)``, and
    the ``decode`` into what the handler takes, where the two differ."""
    want: str
    check: Callable
    decode: Callable | None = None


# Each argument name means one thing in every op. A "@name" reference may
# stand for any value; it is checked once bound, with ``bound`` set. Tokens
# and expectations have no literal form; a token may be its bytes too.
ARGS = {
    **dict.fromkeys(("granule", "rd", "ipa", "base", "size", "csm", "c_id", "id", "p", "c",
                     "counter", "offset", "length", "ipa_width"),
                    Arg("an integer", lambda v, bound: _is_int(v))),
    **dict.fromkeys(("data", "content"),
                    Arg("a hex string", lambda v, bound: _is_hex(v), bytes.fromhex)),
    "kind": Arg('"read" or "write"', lambda v, bound: v in ACCESS_KINDS),
    "sharing": Arg("a list of 3 integers", lambda v, bound: isinstance(v, (list, tuple)) and
                   len(v) == 3 and all(_is_int(e) or (_is_ref(e) and not bound) for e in v)),
    "image": Arg("a list of [ipa, hex content] pairs", lambda v, bound: isinstance(v, list) and
                 all(isinstance(e, list) and len(e) == 2 and _is_int(e[0]) and _is_hex(e[1])
                     for e in v), lambda image: [(ipa, bytes.fromhex(c)) for ipa, c in image]),
    "token": Arg("a reference to an AttestationToken", lambda v, bound: bound and
                 isinstance(v, (attestation.AttestationToken, bytes, bytearray))),
    "expectation": Arg("a reference to an OwnerExpectation", lambda v, bound:
                       bound and isinstance(v, attestation.OwnerExpectation)),
    # An unknown permission is the monitor's to refuse (BadState).
    "perm": Arg("a permission", lambda v, bound: True),
}


# --------------------------------------------------------------------- ops

class Op(NamedTuple):
    """One command: the actor kinds that may issue it, and its handler,
    which takes the ``required`` arguments in order, then the ``optional``
    ones, each with its default when absent. ``World`` stands for the
    world's method of the op's name, a module for its function of that name
    called with the world; a realm or owner passes its realm id next, as the
    caller. Any other handler is a function ``(world, host, actor, caller,
    *args)``."""
    actors: set
    handler: object
    required: tuple = ()
    optional: dict = {}


_WORLD_STATES = {"host": SecurityState.NORMAL, "root": SecurityState.ROOT,
                 "secure": SecurityState.SECURE}
_PROBE_ARGS = tuple(dict.fromkeys(n for _, names in PROBES.values() for n in names))

OPS = {
    # Host-issued granule and realm management commands.
    "granule_delegate": Op({"host"}, World, ("granule",)),
    "granule_undelegate": Op({"host"}, World, ("granule",)),
    "rmi_realm_create": Op({"host"}, World, ("rd",), {"ipa_width": 20}),
    "rmi_rec_create": Op({"host"}, World, ("rd", "granule")),
    "rmi_apt_create": Op({"host"}, World, ("rd", "granule")),
    "rmi_apt_destroy": Op({"host"}, World, ("rd", "granule")),
    "rmi_rtt_create": Op({"host"}, World, ("rd", "granule", "ipa")),
    "rmi_rtt_read_entry": Op({"host"}, World, ("rd", "ipa")),
    "rmi_data_create": Op({"host"}, World, ("rd", "granule", "ipa"), {"content": b""}),
    "rmi_data_create_unknown": Op({"host"}, World, ("rd", "granule", "ipa")),
    "rmi_data_destroy": Op({"host"}, World, ("rd", "ipa")),
    "rmi_unprotected_map": Op({"host"}, World, ("rd", "ipa", "granule")),
    "rmi_realm_activate": Op({"host"}, World, ("rd",)),
    "rmi_realm_destroy": Op({"host"}, World, ("rd",)),
    "rec_enter": Op({"host"}, World, ("rd",)),
    "registry_lookup": Op({"host"}, lambda w, h, a, c, i: w.realm_by_id(i).realm_id, ("id",)),
    # The probe of the host's policy, with the arguments it takes (host.PROBES).
    "adversarial_step": Op({"host"}, lambda w, h, a, c, *v: h.adversarial_step(w, **dict(zip(_PROBE_ARGS, v))), (), dict.fromkeys(_PROBE_ARGS)),
    "world_stats": Op({"host"}, lambda w, h, a, c: w.stats()),
    # Raw physical probes from any world.
    "physical_access": Op({"host", "root", "secure"}, lambda w, h, a, c, *v: w.physical_access(
        _WORLD_STATES[a.partition(":")[0]], *v), ("granule", "kind"), {"offset": 0, "data": b"", "length": None}),
    # Realm-issued service commands.
    "rsi_csm_create": Op({"realm"}, csm, ("base", "size")),
    "rsi_csm_share": Op({"realm"}, csm, ("csm", "c_id", "perm")),
    "rsi_csm_reserve": Op({"realm"}, csm, ("sharing", "base", "size")),
    "rsi_csm_attach": Op({"realm"}, csm, ("sharing",)),
    "rsi_csm_revoke": Op({"realm"}, csm, ("sharing",)),
    "rsi_csm_destroy": Op({"realm"}, csm, ("csm",)),
    "rsi_csm_detach_and_free": Op({"realm"}, csm, ("sharing",)),
    "rsi_attestation_token": Op({"realm"}, attestation),
    "realm_access": Op({"realm"}, World, ("ipa", "kind"), {"offset": 0, "data": b"", "length": None}),
    "compose_sharing_id": Op({"realm", "owner"}, lambda w, h, a, c, *v: csm.compose_sharing_id(*v), ("p", "c", "counter")),
    # Owner-side verification workflow.
    "owner_compute_expectation": Op({"owner"}, lambda w, h, a, c, width, image: attestation.expected_for_image(w, image, width), ("ipa_width",), {"image": ()}),
    "verify_token": Op({"owner"}, lambda w, h, a, c, *v: attestation.verify_token(*v), ("token", "expectation")),
    "owner_release_peer_id": Op({"owner"}, attestation, ("token", "expectation")),
}


def _compile(name: str, op: Op):
    """The op's caller ``(world, host, actor, caller, args)``, built once as
    source, the way ``dataclasses`` builds ``__init__``: a call costs the one
    Python frame a hand-written lambda would, and looks the handler up when
    it runs, so a function replaced on its module or class is the one run."""
    env = {"H": op.handler}
    if isinstance(op.handler, FunctionType):
        head, params = "H", ["w", "h", "a", "c"]
    else:
        head, params = (f"w.{name}", []) if op.handler is World else (f"H.{name}", ["w"])
        if op.actors <= {"realm", "owner"}:
            params.append("c")
    for arg in (*op.required, *op.optional):
        value, decode = f"g[{arg!r}]", ARGS[arg].decode
        if decode is not None:
            env[f"decode_{arg}"] = decode
            value = f"decode_{arg}({value})"
        if arg in op.optional:
            env[f"default_{arg}"] = op.optional[arg]
            value = f"({value} if {arg!r} in g else default_{arg})"
        params.append(value)
    return eval(f"lambda w, h, a, c, g: {head}({', '.join(params)})", env)


_CALLS = {name: _compile(name, op) for name, op in OPS.items()}


# ------------------------------------------------------------------ loading

_POLICIES = {p.value for p in HostPolicy}


def _check_arg(where: str, op: str, name: str, value, env: dict | None = None) -> None:
    """Refuse an argument value that does not fit its name: a literal when
    parsed, or, given ``env``, the value its references are bound to."""
    bound = env is not None
    if _collect_refs(value) if bound else not _is_ref(value):
        got = _resolve(value, env) if bound else value
        if not ARGS[name].check(got, bound):
            shown = f"but {value!r} is bound to {reprlib.repr(got)}" if bound else f"not {value!r}"
            raise ParseError(f"{where}: op {op!r} argument {name!r} must be "
                             f"{ARGS[name].want}, {shown}")


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
        spec = OPS[op]
        if kind not in spec.actors:
            raise ParseError(f"{where}: op {op!r} not callable by {kind!r}")
        args = raw.get("args", {})
        if not isinstance(args, dict):
            raise ParseError(f"{where}: args must be an object")
        missing = sorted(set(spec.required) - args.keys())
        if missing:
            raise ParseError(f"{where}: op {op!r} missing argument(s) "
                             f"{', '.join(missing)}")
        unknown = args.keys() - spec.required - spec.optional.keys()
        if unknown:
            raise ParseError(f"{where}: op {op!r} takes no argument(s) "
                             f"{', '.join(sorted(map(str, unknown)))}")
        for ref in _collect_refs(args):
            if ref not in bound:
                raise ParseError(f"{where}: dangling reference @{ref}")
        for arg, value in args.items():
            _check_arg(where, op, arg, value)
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
        value = _CALLS[op](world, host, actor, caller, resolved)
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
        _check_arg(where, step.op, name, value, env)


def _check_probe_args(scenario: Scenario, policy: HostPolicy) -> None:
    """Which probe arguments a step needs depends on the policy, which a run
    may override after parsing, so they are checked here, before the first
    step runs. Their types were checked against ``ARGS`` at parse time."""
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
