"""The benchmark's workloads: inputs, set-up, timed loop, correctness checks.

Every workload is a closed loop in one process with one operation in
flight. A workload object offers:

* ``prepare(seed)``: make the seeded inputs (benchmark work, untimed by
  the traced run);
* ``build(inputs)``: construct the program's state from them (world,
  channel); ``prepare`` plus ``build`` is the set-up time;
* ``run(state, deadline_ns, limit)``: run passes over the same operations
  until the deadline or until ``limit`` passes, returning an
  :class:`Outcome`;
* ``reference()``: the simulated-statistics fingerprint of a small fixed
  input, compared against ``fingerprints.json`` on every run.

All timings are host time: the model has no hardware reference results.
"""

import hashlib
import os
import random
from array import array
import threading
import time
from dataclasses import dataclass, field

from csmsim import bench, explorer, harness, invariants
from csmsim.host import Host, HostPolicy
from csmsim.rmm import World

import scenario_gen


@dataclass
class Outcome:
    ops: int = 0                  # operations completed
    failed: int = 0               # operations whose check failed
    # Machine integers, so the bookkeeping of a fast run does not grow the
    # peak resident memory much more than that of a slow one.
    latencies_ns: array = field(default_factory=lambda: array("q"))
    # Time from the previous message's delivery, or the start of the batch,
    # to this one's. Only the channel fills it: its messages are alike, not
    # distinct operations, so its figures are taken per pass.
    cycles_ns: array = field(default_factory=lambda: array("q"))
    period: int = 0               # operations per pass, the same every pass
    wall_s: float = 0.0
    fingerprint: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)   # first failures, for stderr
    extra: dict = field(default_factory=dict)   # workload-specific counts


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


# The CPUs this process may run on. On a shared host each core's speed
# drifts on its own, so a loop that repeats the same operations pass after
# pass runs each pass on the next of them in turn.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def _pin(pass_index: int | None) -> None:
    """Run the calling thread on the CPU for this pass; None lifts the pin."""
    if len(CPUS) > 1:
        os.sched_setaffinity(0, CPUS if pass_index is None
                             else {CPUS[pass_index % len(CPUS)]})


def _past(deadline_ns: int | None, now: int, pass_ns: int) -> bool:
    """Whether another pass as long as the last would end more than half a
    pass past the deadline, so a run ends at the pass nearest to it."""
    return deadline_ns is not None and now + pass_ns // 2 >= deadline_ns


# ----------------------------------------------------------------- explore

class Explore:
    """Bounded exhaustive exploration of the default sharing command set.

    The state space does not depend on the seed, which only changes the
    platform identity; the fingerprint is therefore one fixed value.
    An operation is one transition: the command step, its dedup, for new
    states the invariant and oracle checks, and the copy of the world the
    next transition starts from. It is timed from one call of the step
    function the explorer looks up as ``explorer.execute_step`` to the
    next, and the run fails unless those calls number the report's
    transitions.
    """

    name = "explore"
    setup_reps = 41
    depth = 4

    def prepare(self, seed: int):
        return explorer.ExplorationConfig(realm_count=2, granule_count=8,
                                          depth=self.depth, seed=seed)

    def build(self, cfg):
        explorer.build_initial_world(cfg)
        return cfg

    def run(self, cfg, deadline_ns: int | None, limit: int | None,
            recorder=None) -> Outcome:
        """Whole explorations until the one that ends nearest the deadline;
        ``limit`` counts them."""
        out = Outcome()
        clock = time.perf_counter_ns
        ticks = []
        original = explorer.execute_step

        def step(*args, **kwargs):
            ticks.append(clock())
            if recorder is not None:
                recorder.set_op(len(ticks))
            return original(*args, **kwargs)

        explorer.execute_step = step
        try:
            t0 = clock()
            reps = 0
            while True:
                _pin(reps)
                start, begin = len(ticks), clock()
                report = explorer.explore(cfg)
                now = clock()
                span = ticks[start:] + [now]
                reps += 1
                if len(span) - 1 != report.transitions:
                    out.failed += 1
                    out.notes.append(f"exploration {reps}: {len(span) - 1} "
                                     f"steps for {report.transitions} transitions")
                    break
                out.latencies_ns.extend(b - a for a, b in zip(span, span[1:]))
                out.period = report.transitions
                fp = self.fingerprint(report)
                out.ops += report.transitions
                out.extra["states"] = out.extra.get("states", 0) + report.states
                if fp != out.fingerprint and out.fingerprint:
                    out.failed += 1
                    out.notes.append(f"exploration {reps} fingerprint {fp}")
                out.fingerprint = out.fingerprint or fp
                if not report.clean():
                    out.failed += (len(report.violations)
                                   + len(report.oracle_mismatches))
                    out.notes.append(f"violations: {report.to_json()}")
                if (limit is not None and reps >= limit) or \
                        _past(deadline_ns, now, now - begin):
                    break
            out.wall_s = (now - t0) / 1e9
        finally:
            explorer.execute_step = original
            _pin(None)
        out.extra["passes"] = reps
        return out

    @staticmethod
    def fingerprint(report) -> dict:
        return {"states": report.states, "transitions": report.transitions,
                "depth_reached": report.depth_reached, "clean": report.clean(),
                "budget_exceeded": report.budget_exceeded}

    @staticmethod
    def reference(outcome: Outcome) -> dict:
        """The state space is seed-free, so the run itself is the reference."""
        return outcome.fingerprint


# --------------------------------------------------------------- scenarios

@dataclass
class ScenarioState:
    inputs: tuple
    world: World
    host: Host
    steps: list
    pos: int
    counts: dict
    env: dict = field(default_factory=dict)
    reads: object = field(default_factory=hashlib.sha256)


class ScenarioWorkload:
    """A generated schema-1 scenario run step by step as ``run_scenario``
    does: ``execute_step``, then ``check_invariants``, then the expectation.

    The prefix that builds the world is set-up: its expectations are
    checked step by step and the invariants once at its end. The rest is
    timed, one operation per step. ``History`` is never trimmed, so the
    cost of a step grows with its position in the scenario. A run therefore
    makes whole passes over the same timed steps, each from a freshly built
    world, so a faster program repeats the same work instead of reaching
    later, costlier steps.
    """

    setup_reps = 7
    granules = 4096
    realms = 32
    # 2 to 4 s a pass at 4096 granules and 32 realms on a 2-core Xeon
    # virtual machine, so a 30 s run makes several passes; 1100 steps leave
    # at least ten beyond the 99th percentile of a pass.
    timed_steps = 1100

    name = "monitor-churn"

    def prepare(self, seed: int, steps: int | None = None,
                granules: int | None = None, realms: int | None = None):
        doc, prefix = scenario_gen.generate(
            seed, steps or self.timed_steps,
            granules or self.granules, realms or self.realms)
        return harness.parse_scenario(doc, name=doc["name"]), prefix

    def build(self, inputs) -> ScenarioState:
        scenario, prefix = inputs
        state = ScenarioState(
            inputs=inputs,
            world=World(granule_count=scenario.granules, seed=scenario.seed),
            host=Host(HostPolicy(scenario.policy)), steps=scenario.steps,
            pos=0, counts={"exit": 0, "tlb_flush": 0, "fault": 0, "rmi": 0})
        notes = []
        for _ in range(prefix):
            if not self._step(state, check=False, notes=notes):
                raise RuntimeError(f"set-up step failed: {notes}")
        violations = invariants.check_invariants(state.world)
        if violations:
            raise RuntimeError(f"set-up violates invariants: {violations[:3]}")
        return state

    def _step(self, state: ScenarioState, check: bool, notes: list) -> bool:
        step = state.steps[state.pos]
        value, result, events = harness.execute_step(
            state.world, state.host, step.actor, step.op, step.args, state.env)
        violations = invariants.check_invariants(state.world) if check else []
        ok = not violations and harness._expectation_met(step.expect, result)
        if not ok and len(notes) < 3:
            shown = f"{len(result)} bytes" if isinstance(result, bytes) else result
            notes.append({"step": state.pos, "op": step.op, "result": shown,
                          "expect": step.expect, "violations": violations[:3]})
        if ok and step.bind is not None:
            state.env[step.bind] = value
        state.pos += 1
        counts = state.counts
        for event in events:
            kind = event.get("event")
            if kind in counts:
                counts[kind] += 1
        if isinstance(value, bytes):
            state.reads.update(value)
        return ok

    def run(self, state: ScenarioState, deadline_ns: int | None,
            limit: int | None, recorder=None) -> Outcome:
        """Whole passes until the one that ends nearest the deadline;
        ``limit`` counts them. Between passes the world is rebuilt and the
        pass fingerprinted, which no operation's latency counts."""
        out = Outcome(period=len(state.steps) - state.pos)
        clock = time.perf_counter_ns
        passes = 0
        t0 = now = clock()
        try:
            while True:
                _pin(passes)
                begin = now = clock()
                while state.pos < len(state.steps):
                    if recorder is not None:
                        recorder.set_op(state.pos)
                    ok = self._step(state, check=True, notes=out.notes)
                    t1 = clock()
                    out.latencies_ns.append(t1 - now)
                    now = t1
                    out.ops += 1
                    if not ok:
                        out.failed += 1
                        break
                passes += 1
                fp = self.fingerprint(state)
                if fp != out.fingerprint and out.fingerprint:
                    out.failed += 1
                    out.notes.append(f"pass {passes} fingerprint {fp}")
                out.fingerprint = out.fingerprint or fp
                if out.failed or (limit is not None and passes >= limit) or \
                        _past(deadline_ns, clock(), now - begin):
                    break
                state = self.build(state.inputs)
        finally:
            _pin(None)
        out.wall_s = (clock() - t0) / 1e9
        out.extra["passes"] = passes
        out.extra["history_rows"] = sum(
            len(rows) for rows in (state.world.history.accesses,
                                   state.world.history.invalidations,
                                   state.world.history.flushes))
        return out

    @staticmethod
    def fingerprint(state: ScenarioState) -> dict:
        return {"steps": state.pos,
                "state": _digest(explorer.canonical_state(state.world)),
                "exits": state.counts["exit"],
                "tlb_flushes": state.counts["tlb_flush"],
                "faults": state.counts["fault"],
                "host_commands": state.counts["rmi"],
                "reads": state.reads.hexdigest()[:16]}

    def reference(self, outcome: Outcome | None = None) -> dict:
        del outcome  # the reference input is fixed, not the run's
        state = self.build(self.prepare(1, steps=400, granules=512, realms=8))
        out = self.run(state, None, 1)
        if out.failed:
            raise RuntimeError(f"reference input failed: {out.notes}")
        return out.fingerprint


# ----------------------------------------------------------------- channel

@dataclass
class ChannelState:
    channel: bench.Channel
    payloads: list
    sent: int = 0


class ChannelWorkload:
    """The paper's channel at 64 KiB messages in one mode, driven as
    ``bench.bench_run`` drives it: a sender thread and the receiving main
    thread, polling one depth-1 slot.

    Latency is one-way (send start to payload consumed). Messages cycle
    through a seeded pool of distinct payloads and every delivered payload
    is compared with the one sent, after its latency is taken. A pass is
    one batch, with one sender thread.
    """

    setup_reps = 41
    size = 64 * 1024
    pool = 16
    # A whole number of cycles of the pool, so each position of a batch
    # carries the same payload in every batch; 1104 messages leave eleven
    # beyond the 99th percentile.
    batch = 69 * pool

    def __init__(self, name: str, mode: str):
        self.name = name
        self.mode = mode

    def prepare(self, seed: int):
        rng = random.Random(f"channel/{seed}")
        return seed, [rng.randbytes(self.size) for _ in range(self.pool)]

    def build(self, inputs) -> ChannelState:
        seed, payloads = inputs
        return ChannelState(bench.Channel(self.mode, self.size, seed=seed), payloads)

    def _batch(self, state: ChannelState, out: Outcome, recorder) -> None:
        channel, payloads, n = state.channel, state.payloads, self.batch
        first = state.sent + 1
        send_start = [0] * n
        errors = []

        def sender():
            try:
                for k in range(n):
                    if recorder is not None:
                        recorder.set_op(first + k)
                    channel.wait_send_ready()
                    send_start[k] = time.perf_counter_ns()
                    channel.produce(payloads[(first + k) % len(payloads)])
            except Exception as err:  # reported after join
                errors.append(err)

        tx = threading.Thread(target=sender, daemon=True)
        tx.start()
        previous = time.perf_counter_ns()
        try:
            for k in range(n):
                if recorder is not None:
                    recorder.set_op(first + k)
                channel.wait_recv_ready()
                got = channel.consume()
                done = time.perf_counter_ns()
                out.latencies_ns.append(done - send_start[k])
                out.cycles_ns.append(done - previous)
                previous = done
                out.ops += 1
                if got != payloads[(first + k) % len(payloads)]:
                    out.failed += 1
                    out.notes.append(f"message {first + k}: payload differs")
        except Exception as err:
            out.failed += 1
            out.notes.append(f"receiver: {err!r}")
            # Acknowledge nothing further; the sender stops at its wait.
        finally:
            tx.join(timeout=30)
        if errors or tx.is_alive():
            out.failed += 1
            out.notes.append(f"sender: {errors or 'did not finish'}")
        state.sent += n

    def run(self, state: ChannelState, deadline_ns: int | None,
            limit: int | None, recorder=None) -> Outcome:
        """Whole batches until the one that ends nearest the deadline;
        ``limit`` counts them."""
        out = Outcome(period=self.batch)
        clock = time.perf_counter_ns
        t0 = clock()
        batches = 0
        try:
            while not out.failed:
                _pin(batches)   # both threads: the sender inherits the pin
                begin = clock()
                self._batch(state, out, recorder)
                batches += 1
                now = clock()
                if (limit is not None and batches >= limit) or \
                        _past(deadline_ns, now, now - begin):
                    break
        finally:
            _pin(None)
        out.extra["passes"] = batches
        out.wall_s = (clock() - t0) / 1e9
        channel = state.channel
        out.fingerprint = {"delivered_in_order": channel.recv_seq,
                           "sent": channel.send_seq}
        if channel.recv_seq != state.sent or channel.send_seq != state.sent:
            out.failed += 1
            out.notes.append(f"sequence counters {out.fingerprint}, "
                             f"expected {state.sent}")
        return out

    def reference(self, outcome: Outcome | None = None) -> dict:
        """Slot bytes and delivered bodies of 16 messages, one thread."""
        del outcome
        rng = random.Random("channel-reference")
        channel = bench.Channel(self.mode, 4096, seed=7)
        wire, body = hashlib.sha256(), hashlib.sha256()
        for _ in range(16):
            channel.produce(rng.randbytes(rng.randint(1, 4096)))
            wire.update(channel.buf)
            body.update(channel.consume())
        return {"wire": wire.hexdigest()[:16], "bodies": body.hexdigest()[:16],
                "delivered_in_order": channel.recv_seq}


WORKLOADS = {
    "explore": Explore(),
    "monitor-churn": ScenarioWorkload(),
    "channel-csm": ChannelWorkload("channel-csm", "csm"),
    "channel-aead": ChannelWorkload("channel-aead", "aead"),
}
