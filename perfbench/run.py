"""csmsim benchmark: one workload per process, end-to-end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload monitor-churn --seed 1 --seconds 20 --trace 0

``--trace 0`` sets the workload up several times (reporting the median as
``setup_s``), runs the timed loop for ``--seconds`` of host time, checks
every operation and the simulated-statistics fingerprint, and prints the
end-to-end metrics. ``--trace 1`` runs the same seeded work twice, first
untraced and then with spans recorded around each layer's public
functions, and prints per-layer metrics. The last line of standard output
is one JSON object; the exit code is 0 only if every check passed.

All timings are host time. The model has no hardware reference results, so
it is unvalidated against hardware and no accuracy error is reported.
"""

import argparse
import json
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"
SPAN_DIR = ROOT / ".bench_out"
# Share of --seconds the traced run spends on its untraced pass; the traced
# pass repeats exactly that work and takes longer.
UNTRACED_SHARE = 0.4

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_us": "us", "op_p99_us": "us",
                    "peak_rss_mb": "MiB", "setup_s": "s"}


def _import_program():
    """Import csmsim from this checkout's sources, never an installed copy."""
    if not (SRC / "csmsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import csmsim
    if Path(csmsim.__file__).resolve().parent != SRC / "csmsim":
        sys.exit(f"perfbench: imported csmsim from {csmsim.__file__}")


def _percentile(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _fastest_per_operation(latencies, period: int) -> list:
    """Each operation's fastest latency over the run's complete passes of
    ``period`` operations: host slowdowns only ever add time, so the
    fastest of several tries is the steadiest estimate of an operation's
    cost."""
    passes = len(latencies) // period
    return [min(latencies[k:passes * period:period]) for k in range(period)]


def _fast_quartile_over_passes(out, passes: int) -> tuple:
    """Rate, p50 and p99 of each pass, each taken at the quartile on the
    fast side over the passes. For operations that are alike rather than
    repeated, as the channel's messages are: a slowdown of the host only
    ever slows a pass, and the fastest single tries there are rare hand-offs
    that skip the wait, not the typical cost."""
    size = out.period
    rates, p50s, p99s = [], [], []
    for k in range(passes):
        lat = out.latencies_ns[k * size:(k + 1) * size]
        rates.append(size / (sum(out.cycles_ns[k * size:(k + 1) * size]) / 1e9))
        p50s.append(statistics.median(lat))
        p99s.append(_percentile(lat, 0.99))
    if passes < 2:
        return rates[0], p50s[0], p99s[0]
    return (statistics.quantiles(rates, n=4)[2],
            statistics.quantiles(p50s, n=4)[0],
            statistics.quantiles(p99s, n=4)[0])


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ------------------------------------------------------------ end to end

def _setup(workload, seed: int, reps: int, setups: list):
    state = None
    for _ in range(reps):
        state = None   # free the last build before the next is timed
        t0 = time.perf_counter()
        state = workload.build(workload.prepare(seed))
        setups.append(time.perf_counter() - t0)
    return state


def run_end_to_end(workload, seed: int, seconds: float):
    """Set up, run and measure; the metrics are None when too few
    operations completed for statistics, as after a failed first step.

    Half the set-ups run before the timed loop and half after it, so that
    ``setup_s`` samples the host at both ends of the run."""
    setups = []
    state = _setup(workload, seed, (workload.setup_reps + 1) // 2, setups)
    out = workload.run(state, time.perf_counter_ns() + int(seconds * 1e9), None)
    peak_rss_mb = _peak_rss_mb()   # before the statistics below allocate
    del state
    _setup(workload, seed, workload.setup_reps // 2, setups)
    report = {
        "failed_ratio": out.failed / max(out.ops, 1),
        "fingerprint": out.fingerprint,
    }
    passes = len(out.latencies_ns) // out.period if out.period else 0
    if not passes:
        out.notes.append(f"{out.ops} operations completed, too few for "
                         f"statistics")
        return out, None, report
    beyond = out.period - int(0.99 * out.period) - 1
    if out.cycles_ns:
        ops_per_s, p50, p99 = _fast_quartile_over_passes(out, passes)
        report["sampling"] = (f"fast-side quartile over {passes} passes of "
                              f"{out.period} operations, {beyond} beyond "
                              f"each pass's p99")
    else:
        lat = _fastest_per_operation(out.latencies_ns, out.period)
        ops_per_s = len(lat) / (sum(lat) / 1e9)
        p50, p99 = statistics.median(lat), _percentile(lat, 0.99)
        report["sampling"] = (f"fastest of {passes} passes for each of "
                              f"{out.period} operations, {beyond} beyond p99")
    metrics = {
        "ops_per_s": ops_per_s,
        "op_p50_us": p50 / 1e3,
        "op_p99_us": p99 / 1e3,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setups),
    }
    if "states" in out.extra:
        report["states_per_s"] = out.extra["states"] / out.wall_s
    return out, metrics, report


# ---------------------------------------------------------------- traced

LAYER_METRICS = [
    ("rmm.World.clone", ("calls", "self_s", "share")),
    ("explorer.canonical_state", ("self_s",)),
    ("explorer.enabled_commands", ("self_s",)),
    ("explorer.oracle_mismatches", ("self_s",)),
    ("invariants.check_invariants", ("calls", "self_s", "share")),
    ("harness.execute_step", ("self_s",)),
    *[(f"csm.rsi_csm_{cmd}", ("calls", "self_s"))
      for cmd in ("create", "share", "reserve", "attach", "revoke", "destroy",
                  "detach_and_free")],
    ("csm.apt_lookups", ("calls", "self_s")),
    ("host.Host.service_round", ("calls", "self_s")),
    ("host.Host.alloc_granule", ("calls", "self_s")),
    ("rmm.World.rmi", ("calls", "self_s")),
    ("attestation.rsi_attestation_token", ("self_s",)),
    ("attestation.verify_token", ("self_s",)),
    ("digests.extend_measurement", ("calls", "self_s")),
    ("rmm.World.realm_access", ("calls", "self_s")),
    ("rmm.World.physical_access", ("calls", "self_s")),
    ("granules.GranuleSpace.write", ("calls", "self_s", "bytes")),
    ("granules.GranuleSpace.read", ("calls", "self_s", "bytes")),
    ("bench.Channel.produce", ("calls", "self_s")),
    ("bench.Channel.consume", ("self_s",)),
]
STAT_UNITS = {"calls": "count", "self_s": "s", "share": "ratio", "bytes": "B"}
DERIVED_UNITS = {"explorer.dedup_ratio": "ratio", "explorer.frontier_peak": "count",
                 "rmm.history_rows": "count", "host.rmi_per_exit": "ratio",
                 "bench.Channel.wait_s": "s", "trace.overhead_s": "s",
                 "trace.unaccounted_share": "ratio"}


def per_layer_units() -> dict:
    units = {f"{name}.{stat}": STAT_UNITS[stat]
             for name, stats in LAYER_METRICS for stat in stats}
    units.update(DERIVED_UNITS)
    return units


def install_layers(recorder) -> None:
    """Patch a span around every measured function of the program."""
    from csmsim import (attestation, bench, csm, digests, explorer, granules,
                        harness, host, invariants, rmm)

    for module, attr, name in [
        (explorer, "explore", "explorer.explore"),
        (explorer, "canonical_state", "explorer.canonical_state"),
        (explorer, "enabled_commands", "explorer.enabled_commands"),
        (explorer, "oracle_mismatches", "explorer.oracle_mismatches"),
        (invariants, "check_invariants", "invariants.check_invariants"),
        (harness, "execute_step", "harness.execute_step"),
        (csm, "find_share", "csm.apt_lookups"),
        (attestation, "rsi_attestation_token", "attestation.rsi_attestation_token"),
        (attestation, "verify_token", "attestation.verify_token"),
        (digests, "extend_measurement", "digests.extend_measurement"),
        *[(csm, f"rsi_csm_{cmd}", f"csm.rsi_csm_{cmd}")
          for cmd in ("create", "share", "reserve", "attach", "revoke",
                      "destroy", "detach_and_free")],
    ]:
        recorder.patch_function(module, attr, name)
    methods = [
        (rmm.World, "clone", "rmm.World.clone", {}),
        (rmm.World, "realm_access", "rmm.World.realm_access", {}),
        (rmm.World, "physical_access", "rmm.World.physical_access", {}),
        *[(rmm.World, attr, "rmm.World.rmi", {})
          for attr in vars(rmm.World) if attr.startswith("rmi_")],
        *[(csm.Apt, attr, "csm.apt_lookups", {})
          for attr in ("provider_entry", "find_by_sharing_id",
                       "find_provider_covering", "find_consumer_covering")],
        (host.Host, "service_round", "host.Host.service_round", {}),
        (host.Host, "alloc_granule", "host.Host.alloc_granule", {}),
        (host.Host, "_rmi", "host.Host.rmi", {}),
        (host.Host, "handle_exit_p_csm", "host.Host.handle_exit", {}),
        (host.Host, "handle_exit_c_csm", "host.Host.handle_exit", {}),
        (granules.GranuleSpace, "write", "granules.GranuleSpace.write",
         {"count_bytes": lambda args, kwargs, result: len(args[2])}),
        (granules.GranuleSpace, "read", "granules.GranuleSpace.read",
         {"count_bytes": lambda args, kwargs, result: len(result)}),
        (bench.Channel, "produce", "bench.Channel.produce", {}),
        (bench.Channel, "consume", "bench.Channel.consume", {}),
        (bench.Channel, "wait_send_ready", "bench.Channel.wait", {}),
        (bench.Channel, "wait_recv_ready", "bench.Channel.wait", {}),
    ]
    for cls, attr, name, options in methods:
        recorder.patch_method(cls, attr, name, **options)


def frontier_peak(sequence: list) -> int:
    """Largest BFS frontier, from the order of the explorer's spans.

    Level d expands each state of level d-1 once (one enabled_commands
    call) and checks each new state once (one check_invariants call).
    """
    peak = expand_left = found = 0
    for name in sequence:
        if name == "explorer.explore":
            expand_left = found = 0
        elif name == "invariants.check_invariants":
            found += 1
            peak = max(peak, found)
        elif name == "explorer.enabled_commands":
            if expand_left == 0:
                expand_left, found = found, 0
            expand_left -= 1
    return peak


def run_traced(workload, seed: int, seconds: float, path: Path):
    import spans

    inputs = workload.prepare(seed)
    t0 = time.perf_counter()
    state = workload.build(inputs)
    build_s = time.perf_counter() - t0
    deadline = time.perf_counter_ns() + int(UNTRACED_SHARE * seconds * 1e9)
    plain = workload.run(state, deadline, None)
    untraced_wall = build_s + plain.wall_s
    limit = plain.extra["passes"]
    del state

    inputs = workload.prepare(seed)
    recorder = spans.Recorder()
    install_layers(recorder)
    try:
        t0 = time.perf_counter()
        state = workload.build(inputs)
        traced = workload.run(state, None, limit, recorder=recorder)
        traced_wall = time.perf_counter() - t0
    finally:
        recorder.restore()
    recorder.write(path)

    summary = recorder.summary()
    metrics = {}
    for name, stats in LAYER_METRICS:
        row = summary.get(name, {"calls": 0, "self_ns": 0, "bytes": 0})
        values = {"calls": row["calls"], "self_s": row["self_ns"] / 1e9,
                  "share": row["self_ns"] / 1e9 / traced_wall,
                  "bytes": row["bytes"]}
        for stat in stats:
            metrics[f"{name}.{stat}"] = values[stat]

    def calls(name):
        return summary.get(name, {"calls": 0})["calls"]

    states = traced.extra.get("states", 0)
    metrics["explorer.dedup_ratio"] = states / traced.ops if states else 0.0
    metrics["explorer.frontier_peak"] = frontier_peak(recorder.sequence(
        {"explorer.explore", "explorer.enabled_commands",
         "invariants.check_invariants"})) if states else 0
    metrics["rmm.history_rows"] = traced.extra.get("history_rows", 0)
    exits = calls("host.Host.handle_exit")
    metrics["host.rmi_per_exit"] = calls("host.Host.rmi") / exits if exits else 0.0
    metrics["bench.Channel.wait_s"] = \
        summary.get("bench.Channel.wait", {"self_ns": 0})["self_ns"] / 1e9
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    # The loop's own thread; the channel's sender thread overlaps it.
    covered = recorder.covered_ns(threading.get_ident()) / 1e9
    metrics["trace.unaccounted_share"] = (traced_wall - covered) / traced_wall

    problems = list(plain.notes) + list(traced.notes)
    if traced.fingerprint != plain.fingerprint:
        problems.append(f"traced fingerprint {traced.fingerprint} differs "
                        f"from untraced {plain.fingerprint}")
    return plain, traced, metrics, problems


# ------------------------------------------------------------------ main

def check_reference(workload, outcome) -> list:
    expected = json.loads(FINGERPRINTS.read_text())[workload.name]
    got = workload.reference(outcome)
    if got != expected:
        return [f"fingerprint {got} differs from fingerprints.json {expected}"]
    return []


def print_reference() -> int:
    """Print every workload's reference fingerprint, for fingerprints.json
    after a deliberate change of the simulated semantics."""
    import workloads
    refs = {}
    for name, workload in workloads.WORKLOADS.items():
        outcome = None
        if name == "explore":
            outcome = workload.run(workload.build(workload.prepare(0)), None, 1)
        refs[name] = workload.reference(outcome)
    print(json.dumps(refs, indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--print-reference", action="store_true",
                        help="print the reference fingerprints and exit")
    args = parser.parse_args(argv)
    _import_program()
    if args.print_reference:
        return print_reference()
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    if args.trace:
        path = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.bin"
        plain, out, metrics, problems = run_traced(
            workload, args.seed, args.seconds, path)
        problems += check_reference(workload, plain)
        units = per_layer_units()
        print(f"# {args.workload} seed {args.seed}: traced run, host time; "
              f"spans in {path.relative_to(ROOT)}")
    else:
        out, metrics, report = run_end_to_end(workload, args.seed, args.seconds)
        problems = list(out.notes) + check_reference(workload, out)
        units = END_TO_END_UNITS
        print(f"# {args.workload} seed {args.seed}: host time, model "
              f"unvalidated against hardware (no accuracy error reported)")
        if metrics is None:
            metrics, units = {}, {}
        else:
            print(f"#   {report['sampling']}")
        if "states_per_s" in report:
            print(f"#   states_per_s {report['states_per_s']:.1f} 1/s")
        print(f"#   failed_ratio {report['failed_ratio']:.6f} ratio")
        print(f"#   fingerprint {json.dumps(report['fingerprint'], sort_keys=True)}")
    for name in units:
        print(f"#   {name} {metrics[name]:.6g} {units[name]}")
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)

    correct = not problems and out.failed == 0
    failed = out.failed if out.failed or correct else 1
    print(json.dumps({
        "correct": correct, "attempted": max(out.ops, 1), "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
