"""Command-line front end.

    csmsim run <file.json> [--trace out.jsonl] [--seed N] [--policy P]
    csmsim builtin <name> [--trace out.jsonl] [--seed N] [--policy P]
    csmsim builtin --list
    csmsim explore [--realms R] [--granules G] [--depth D] [--csm-max-size N]
                   [--state-cap N] [--seed N] [--mutant CHECK ...]
    csmsim bench --mode plaintext|aead|csm --size BYTES [--iters N]
                 [--csv out.csv] [--seed N]

Exit codes: 0 success, 1 expectation or invariant failure, 2 usage or parse
errors.
"""

import argparse
import json
import sys

from .bench import MODES, append_csv, bench_run
from .csm import DISABLEABLE_CHECKS
from .errors import ParseError
from .explorer import ExplorationConfig, explore
from .host import HostPolicy
from .harness import (RunConfig, builtin_scenarios, check_seed, load_scenario,
                      run_scenario)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _run(scenario, args) -> int:
    trace, code = run_scenario(scenario, RunConfig(
        trace_path=args.trace, seed=args.seed, policy=args.policy))
    for event in trace:
        if event.get("expectation_failed"):
            exp = event["expectation_failed"]
            print(f"step {event['step']} ({event['op']}): expected "
                  f"{exp['expected']}, got {exp['got']}", file=sys.stderr)
        for violation in event.get("invariants", []):
            print(f"step {event['step']}: invariant {violation['invariant']} "
                  f"violated: {violation['detail']}", file=sys.stderr)
    if args.trace:
        print(f"trace written to {args.trace}")
    print("ok" if code == 0 else "FAILED")
    return code


def _cmd_run(args) -> int:
    return _run(load_scenario(args.file), args)


def _cmd_builtin(args) -> int:
    registry = builtin_scenarios()
    if args.list or args.name is None:
        for name in registry:
            print(name)
        return EXIT_OK
    if args.name not in registry:
        print(f"unknown builtin {args.name!r}; use --list", file=sys.stderr)
        return EXIT_USAGE
    return _run(registry[args.name], args)


def _cmd_explore(args) -> int:
    # Each realm draws its private data granule from the free pool.
    if not 0 <= args.realms <= args.granules:
        raise ParseError(f"want 0 <= --realms <= --granules, not {args.realms} "
                         f"and {args.granules}")
    check_seed(args.seed)
    cfg = ExplorationConfig(realm_count=args.realms,
                            granule_count=args.granules,
                            depth=args.depth,
                            csm_max_size=args.csm_max_size,
                            disabled_checks=tuple(args.mutant),
                            state_cap=args.state_cap,
                            seed=args.seed)
    report = explore(cfg)
    print(json.dumps(report.to_json(), indent=2))
    return EXIT_OK if report.clean() else EXIT_FAILURE


def _cmd_bench(args) -> int:
    if args.size < 0 or args.iters < 1:
        raise ParseError(f"want --size >= 0 and --iters >= 1, not {args.size} "
                         f"and {args.iters}")
    reports = []
    for mode in args.mode:
        report = bench_run(mode, args.size, args.iters, seed=args.seed)
        reports.append(report)
        print(f"{report.mode:9} size={report.size_bytes} "
              f"median_latency_ns={report.median_latency_ns} "
              f"throughput_Bps={report.throughput_bps:.0f} "
              f"cpu_ns_per_msg={report.cpu_ns_per_msg}")
    if args.csv:
        append_csv(args.csv, reports)
        print(f"appended {len(reports)} rows to {args.csv}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csmsim",
        description="shared-memory isolation model: scenarios, exploration, "
                    "and the inter-realm channel benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    run_opts = argparse.ArgumentParser(add_help=False)
    run_opts.add_argument("--trace", help="write a JSONL trace here")
    run_opts.add_argument("--seed", type=int, default=None)
    run_opts.add_argument("--policy",
                          choices=sorted(p.value for p in HostPolicy),
                          help="override the scenario's host policy")

    p_run = sub.add_parser("run", parents=[run_opts], help="run a scenario file")
    p_run.add_argument("file")
    p_run.set_defaults(fn=_cmd_run)

    p_builtin = sub.add_parser("builtin", parents=[run_opts],
                               help="run a builtin scenario")
    p_builtin.add_argument("name", nargs="?")
    p_builtin.add_argument("--list", action="store_true")
    p_builtin.set_defaults(fn=_cmd_builtin)

    p_explore = sub.add_parser("explore", help="bounded exhaustive exploration")
    p_explore.add_argument("--realms", type=int, default=2)
    p_explore.add_argument("--granules", type=int, default=8)
    p_explore.add_argument("--depth", type=int, default=6)
    p_explore.add_argument("--csm-max-size", type=int, default=2)
    p_explore.add_argument("--mutant", action="append", default=[],
                           choices=DISABLEABLE_CHECKS,
                           help="disable a named monitor check (sensitivity runs)")
    p_explore.add_argument("--state-cap", type=int, default=200_000)
    p_explore.add_argument("--seed", type=int, default=0)
    p_explore.set_defaults(fn=_cmd_explore)

    p_bench = sub.add_parser("bench", help="inter-realm channel benchmark")
    p_bench.add_argument("--mode", action="append", choices=MODES, default=[],
                         help="repeatable; default: all three modes")
    p_bench.add_argument("--size", type=int, required=True)
    p_bench.add_argument("--iters", type=int, default=1000)
    p_bench.add_argument("--csv", help="append rows to this CSV file")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.set_defaults(fn=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "bench" and not args.mode:
        args.mode = list(MODES)
    try:
        return args.fn(args)
    except ParseError as err:
        print(str(err), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
