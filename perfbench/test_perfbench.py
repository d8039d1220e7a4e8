"""Tests of the benchmark itself: generator, fingerprints, tracing, exit codes.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import dataclasses
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from csmsim import explorer, harness, invariants  # noqa: E402
from csmsim.rmm import World  # noqa: E402

import run  # noqa: E402
import scenario_gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def tiny(name: str):
    """A workload of the given kind, shrunk to run in well under a second."""
    if name == "explore":
        w = workloads.Explore()
        w.depth = 2
    elif name.startswith("channel"):
        w = workloads.ChannelWorkload(name, name.split("-")[1])
        w.batch = 32
    else:
        w = workloads.ScenarioWorkload()
        w.granules, w.realms, w.timed_steps = 512, 8, 300
    return w


def run_tiny(name: str, seed: int, passes: int = 1):
    w = tiny(name)
    return w.run(w.build(w.prepare(seed)), None, passes)


def test_generator_same_seed_same_bytes_other_seed_other_bytes():
    first, prefix = scenario_gen.generate(5, 500, 512, 8)
    again, _ = scenario_gen.generate(5, 500, 512, 8)
    other, _ = scenario_gen.generate(6, 500, 512, 8)
    assert scenario_gen.document_bytes(first) == scenario_gen.document_bytes(again)
    assert scenario_gen.document_bytes(first) != scenario_gen.document_bytes(other)
    assert len(first["steps"]) >= prefix + 500
    harness.parse_scenario(first)


def test_churn_script_covers_every_command_and_recycles_realms():
    doc, prefix = scenario_gen.generate(2, 3000, 512, 8)
    ops = {step["op"] for step in doc["steps"][prefix:]}
    for op in ("rsi_csm_create", "rsi_csm_share", "rsi_csm_reserve",
               "rsi_csm_attach", "rsi_csm_revoke", "rsi_csm_destroy",
               "rsi_csm_detach_and_free", "rmi_realm_destroy",
               "rsi_attestation_token", "verify_token", "owner_release_peer_id",
               "rmi_data_destroy", "granule_undelegate", "realm_access",
               "physical_access"):
        assert op in ops, op
    timed = doc["steps"][prefix:]
    accesses = sum(step["op"] in ("realm_access", "physical_access")
                   for step in timed)
    assert accesses <= 0.1 * len(timed)
    assert any(step.get("expect") == "fault" for step in timed)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_has_no_failures_and_a_stable_fingerprint(name):
    first = run_tiny(name, 3)
    second = run_tiny(name, 3)
    assert first.failed == 0, first.notes
    assert first.ops > 0
    assert first.fingerprint == second.fingerprint


def test_long_churn_run_keeps_the_pool_and_every_expectation():
    w = tiny("monitor-churn")
    state = w.build(w.prepare(9, steps=4000))
    out = w.run(state, None, 1)
    assert out.failed == 0, out.notes
    assert out.fingerprint["steps"] == len(state.steps)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_reference_fingerprint_matches_recorded(name):
    w = workloads.WORKLOADS[name]
    outcome = None
    if name == "explore":
        outcome = w.run(w.build(w.prepare(0)), None, 1)
    expected = json.loads(run.FINGERPRINTS.read_text())[name]
    assert w.reference(outcome) == expected


def test_recorder_self_time_subtracts_children_and_restores_patches():
    recorder = spans.Recorder()
    original = invariants.check_invariants
    recorder.patch_function(invariants, "check_invariants", "inv")
    assert explorer.check_invariants is invariants.check_invariants
    assert explorer.check_invariants is not original
    outer = recorder.wrap("outer", lambda world: invariants.check_invariants(world))
    outer(World(granule_count=16))
    recorder.restore()
    assert invariants.check_invariants is original
    assert explorer.check_invariants is original
    summary = recorder.summary()
    assert summary["outer"]["calls"] == summary["inv"]["calls"] == 1
    covered = recorder.covered_ns(threading.get_ident())
    assert covered == summary["outer"]["self_ns"] + summary["inv"]["self_ns"]


def test_frontier_peak_follows_levels():
    # Level 0 has one state; it yields two new states, each of which
    # yields three more: frontiers 1, 2, 3.
    seq = ["explorer.explore", "invariants.check_invariants",
           "explorer.enabled_commands", "invariants.check_invariants",
           "invariants.check_invariants",
           "explorer.enabled_commands", "invariants.check_invariants",
           "explorer.enabled_commands", "invariants.check_invariants",
           "invariants.check_invariants"]
    assert run.frontier_peak(seq) == 3


@pytest.mark.parametrize("name", ["explore", "monitor-churn"])
def test_traced_run_reports_every_layer_metric(name, tmp_path):
    w = tiny(name)
    plain, traced, metrics, problems = run.run_traced(w, 4, 0.5,
                                                      tmp_path / "spans.bin")
    assert not problems
    assert set(metrics) == set(run.per_layer_units())
    shares = {k: v for k, v in metrics.items() if k.endswith(".share")}
    hot = {"explore": "rmm.World.clone.share",
           "monitor-churn": "invariants.check_invariants.share"}[name]
    assert max(shares, key=shares.get) == hot
    assert World.clone.__name__ == "clone" and not hasattr(World.clone, "__wrapped__")
    assert explorer.execute_step is harness.execute_step
    assert not hasattr(harness.execute_step, "__wrapped__")
    assert (tmp_path / "spans.bin").stat().st_size > 0


def test_command_line_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "explore", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reference_fingerprint_catches_a_changed_write(monkeypatch):
    from csmsim import granules

    def lost_write(self, index, data, offset=0):
        del self, index, data, offset

    monkeypatch.setattr(granules.GranuleSpace, "write", lost_write)
    w = workloads.WORKLOADS["monitor-churn"]
    expected = json.loads(run.FINGERPRINTS.read_text())["monitor-churn"]
    assert w.reference() != expected


def test_churn_passes_repeat_the_same_steps_from_a_fresh_world():
    out = run_tiny("monitor-churn", 3, passes=3)
    assert out.failed == 0, out.notes
    assert out.extra["passes"] == 3
    assert out.ops == len(out.latencies_ns) == 3 * out.period >= 3 * 300
    if workloads.CPUS:   # each pass ran pinned to one CPU; the pin is lifted
        assert sorted(os.sched_getaffinity(0)) == workloads.CPUS
    assert out.fingerprint == run_tiny("monitor-churn", 3).fingerprint


def test_explore_counts_one_operation_per_transition():
    out = run_tiny("explore", 1)
    assert out.failed == 0, out.notes
    assert out.ops == out.period == out.fingerprint["transitions"]
    assert len(out.latencies_ns) == out.ops


def test_a_failed_first_step_still_prints_an_incorrect_result(monkeypatch, capsys):
    w = tiny("monitor-churn")
    w.setup_reps = 1
    plain_run = w.run
    timed = []

    def run_with_unmet_first_step(state, deadline_ns, limit, recorder=None):
        if not timed:  # the timed run, not the reference that follows it
            timed.append(state.pos)
            state.steps[state.pos] = dataclasses.replace(
                state.steps[state.pos], expect={"error": "NoSuchError"})
        return plain_run(state, deadline_ns, limit, recorder)

    monkeypatch.setattr(w, "run", run_with_unmet_first_step)
    monkeypatch.setitem(workloads.WORKLOADS, "monitor-churn", w)
    code = run.main(["--workload", "monitor-churn", "--seed", "1",
                     "--seconds", "0.2", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result == {"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}


def test_fastest_per_operation_takes_each_operations_best_pass():
    # Three passes of two operations; the incomplete fourth pass is ignored.
    latencies = [5, 9, 3, 12, 4, 8, 1]
    assert run._fastest_per_operation(latencies, 2) == [3, 8]


def test_channel_passes_are_batches_with_a_cycle_time_per_message():
    out = run_tiny("channel-csm", 3, passes=2)
    assert out.failed == 0, out.notes
    assert out.period == 32 and out.extra["passes"] == 2
    assert out.ops == len(out.latencies_ns) == len(out.cycles_ns) == 64
    assert out.fingerprint == {"delivered_in_order": 64, "sent": 64}


def test_run_ends_at_the_pass_nearest_the_deadline():
    assert not workloads._past(None, 10**12, 10)
    assert not workloads._past(100, 40, 100)    # the next pass ends at 140
    assert workloads._past(100, 60, 100)        # the next pass ends at 160



def test_channel_figures_take_the_fast_quartile_over_passes():
    # Four passes of 100 messages at 10, 20, 30 and 40 us each; the pass at
    # 40 us stands for a slow stretch of the host.
    out = workloads.Outcome(period=100)
    for us in (10, 20, 30, 40):
        out.latencies_ns.extend([us * 1000] * 100)
        out.cycles_ns.extend([us * 1000] * 100)
    rate, p50, p99 = run._fast_quartile_over_passes(out, 4)
    assert rate == pytest.approx(statistics.quantiles([1e5, 5e4, 1e5 / 3, 2.5e4], n=4)[2])
    assert p50 == p99 == statistics.quantiles([1e4, 2e4, 3e4, 4e4], n=4)[0]
