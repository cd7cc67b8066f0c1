"""Tests of the benchmark harness itself: tracer bookkeeping, wrapping, digests.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import itertools
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

import caseweave.annealer
import caseweave.cli
import caseweave.wfnet
import measure
import tracer as tracing
import workloads
from caseweave import AnnealerConfig, RuleSet, SimulationConfig, read_pnml, simulate_log, strip_case_ids
from caseweave.annealer import run as anneal

SMALL = workloads.Workload("small-loop", "loop.pnml", 40, 0.25, "case_rules.txt", None)


def test_self_times_add_up_on_a_nested_call():
    ticks = itertools.count()
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    inner = tracer.wrap(lambda: leaf_t() + leaf_t(), "inner", coarse=True)
    leaf_t = tracer.wrap(leaf, "leaf")
    outer = tracer.wrap(lambda: inner() + leaf_t(), "outer", coarse=True)
    assert outer() == 3

    agg = tracer.aggregates
    assert {name: a.calls for name, a in agg.items()} == {"inner": 1, "leaf": 3, "outer": 1}
    # each call reads the clock twice, one tick apart per read
    assert agg["leaf"].total_s == agg["leaf"].self_s == 3.0
    assert agg["inner"].total_s == 5.0 and agg["inner"].self_s == 3.0
    assert agg["outer"].total_s == 9.0 and agg["outer"].self_s == 3.0
    assert sum(a.self_s for a in agg.values()) == agg["outer"].total_s == tracer.root_time
    spans = {s.name: s for s in tracer.spans}
    assert spans["outer"].parent is None
    assert spans["inner"].parent == spans["outer"].span_id
    assert spans["inner"].start > spans["outer"].start and spans["inner"].end < spans["outer"].end


def test_install_patches_every_lookup_and_uninstall_restores():
    originals = (
        caseweave.annealer.enabled_activities,
        caseweave.wfnet.align_trace,
        caseweave.annealer.StreamDecoder.__dict__["step"],
        caseweave.cli.evaluate,
    )
    with tracing.Tracer() as tracer:
        tracer.install(tracing.BOUNDARIES)
        assert caseweave.annealer.enabled_activities is not originals[0]
        assert caseweave.annealer.enabled_activities.__wrapped__ is originals[0]
        assert caseweave.wfnet.align_trace.__wrapped__ is originals[1]
        assert caseweave.annealer.StreamDecoder.__dict__["step"].__wrapped__ is originals[2]
        assert caseweave.cli.evaluate.__wrapped__ is caseweave.measures.evaluate.__wrapped__
    assert (
        caseweave.annealer.enabled_activities,
        caseweave.wfnet.align_trace,
        caseweave.annealer.StreamDecoder.__dict__["step"],
        caseweave.cli.evaluate,
    ) == originals


def test_cases_scanned_counts_no_scan_for_a_start_event():
    decoder = SimpleNamespace(start_activity="A", order=["c1", "c2", "c3"])
    assert tracing._cases_scanned(decoder, SimpleNamespace(activity="A")) == 0.0
    assert tracing._cases_scanned(decoder, SimpleNamespace(activity="B")) == 3.0


def test_wrapping_leaves_records_identical_on_a_loop_net_run():
    net = read_pnml(str(workloads.INPUTS / "loop.pnml"))
    stream = strip_case_ids(simulate_log(net, SimulationConfig(cases=30, inter_arrival=0.25, seed=3)))
    config = AnnealerConfig(population=3, s_max=4, seed=3)
    plain = anneal(stream, net, RuleSet(rules=()), config)
    with tracing.Tracer() as tracer:
        tracer.install(tracing.BOUNDARIES)
        # the traced run must look the function up through the patched module
        traced = caseweave.annealer.run(stream, net, RuleSet(rules=()), config)
    assert tracer.aggregates["annealer.decoder_step"].calls > 0
    assert tracer.aggregates["wfnet.enabled_activities"].calls > 0
    assert traced.records == plain.records
    assert traced.best.log.assignment == plain.best.log.assignment


def test_digest_is_stable_across_two_runs(tmp_path: Path):
    digests = []
    for attempt in range(2):
        work = measure.fresh(tmp_path / str(attempt))
        inputs = workloads.make_inputs(SMALL, 5, work)
        out, trace = work / "best.csv", work / "iterations.csv"
        assert workloads.cli(workloads.correlate_argv(inputs, 5, out, trace)) == 0
        digests.append(workloads.check_correlate(inputs, out, trace).digest)
    assert digests[0] == digests[1]


def test_checks_reject_a_broken_partition_and_a_worsening_best(tmp_path: Path):
    inputs = workloads.make_inputs(SMALL, 5, tmp_path)
    out, trace = tmp_path / "best.csv", tmp_path / "iterations.csv"
    assert workloads.cli(workloads.correlate_argv(inputs, 5, out, trace)) == 0
    good = out.read_text()
    out.write_text(good.replace("\nc1,", "\n,", 1))
    with pytest.raises(workloads.CheckFailed, match="has no case"):
        workloads.check_correlate(inputs, out, trace)
    out.write_text(good)
    lines = trace.read_text().splitlines()
    header = lines[0].split(",")
    last = lines[-1].split(",")
    last[header.index("global_best_fa")] = "999"
    trace.write_text("\n".join(lines[:-1] + [",".join(last)]) + "\n")
    with pytest.raises(workloads.CheckFailed, match="global best worsened"):
        workloads.check_correlate(inputs, out, trace)


def test_a_traced_pass_reports_every_per_layer_metric(tmp_path: Path):
    run = measure.Run(SMALL, 1)
    metrics = measure.traced(run, 0.0, tmp_path)
    assert run.errors == [] and run.failed == 0
    declared = json.loads((Path(__file__).parents[2] / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in declared["per_layer"]}
    assert metrics["trace.outside_s"][0] <= measure.OUTSIDE_SHARE * metrics["trace.wall_s"][0]


def test_a_trace_that_misses_a_layer_fails_the_pass(tmp_path: Path, monkeypatch):
    unwrapped = {"cli", "annealer"}
    kept = [b for b in tracing.BOUNDARIES if b.module not in unwrapped]
    monkeypatch.setattr(tracing, "BOUNDARIES", kept)
    run = measure.Run(SMALL, 1)
    assert measure.traced(run, 0.0, tmp_path) == {}
    assert any("outside every span" in error for error in run.errors)


def test_a_digest_that_differs_from_its_pin_or_its_first_run_fails():
    run = measure.Run(SMALL, 1)
    run.pins = {"4": "pinned"}
    with pytest.raises(workloads.CheckFailed, match="pinned"):
        run._pinned(4, workloads.CorrelateOutput("other", [], 0, 0, 0))
    run._pinned(5, workloads.CorrelateOutput("first", [], 0, 0, 0))
    with pytest.raises(workloads.CheckFailed, match="differs from the first"):
        run._pinned(5, workloads.CorrelateOutput("second", [], 0, 0, 0))


def test_reference_loop_leaves_the_rng_and_the_collector_alone():
    import gc
    import random

    state = random.getstate()
    assert measure.reference_loop() > 0
    assert random.getstate() == state
    assert gc.isenabled()


def test_end_to_end_scales_each_repetition_by_the_reference_loop(tmp_path: Path, monkeypatch):
    # loops alternate between 1x and 3x the reference time, so every
    # repetition sits between a 1x and a 3x loop and is scaled by 1/2
    loops = itertools.cycle([measure.REFERENCE_S, 3 * measure.REFERENCE_S])
    monkeypatch.setattr(measure, "reference_loop", lambda: next(loops))
    run = measure.Run(SMALL, 1)
    sample = {"setup_s": 0.1, "correlate_s": 1.0, "evaluate_s": 0.5, "l2l_freq": 0.75}
    monkeypatch.setattr(run, "repetition", lambda sub_seed, work: dict(sample))
    metrics = measure.end_to_end(run, 0.0, tmp_path)
    assert metrics["correlate_s"][0] == pytest.approx(0.5)
    assert metrics["evaluate_s"][0] == pytest.approx(0.25)
    assert metrics["setup_s"][0] == pytest.approx(0.05)
    assert metrics["l2l_freq"][0] == 0.75
