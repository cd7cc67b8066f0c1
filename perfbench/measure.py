"""The two kinds of benchmark run: end to end with tracing off, and traced.

A run with ``--seed s`` uses ``INPUTS_PER_RUN`` inputs, with sub-seeds
``s * INPUTS_PER_RUN + k``.  Each sub-seed is both the simulation seed and the
annealer seed.  The work of one correlate varies between sub-seeds, with the
stream and the annealer's random cut points, so a run averages over several
of them rather than resting on one draw.

The end-to-end timings are scaled to a fixed host speed; see
:func:`reference_loop`.

Both kinds count every CLI invocation as one operation.  An operation fails
when it raises, exits non-zero, or its output fails a check; a correlate
output also fails when its digest differs from the first one of the same
sub-seed, or from the sub-seed's digest in ``pins.json``.
"""

from __future__ import annotations

import gc
import itertools
import json
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Hashable, TypeVar

import tracer as tracing
import workloads
from workloads import CheckFailed, CorrelateOutput, Inputs, Workload

PINS = Path(__file__).resolve().parent / "pins.json"
INPUTS_PER_RUN = 24
# Time outside every span, as a share of the traced wall time, above which
# the trace is taken to miss part of the program.
OUTSIDE_SHARE = 0.02
# Seconds the reference loop takes at the host speed that end-to-end
# timings are scaled to: about its time on a 2-vCPU x86 VM in a fast phase.
REFERENCE_S = 0.15

Metrics = dict[str, tuple[float, str]]
T = TypeVar("T")


class Run:
    """Counts operations and failures; checks that repeated work repeats exactly."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.sub_seeds = [seed * INPUTS_PER_RUN + k for k in range(INPUTS_PER_RUN)]
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.firsts: dict[Hashable, object] = {}
        self.pins: dict[str, str] = json.loads(PINS.read_text()).get(workload.name, {})

    def fail(self, message: str) -> None:
        self.errors.append(message)
        print(f"check failed: {message}", file=sys.stderr)

    def same_as_first(self, key: Hashable, value: object) -> None:
        """``value`` must equal the first value recorded under ``key``."""
        first = self.firsts.setdefault(key, value)
        if value != first:
            raise CheckFailed(f"{key}: {value} differs from the first {first}")

    def operation(self, argv: list[str], check: Callable[[], T]) -> tuple[float, T | None]:
        """Run one CLI operation; returns its wall time and the check's result."""
        self.attempted += 1
        gc.collect()
        start = time.perf_counter()
        try:
            code = workloads.cli(argv)
        except Exception:
            traceback.print_exc()
            code = None
        seconds = time.perf_counter() - start
        try:
            if code != 0:
                raise CheckFailed(f"exited with {code}")
            return seconds, check()
        # a missing, empty or malformed output file fails the check too
        except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
            self.failed += 1
            self.fail(f"caseweave {argv[0]}: {exc}")
            return seconds, None

    def setup(self, sub_seed: int, work: Path) -> tuple[float, Inputs]:
        """Make the inputs of ``sub_seed``; a repeat must write the same bytes."""
        fresh(work)
        gc.collect()
        start = time.perf_counter()
        inputs = workloads.make_inputs(self.workload, sub_seed, work)
        seconds = time.perf_counter() - start
        try:
            self.same_as_first(("set-up", sub_seed), workloads.files_digest(inputs))
        except CheckFailed as exc:
            self.fail(str(exc))
        return seconds, inputs

    def correlate(
        self, sub_seed: int, inputs: Inputs, work: Path
    ) -> tuple[float, Path, CorrelateOutput | None]:
        out, trace = work / "best.csv", work / "iterations.csv"
        argv = workloads.correlate_argv(inputs, sub_seed, out, trace)
        seconds, output = self.operation(
            argv, lambda: self._pinned(sub_seed, workloads.check_correlate(inputs, out, trace))
        )
        return seconds, out, output

    def _pinned(self, sub_seed: int, output: CorrelateOutput) -> CorrelateOutput:
        self.same_as_first(("digest", sub_seed), output.digest)
        pin = self.pins.get(str(sub_seed))
        if pin is not None and output.digest != pin:
            raise CheckFailed(f"sub-seed {sub_seed}: digest {output.digest} != pinned {pin}")
        return output

    def evaluate(
        self, inputs: Inputs, best: Path, work: Path
    ) -> tuple[float, dict[str, float] | None, Path, Path]:
        events = self.workload.evaluate_events
        truth = workloads.write_window(inputs.truth, work / "truth_window.csv", events)
        generated = workloads.write_window(best, work / "best_window.csv", events)
        report = work / "report.csv"
        seconds, values = self.operation(
            workloads.evaluate_argv(truth, generated, report),
            lambda: workloads.check_report(report, truth, generated),
        )
        return seconds, values, truth, generated

    def repetition(self, sub_seed: int, work: Path) -> dict[str, float] | None:
        """Set up, correlate and evaluate one input; None if an operation failed."""
        setup_s, inputs = self.setup(sub_seed, work)
        correlate_s, best, output = self.correlate(sub_seed, inputs, work)
        if output is None:
            return None
        evaluate_s, values, _truth, _generated = self.evaluate(inputs, best, work)
        if values is None:
            return None
        try:
            self.same_as_first(("l2l_freq", sub_seed), values["l2l_freq"])
        except CheckFailed as exc:
            self.fail(str(exc))
        return {
            "setup_s": setup_s, "correlate_s": correlate_s,
            "evaluate_s": evaluate_s, "l2l_freq": values["l2l_freq"],
        }


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class _Node:
    __slots__ = ("key", "out", "weight")

    def __init__(self, key: tuple[int, str], weight: float) -> None:
        self.key = key
        self.out: list[_Node] = []
        self.weight = weight


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop of the benchmark's own.

    The loop is the host-speed yardstick.  The shared host's speed swings by
    up to 2x, in phases of ten seconds or more, so a whole run can fall in a
    slow phase.  The loop does the kind of work the program does: it builds
    small objects, walks a graph through them, and looks up tuple and
    frozenset keys in dicts of tens of thousands of entries.  So a slow
    phase stretches it about as much as it stretches the program.  It calls
    no caseweave code and uses its own RNG, so no change to the program
    changes its time.  The collector is off while it runs: it makes no
    cycles, and a full collection would walk the program's heap.
    """
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        rng = random.Random(2)
        nodes = [_Node((i % 97, str(i)), rng.random()) for i in range(30000)]
        for node in nodes:
            node.out = [nodes[rng.randrange(len(nodes))] for _ in range(3)]
        seen: dict[frozenset, float] = {}
        frontier = [nodes[0]]
        for _ in range(6):
            reached = []
            for node in frontier:
                for target in node.out:
                    key = frozenset((target.key, node.key))
                    if key not in seen:
                        seen[key] = target.weight
                        reached.append(target)
            frontier = sorted(reached, key=lambda n: n.key)[:20000]
        counts: dict[tuple[int, ...], int] = {}
        keys = [tuple(sorted(rng.sample(range(40), 4))) for _ in range(30000)]
        for key in keys:
            counts[key] = counts.get(key, 0) + 1
        return time.perf_counter() - start
    finally:
        gc.enable()


TIMINGS = ("correlate_s", "evaluate_s", "setup_s")


def end_to_end(run: Run, seconds: float, work: Path) -> Metrics:
    """Walk the run's inputs in order, wrapping round, until the deadline.

    One untimed repetition of the first input warms up first.  The reference
    loop runs before the first timed repetition and after each one; every
    timing of a repetition is scaled by ``REFERENCE_S`` over the mean of the
    loop times just before and just after it.  A reported timing is the
    median of the scaled times of all repetitions.  The inputs differ in
    work more than repeats of one input differ in scaled time, so a run
    spends its time on as many inputs as it can reach rather than on
    repeats; the median keeps out phase changes that fell between a
    repetition and the loop.
    """
    deadline = time.perf_counter() + seconds
    if run.repetition(run.sub_seeds[0], work) is None:
        return {}
    samples: dict[int, list[dict[str, float]]] = {s: [] for s in run.sub_seeds}
    raw: dict[str, list[float]] = {name: [] for name in TIMINGS}
    references = [reference_loop()]
    repetition_times: list[float] = []
    for sub_seed in itertools.cycle(run.sub_seeds):
        start = time.perf_counter()
        sample = run.repetition(sub_seed, work)
        if sample is None:
            return {}  # a failed operation ends the run; the result says so
        references.append(reference_loop())
        scale = REFERENCE_S / statistics.fmean(references[-2:])
        for name in TIMINGS:
            raw[name].append(sample[name])
            sample[name] *= scale
        samples[sub_seed].append(sample)
        repetition_times.append(time.perf_counter() - start)
        if deadline - time.perf_counter() < statistics.median(repetition_times):
            break

    pooled = [sample for per_input in samples.values() for sample in per_input]
    for name in TIMINGS:
        print(f"{name} scaled: " + "; ".join(
            f"{sub_seed}: {[round(s[name], 3) for s in per_input]}"
            for sub_seed, per_input in samples.items() if per_input
        ))
        print(f"{name} unscaled median: {statistics.median(raw[name]):.4f}")
    print(f"reference loop s: median {statistics.median(references):.4f}, "
          f"min {min(references):.4f}, max {max(references):.4f}, n {len(references)}")
    return {
        **{name: (statistics.median(s[name] for s in pooled), "s") for name in TIMINGS},
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        # deterministic per input; the first eight inputs, which every run
        # reaches, so the figure does not depend on the program's speed
        "l2l_freq": (
            statistics.fmean([p[0]["l2l_freq"] for p in samples.values() if p][:8]), "ratio"
        ),
    }


def _percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def proposal_times_ms(spans: list[tracing.Span]) -> list[float]:
    """Neighbour start to evaluation end, for each proposal made by ``annealer.run``."""
    runs = {s.span_id for s in spans if s.name == "annealer.run"}
    steps: dict[int | None, list[tracing.Span]] = {}
    for span in sorted(spans, key=lambda s: s.start):
        if span.parent in runs and span.name in ("annealer.neighbor", "annealer.evaluate_individual"):
            steps.setdefault(span.parent, []).append(span)
    return [
        (evaluation.end - proposal.start) * 1000
        for ordered in steps.values()
        for proposal, evaluation in zip(ordered[::2], ordered[1::2])
    ]


CALL_COUNTS = (
    "annealer.decoder_step", "wfnet.enabled_activities", "wfnet.advance", "wfnet.is_final",
    "model.correlate", "rules.score", "wfnet.align_trace", "wfnet.get_or_compute",
    "measures.edit_distance",
)
SELF_TIMES = (
    "annealer.decoder_step", "wfnet.enabled_activities", "wfnet.advance", "wfnet.is_final",
    "annealer.replay_prefix", "annealer.evaluate_individual", "model.correlate",
    "annealer.time_variance", "rules.score", "rules.rule_cost", "wfnet.align_trace",
    "wfnet.log_alignment_cost", "measures.evaluate", "measures.l2l_freq",
    "measures.edit_distance", "logio.read_log_csv", "logio.write_log_csv",
    "simulate.simulate_log",
)


def layer_metrics(tracer: tracing.Tracer, wall: float) -> Metrics:
    """Counts, self times and ratios of one traced pass.

    ``wall`` is the harness's own timing of its calls into the program.  The
    wrappers split the time inside top-level spans among the layers, so the
    layer self times add up to it; what they cannot see is ``wall`` minus
    that, the time outside every span, which must stay a small share.
    """
    outside = wall - tracer.root_time
    if not 0 <= outside <= OUTSIDE_SHARE * wall:
        raise CheckFailed(f"{outside:.4f} s of {wall:.4f} s traced wall time is outside every span")
    agg = tracer.aggregates
    m: Metrics = {}
    for name in CALL_COUNTS:
        m[f"{name}.calls"] = (agg[name].calls, "count")
    for name in SELF_TIMES:
        m[f"{name}.self_s"] = (agg[name].self_s, "s")
    step, replay = agg["annealer.decoder_step"], agg["annealer.replay_prefix"]
    m["annealer.fit_checks_per_event"] = (agg["wfnet.enabled_activities"].calls / step.calls, "ratio")
    m["annealer.cases_scanned_per_event"] = (step.sample_sum / step.calls, "ratio")
    m["annealer.suffix_events.mean"] = (replay.sample_sum / replay.calls, "events")
    m["rules.score.empty_calls"] = (agg["rules.score"].sample_sum, "count")
    m["wfnet.alignment_cache.hit_ratio"] = (
        1 - agg["wfnet.align_trace"].calls / agg["wfnet.get_or_compute"].calls, "ratio"
    )
    proposals = proposal_times_ms(tracer.spans)
    m["annealer.proposal_ms.p50"] = (statistics.median(proposals), "ms")
    m["annealer.proposal_ms.p80"] = (_percentile(proposals, 0.8), "ms")
    for layer in tracing.LAYERS:
        layer_self = sum(a.self_s for n, a in agg.items() if n.split(".")[0] == layer)
        m[f"{layer}.self_s"] = (layer_self, "s")
    m["trace.outside_s"] = (outside, "s")
    m["trace.wall_s"] = (wall, "s")
    return m


def traced(run: Run, seconds: float, work: Path) -> Metrics:
    """Passes of one untraced correlate, then a traced set-up, correlate and evaluate.

    Every pass uses the run's first input.  Reports the median of each metric
    over the passes that fit in ``seconds``.  The harness times only its calls
    into the program; its checks run between them, outside the traced time.
    """
    deadline = time.perf_counter() + seconds
    sub_seed = run.sub_seeds[0]
    passes: list[Metrics] = []
    pass_times: list[float] = []
    while True:
        pass_start = time.perf_counter()
        _setup_s, inputs = run.setup(sub_seed, work / "plain")
        plain_s, _best, plain = run.correlate(sub_seed, inputs, work / "plain")
        if plain is None:
            break
        with tracing.Tracer() as tracer:
            tracer.install(tracing.BOUNDARIES)
            # same check key as the untraced set-up and correlate, so the
            # traced inputs and digest must equal the untraced ones
            setup_s, inputs = run.setup(sub_seed, work / "traced")
            traced_s, best, output = run.correlate(sub_seed, inputs, work / "traced")
            values = None
            if output is not None:
                evaluate_s, values, truth, generated = run.evaluate(inputs, best, work / "traced")
        if output is None or values is None:
            break
        try:
            metrics = layer_metrics(tracer, setup_s + traced_s + evaluate_s)
        except CheckFailed as exc:
            run.fail(str(exc))
            break
        _h, truth_rows = workloads.read_rows(truth)
        _h, best_rows = workloads.read_rows(generated)
        activities = [row[1] for row in truth_rows]
        metrics.update({
            "trace.overhead_ratio": (traced_s / plain_s, "ratio"),
            "measures.trace_variants.truth": (
                workloads.trace_variants([row[0] for row in truth_rows], activities), "count"),
            "measures.trace_variants.best": (
                workloads.trace_variants([row[0] for row in best_rows], activities), "count"),
            "measures.l2l_case": (
                workloads.l2l_case(workloads.truth_case_ids(inputs), output.case_ids), "ratio"),
            "annealer.best_fa": (output.best_fa, "count"),
            "annealer.proposals.accepted": (output.accepted, "count"),
            "annealer.proposals.rejected": (output.rejected, "count"),
        })
        passes.append(metrics)
        pass_times.append(time.perf_counter() - pass_start)
        if deadline - time.perf_counter() < statistics.median(pass_times):
            break
    if not passes:
        return {}
    return {
        name: (statistics.median(p[name][0] for p in passes), unit)
        for name, (_value, unit) in passes[0].items()
    }
