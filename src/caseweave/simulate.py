"""Synthetic log generation by playing the token game with durations.

Each case is one run of the net.  Tokens carry ready times; a transition fires
as soon as its preset tokens are ready, a visible transition then works for a
sampled integer duration and stamps its event with the completion minute,
silent transitions take no time and leave no event.  Completion order sorts
the events, so causally dependent events never swap and every simulated trace
replays on the net at alignment cost zero.

Case release times come from a calibration pass: the mean cycle time of a
bundle of throwaway runs, scaled by the configured inter-arrival fraction.
Small fractions stack many cases in flight; a fraction of 1 keeps work mostly
sequential.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Mapping

from .model import EventLog, InputError, UncorrelatedLog, build_uncorrelated_log, correlate
from .wfnet import WorkflowNet, validate_net

MAX_STEPS_PER_CASE = 10_000


@dataclass
class SimulationConfig:
    """Generation knobs; durations are (mean, jitter) minutes per activity."""

    cases: int = 10
    inter_arrival: float = 1.0
    seed: int = 0
    durations: Mapping[str, tuple[int, int]] = field(default_factory=dict)
    default_duration: tuple[int, int] = (60, 20)
    branch_weights: Mapping[str, float] = field(default_factory=dict)
    max_loop: int = 3
    calibration_runs: int = 100


def _check_weights(net: WorkflowNet, weights: Mapping[str, float]) -> None:
    """Explicitly weighted decisions must cover the decision and sum to 1."""
    unknown = set(weights) - {t.tid for t in net.transitions}
    if unknown:
        raise InputError(f"branch weights name unknown transitions: {sorted(unknown)}")
    successors: dict[str, list[str]] = {}
    for tid, preset in net.preset.items():
        for place in preset:
            successors.setdefault(place, []).append(tid)
    for place, tids in successors.items():
        if len(tids) < 2 or not any(t in weights for t in tids):
            continue
        missing = [t for t in tids if t not in weights]
        if missing:
            raise InputError(
                f"decision at place {place}: transitions {missing} lack branch weights"
            )
        total = sum(weights[t] for t in tids)
        if abs(total - 1.0) > 1e-9:
            raise InputError(f"decision at place {place}: branch weights sum to {total}, not 1")


def _duration_bounds(config: SimulationConfig, activity: str) -> tuple[int, int]:
    mean, jitter = config.durations.get(activity, config.default_duration)
    if mean < 1 or jitter < 0:
        raise InputError(f"duration for {activity!r} must have mean >= 1 and jitter >= 0")
    return max(1, mean - jitter), mean + jitter


def simulate_case(
    net: WorkflowNet,
    config: SimulationConfig,
    rng: random.Random,
    start_minute: int,
) -> list[tuple[str, int]]:
    """One run; returns (activity, completion minute) pairs in completion order."""
    tokens: dict[str, list[int]] = {net.input_place: [start_minute]}
    out_place = net.output_place
    fired: dict[str, int] = {}
    events: list[tuple[str, int]] = []
    for _step in range(MAX_STEPS_PER_CASE):
        if tokens.get(out_place):
            events.sort(key=lambda pair: pair[1])
            return events
        enabled = [
            t
            for t in net.transitions
            if all(len(tokens.get(p, ())) >= n for p, n in net.preset[t.tid].items())
        ]
        if not enabled:
            raise InputError("simulation deadlocked before reaching the final marking")
        fresh = [t for t in enabled if fired.get(t.tid, 0) < config.max_loop]
        candidates = fresh or enabled  # all capped: keep moving rather than stall
        weights = [config.branch_weights.get(t.tid, 1.0) for t in candidates]
        if not any(weights):
            # capping can exhaust every positively weighted branch
            weights = [1.0] * len(candidates)
        chosen = rng.choices(candidates, weights=weights, k=1)[0]
        fired[chosen.tid] = fired.get(chosen.tid, 0) + 1
        fire_time = start_minute
        for place, need in net.preset[chosen.tid].items():
            pool = sorted(tokens[place])
            take, keep = pool[:need], pool[need:]
            tokens[place] = keep
            fire_time = max(fire_time, *take)
        if chosen.label is None:
            ready = fire_time
        else:
            low, high = _duration_bounds(config, chosen.label)
            ready = fire_time + rng.randint(low, high)
            events.append((chosen.label, ready))
        for place, count in net.postset[chosen.tid].items():
            tokens.setdefault(place, []).extend([ready] * count)
    raise InputError(f"simulation exceeded {MAX_STEPS_PER_CASE} steps in one case")


def estimate_cycle_time(
    net: WorkflowNet, config: SimulationConfig, rng: random.Random
) -> float:
    """Mean first-to-last-event span over throwaway calibration runs."""
    spans = []
    for _ in range(max(1, config.calibration_runs)):
        events = simulate_case(net, config, rng, 0)
        if not events:
            raise InputError("net produced a case without visible events")
        spans.append(events[-1][1] - events[0][1])
    return sum(spans) / len(spans)


def simulate_log(net: WorkflowNet, config: SimulationConfig) -> EventLog:
    """Generate a correlated log of ``config.cases`` cases, deterministic per seed."""
    if config.cases < 1:
        raise InputError("need at least one case")
    if not 0 < config.inter_arrival < math.inf:  # NaN fails this too
        raise InputError(
            f"inter_arrival must be a finite number above 0, got {config.inter_arrival}"
        )
    report = validate_net(net)
    if not report.ok:
        raise InputError("net is not a workflow net: " + "; ".join(report.problems))
    _check_weights(net, config.branch_weights)
    master = random.Random(config.seed)
    calibration_rng = random.Random(master.getrandbits(64))
    case_rngs = [random.Random(master.getrandbits(64)) for _ in range(config.cases)]
    gap = config.inter_arrival * estimate_cycle_time(net, config, calibration_rng)
    rows: list[tuple[str, int, str]] = []
    for k, rng in enumerate(case_rngs):
        start = round(k * gap)
        for activity, minute in simulate_case(net, config, rng, start):
            rows.append((activity, minute, f"c{k + 1}"))
    rows.sort(key=lambda row: row[1])  # stable: same-minute events keep case order
    stream: UncorrelatedLog = build_uncorrelated_log(
        [(activity, minute, None) for activity, minute, _cid in rows]
    )
    assignment = {index: cid for index, (_act, _min, cid) in enumerate(rows, start=1)}
    return correlate(stream, assignment)
