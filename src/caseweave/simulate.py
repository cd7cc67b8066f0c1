"""Synthetic log generation by playing the token game with durations.

Each case is one run of the net.  The run walks the net's marking table: the
case's :class:`~caseweave.wfnet.MarkingNode` lists the enabled transitions and
the node each one leads to, so the table is the one enabling rule.  Beside the
node ride the tokens' ready times, a list per place.  A firing takes the
earliest ready time from each preset place and starts when the last of them is
ready; a visible transition then works for a sampled integer duration and
stamps its event with the completion minute, while silent transitions take no
time and leave no event.  The completion minute joins each postset place.
Completion order sorts the events, so causally dependent events never swap and
every simulated trace replays on the net at alignment cost zero.

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
DEFAULT_DURATION = (60, 20)  # (mean, jitter) minutes of an activity without its own
CALIBRATION_RUNS = 100


@dataclass
class SimulationConfig:
    """Generation knobs; durations are (mean, jitter) minutes per activity."""

    cases: int = 10
    inter_arrival: float = 1.0
    seed: int = 0
    durations: Mapping[str, tuple[int, int]] = field(default_factory=dict)
    branch_weights: Mapping[str, float] = field(default_factory=dict)
    max_loop: int = 3


def _check_config(net: WorkflowNet, config: SimulationConfig) -> None:
    """Reject what the runs would misread or ignore, naming the culprit.

    Branch weights must be finite and non-negative, and an explicitly weighted
    decision must cover its transitions and sum to 1.  Durations must name
    activities of the net, in whole minutes with mean >= 1 and jitter >= 0.
    """
    if config.cases < 1:
        raise InputError("need at least one case")
    if not 0 < config.inter_arrival < math.inf:  # NaN fails this too
        raise InputError(
            f"inter_arrival must be a finite number above 0, got {config.inter_arrival}"
        )
    unknown = sorted(set(config.durations) - net.labels)
    if unknown:
        raise InputError(f"durations name activities the net does not label: {unknown}")
    for activity, (mean, jitter) in config.durations.items():
        if not (isinstance(mean, int) and isinstance(jitter, int) and mean >= 1 and jitter >= 0):
            raise InputError(
                f"duration for {activity!r} must be whole minutes with mean >= 1"
                f" and jitter >= 0, got {(mean, jitter)}"
            )
    weights = config.branch_weights
    unknown = sorted(set(weights) - {t.tid for t in net.transitions})
    if unknown:
        raise InputError(f"branch weights name unknown transitions: {unknown}")
    for tid, weight in weights.items():
        if not 0 <= weight < math.inf:
            raise InputError(f"branch weight for {tid} must be finite and >= 0, got {weight}")
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


def simulate_case(
    net: WorkflowNet,
    config: SimulationConfig,
    rng: random.Random,
    start_minute: int,
) -> list[tuple[str, int]]:
    """One run; returns (activity, completion minute) pairs in completion order.

    ``config`` is taken as :func:`simulate_log` has checked it.
    """
    node = net.initial
    ready: dict[str, list[int]] = {net.input_place: [start_minute]}
    out_place = net.output_place
    fired: dict[str, int] = {}
    events: list[tuple[str, int]] = []
    for _step in range(MAX_STEPS_PER_CASE):
        if node.holds(out_place):
            events.sort(key=lambda pair: pair[1])
            return events
        enabled = node.successors()
        if not enabled:
            raise InputError("simulation deadlocked before reaching the final marking")
        fresh = [(t, nxt) for t, nxt in enabled if fired.get(t.tid, 0) < config.max_loop]
        candidates = fresh or enabled  # all capped: keep moving rather than stall
        weights = [config.branch_weights.get(t.tid, 1.0) for t, _nxt in candidates]
        if not any(weights):
            # capping can exhaust every positively weighted branch
            weights = [1.0] * len(candidates)
        chosen, node = rng.choices(candidates, weights=weights, k=1)[0]
        fired[chosen.tid] = fired.get(chosen.tid, 0) + 1
        fire_time = start_minute
        for place in net.preset[chosen.tid]:
            pool = ready[place]
            earliest = min(pool)
            pool.remove(earliest)
            fire_time = max(fire_time, earliest)
        if chosen.label is None:
            done = fire_time
        else:
            mean, jitter = config.durations.get(chosen.label, DEFAULT_DURATION)
            done = fire_time + rng.randint(max(1, mean - jitter), mean + jitter)
            events.append((chosen.label, done))
        for place in net.postset[chosen.tid]:
            ready.setdefault(place, []).append(done)
    raise InputError(f"simulation exceeded {MAX_STEPS_PER_CASE} steps in one case")


def estimate_cycle_time(
    net: WorkflowNet, config: SimulationConfig, rng: random.Random
) -> float:
    """Mean first-to-last-event span over throwaway calibration runs."""
    spans = []
    for _ in range(CALIBRATION_RUNS):
        events = simulate_case(net, config, rng, 0)
        if not events:
            raise InputError("net produced a case without visible events")
        spans.append(events[-1][1] - events[0][1])
    return sum(spans) / len(spans)


def simulate_log(net: WorkflowNet, config: SimulationConfig) -> EventLog:
    """Generate a correlated log of ``config.cases`` cases, deterministic per seed."""
    _check_config(net, config)
    report = validate_net(net)
    if not report.ok:
        raise InputError("net is not a workflow net: " + "; ".join(report.problems))
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
