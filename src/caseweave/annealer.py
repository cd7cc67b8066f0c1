"""Event-case correlation: greedy streaming decoder plus simulated annealing.

The decoder assigns one event at a time.  A start-activity event always opens a
new case.  Otherwise, open cases whose marking can reach the event's activity
(through silent transitions) compete on the number of satisfied rules; when no
open case can replay the activity, every existing case competes instead and the
winner's marking stays untouched, recording the event as a deviation.  Score
ties are broken uniformly at random.  The decoder indexes its open cases, in
opening order, so the search for a fitting case costs the cases in flight, not
every case ever opened; ``StreamDecoder._advance`` is the one place that keeps
that index in step with the cases' ``closed`` flags.

The annealer keeps a population of candidate correlations.  A neighbor keeps a
prefix of the stream's assignments, replays it to rebuild case markings, and
re-decodes the suffix; the cut point is drawn closer to the end of the stream
as the level rises.  Candidates are compared lexicographically on the energy
triple (alignment cost fa, rule cost fr, duration variance ft); a worse
candidate is still adopted with probability exp(-delta/tau) under a
logarithmic cooling schedule.  The best individual ever seen is tracked
separately and never regresses.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .model import Event, EventLog, InputError, UncorrelatedLog, correlate, elapsed_time
from .rules import RuleSet, rule_cost, score_each
from .wfnet import (
    DEFAULT_MARKING_BUDGET,
    DEFAULT_STATE_BUDGET,
    AlignmentCache,
    BudgetExceeded,
    Marking,
    MarkingNode,
    WorkflowNet,
    enabled_activities,  # noqa: F401  re-exported: part of this module's namespace
    infer_start_activity,
    log_alignment_cost,
    thaw,
)


@dataclass
class AnnealerConfig:
    """Knobs for :func:`run`; defaults suit small to mid-size streams."""

    tau_init: float = 100.0
    s_max: int = 10
    population: int = 5
    seed: int = 0
    marking_budget: int = DEFAULT_MARKING_BUDGET
    state_budget: int = DEFAULT_STATE_BUDGET
    # Recompute fa and fr without the run's alignment and rule-verdict memos and compare.
    debug_recompute: bool = False

    def validate(self) -> None:
        """Raise InputError, naming the field, for a count or budget below 1 or a bad tau_init."""
        for name in ("population", "s_max", "marking_budget", "state_budget"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not 0 < self.tau_init < math.inf:  # NaN fails this too
            raise InputError(f"tau_init must be a finite number above 0, got {self.tau_init}")


@dataclass(frozen=True)
class Individual:
    """A correlated log with its cached energy triple."""

    log: EventLog
    fa: int
    fr: float
    ft: float

    @property
    def energies(self) -> tuple[int, float, float]:
        return (self.fa, self.fr, self.ft)


@dataclass(frozen=True)
class IterationRecord:
    """One population slot after one annealing iteration."""

    s_curr: int
    tau_curr: float
    slot: int
    fa: int
    fr: float
    ft: float
    accepted: bool
    global_best_fa: int
    global_best_fr: float
    global_best_ft: float


@dataclass(frozen=True)
class AnnealerResult:
    best: Individual
    records: tuple[IterationRecord, ...]


@dataclass
class CaseRun:
    """Mutable per-case decoder state."""

    case_id: str
    node: MarkingNode
    events: list[Event] = field(default_factory=list)
    closed: bool = False

    @property
    def marking(self) -> Marking:
        return thaw(self.node.marking)


class StreamDecoder:
    """Feeds events one by one and accumulates an index -> case assignment.

    ``open_runs`` indexes the open cases: it holds exactly the runs of
    ``order`` whose ``closed`` is False, in opening order.  ``open_case`` adds
    to it and ``_advance`` keeps it in step; nothing else changes ``closed``.

    The decoder also counts how its ``step`` calls ended: ``opened`` a case,
    ``fitted`` an open case, or were absorbed as ``deviations`` (these three sum
    to the calls), plus the ``ties_drawn`` with the RNG and the open cases
    ``scanned`` for a fit.  The counts draw no RNG and change no assignment.
    """

    def __init__(
        self,
        net: WorkflowNet,
        rules: RuleSet,
        rng: random.Random,
        start_activity: str | None = None,
        marking_budget: int = DEFAULT_MARKING_BUDGET,
    ) -> None:
        self.rules = rules
        self.rng = rng
        self.marking_budget = marking_budget
        self.start_activity = (
            start_activity
            if start_activity is not None
            else infer_start_activity(net, marking_budget)
        )
        self.initial = net.node(net.initial_marking())
        self.cases: dict[str, CaseRun] = {}
        self.order: list[CaseRun] = []
        self.open_runs: dict[str, CaseRun] = {}
        self.assignment: dict[int, str] = {}
        self.opened = self.fitted = self.deviations = self.ties_drawn = self.scanned = 0

    def open_case(self, case_id: str | None = None) -> CaseRun:
        if case_id is None:
            n = len(self.order) + 1
            while f"c{n}" in self.cases:
                n += 1
            case_id = f"c{n}"
        if case_id in self.cases:
            raise InputError(f"case id {case_id} already open")
        run = CaseRun(case_id=case_id, node=self.initial)
        self.cases[case_id] = run
        self.order.append(run)
        self.open_runs[case_id] = run
        return run

    def _advance(self, run: CaseRun, activity: str) -> bool:
        """Replay ``activity`` in the case's marking if reachable; update closed.

        This is the only place ``closed`` changes, so it keeps ``open_runs``
        in step: a run that closes leaves the index, and a closed run that
        reopens (``replay_prefix`` can advance a case out of a marking that is
        final yet still enables a labelled move) rebuilds it from ``order``,
        so the index keeps opening order.
        """
        nxt = run.node.moves(self.marking_budget).get(activity)
        if nxt is None:
            return False
        run.node = nxt
        closed = nxt.final(self.marking_budget)
        if closed != run.closed:
            run.closed = closed
            if closed:
                del self.open_runs[run.case_id]
            else:
                self.open_runs = {r.case_id: r for r in self.order if not r.closed}
        return True

    def _pick(self, candidates: Sequence[CaseRun], event: Event) -> CaseRun:
        if len(candidates) == 1:
            return candidates[0]
        if not self.rules.rules:
            tied = candidates  # every score would tie at 0
        else:
            scores = score_each(self.rules, event, [run.events for run in candidates])
            top = max(scores)
            tied = [run for run, s in zip(candidates, scores) if s == top]
            if len(tied) == 1:
                return tied[0]
        self.ties_drawn += 1
        return self.rng.choice(tied)

    def step(self, event: Event) -> str:
        """Assign ``event`` to a case and return the chosen case id.

        Only the open cases of ``open_runs`` are scanned for a fit, in opening
        order; closed cases compete only when no open case fits.
        """
        if event.activity == self.start_activity:
            chosen = self.open_case()
            self.opened += 1
            if not self._advance(chosen, event.activity):
                raise InputError(
                    f"start activity {event.activity!r} cannot fire from the initial marking"
                )
        else:
            budget = self.marking_budget
            self.scanned += len(self.open_runs)
            fitting = [
                run for run in self.open_runs.values() if event.activity in run.node.moves(budget)
            ]
            if fitting:
                self.fitted += 1
                chosen = self._pick(fitting, event)
                self._advance(chosen, event.activity)
            elif self.order:
                # No case can replay the activity: every case competes and the
                # winner absorbs the event without moving its marking.
                self.deviations += 1
                chosen = self._pick(self.order, event)
            else:
                self.opened += 1
                chosen = self.open_case()
        chosen.events.append(event)
        self.assignment[event.index] = chosen.case_id
        return chosen.case_id

    def run(self, events: Iterable[Event]) -> dict[int, str]:
        for event in events:
            self.step(event)
        return self.assignment


def replay_prefix(
    decoder: StreamDecoder,
    stream: UncorrelatedLog,
    assignment: dict[int, str],
    cut: int,
) -> None:
    """Load events before 1-based ``cut`` into ``decoder`` with fixed case ids.

    Markings are rebuilt by replay: an event whose activity is reachable from
    its case's marking fires through the shortest silent prefix, anything else
    leaves the marking unchanged (same reading as decoder scenario 3).
    """
    for event in stream.events[: cut - 1]:
        case_id = assignment[event.index]
        run = decoder.cases.get(case_id)
        if run is None:
            run = decoder.open_case(case_id)
        decoder._advance(run, event.activity)
        run.events.append(event)
        decoder.assignment[event.index] = case_id


def _duration_stats(log: EventLog) -> tuple[list[tuple[str, int]], dict[str, float]]:
    """(activity, elapsed minutes) per non-first event of each case, and each activity's mean."""
    samples: list[tuple[str, int]] = []
    per_activity: dict[str, list[int]] = {}
    for case in log.cases:
        for position in range(2, len(case.events) + 1):
            activity = case.events[position - 1].activity
            duration = elapsed_time(case, position)
            samples.append((activity, duration))
            per_activity.setdefault(activity, []).append(duration)
    return samples, {act: sum(vals) / len(vals) for act, vals in per_activity.items()}


def duration_means(log: EventLog) -> dict[str, float]:
    """Mean elapsed time per activity, over non-first events of each case."""
    return _duration_stats(log)[1]


def time_variance(log: EventLog) -> float:
    """Variance of inter-event durations around their per-activity means.

    Durations are taken per case over every non-first event; the denominator is
    the count of such events.  A log of singleton cases scores 0.
    """
    samples, mean = _duration_stats(log)
    if not samples:
        return 0.0
    return sum((mean[act] - duration) ** 2 for act, duration in samples) / len(samples)


def evaluate_individual(
    stream: UncorrelatedLog,
    assignment: dict[int, str],
    net: WorkflowNet,
    rules: RuleSet,
    cache: AlignmentCache | None = None,
    config: AnnealerConfig | None = None,
    verdicts: dict[tuple[int, ...], tuple[int, int]] | None = None,
) -> Individual:
    """Build the correlated log and its energy triple; ``verdicts`` is ``rule_cost``'s memo."""
    config = config or AnnealerConfig()
    log = correlate(stream, assignment)
    fa = log_alignment_cost(net, log, cache, config.state_budget)
    fr = rule_cost(log, rules, memo=verdicts)
    if config.debug_recompute and (cache is not None or verdicts is not None):
        fresh = (log_alignment_cost(net, log, None, config.state_budget), rule_cost(log, rules))
        if fresh != (fa, fr):
            raise AssertionError(f"memoized energies {(fa, fr)} != recomputed {fresh}")
    ft = time_variance(log)
    return Individual(log=log, fa=fa, fr=fr, ft=ft)


def initial_individual(
    stream: UncorrelatedLog,
    net: WorkflowNet,
    rules: RuleSet,
    rng: random.Random,
    config: AnnealerConfig | None = None,
    cache: AlignmentCache | None = None,
    start_activity: str | None = None,
    verdicts: dict[tuple[int, ...], tuple[int, int]] | None = None,
) -> Individual:
    """Decode the whole stream greedily and evaluate it."""
    config = config or AnnealerConfig()
    decoder = StreamDecoder(net, rules, rng, start_activity, config.marking_budget)
    assignment = decoder.run(stream.events)
    return evaluate_individual(stream, assignment, net, rules, cache, config, verdicts)


def neighbor(
    stream: UncorrelatedLog,
    current: Individual,
    s_curr: int,
    net: WorkflowNet,
    rules: RuleSet,
    rng: random.Random,
    config: AnnealerConfig,
    start_activity: str | None = None,
) -> dict[int, str]:
    """Propose a new assignment by re-decoding a random suffix.

    The cut point is uniform on [floor(n * (s_curr - 1) / s_max) + 1, n], so
    early levels may rebuild everything and late levels only touch the tail.
    """
    n = len(stream)
    low = (n * (s_curr - 1)) // config.s_max + 1
    cut = rng.randint(low, n)
    decoder = StreamDecoder(net, rules, rng, start_activity, config.marking_budget)
    replay_prefix(decoder, stream, current.log.assignment, cut)
    for event in stream.events[cut - 1 :]:
        decoder.step(event)
    return decoder.assignment


def delta_cost(current: Individual, candidate: Individual) -> float:
    """Energy increase along the first lexicographic component that got worse."""
    for now, new in zip(current.energies, candidate.energies):
        if new > now:
            return float(new - now)
    return candidate.ft - current.ft


def acceptance_prob(delta: float, tau: float) -> float:
    """exp(-delta / tau); above 1 means certain acceptance."""
    if tau <= 0:
        raise InputError(f"temperature must be positive, got {tau}")
    exponent = -delta / tau
    if exponent >= 709.0:  # math.exp overflows just past this
        return math.inf
    return math.exp(exponent)


def cooling(tau_init: float, s_curr: int) -> float:
    """Logarithmic schedule tau_init / ln(1 + s)."""
    if s_curr < 1:
        raise InputError(f"level must be at least 1, got {s_curr}")
    return tau_init / math.log(1 + s_curr)


def select_next(
    current: Individual, candidate: Individual, tau: float, rng: random.Random
) -> Individual:
    """A lexicographically lower energy triple wins outright; anything else needs the coin.

    The RNG is consulted only when the candidate is not strictly better, so
    improving proposals never disturb the random stream.
    """
    if candidate.energies < current.energies:
        return candidate
    if acceptance_prob(delta_cost(current, candidate), tau) >= rng.random():
        return candidate
    return current


def _lex_best(best: Individual | None, contenders: Iterable[Individual]) -> Individual:
    for candidate in contenders:
        if best is None or candidate.energies < best.energies:
            best = candidate
    if best is None:
        raise InputError("empty population")
    return best


def run(
    stream: UncorrelatedLog,
    net: WorkflowNet,
    rules: RuleSet,
    config: AnnealerConfig | None = None,
) -> AnnealerResult:
    """Population annealing over suffix re-decodes; deterministic per seed.

    Each slot owns a Random seeded from one master stream, so a slot's
    trajectory does not depend on the population size.  Every level steps the
    slots in slot order, then reduces the global best once over the population
    in slot order.  A neighbour that runs out of budget is rejected; building
    the initial population raises BudgetExceeded instead.
    """
    config = config or AnnealerConfig()
    config.validate()
    start_activity = infer_start_activity(net, config.marking_budget)
    cache = AlignmentCache()
    verdicts: dict[tuple[int, ...], tuple[int, int]] = {}  # rule_cost's memo, one per run
    master = random.Random(config.seed)
    rngs = [random.Random(master.getrandbits(64)) for _ in range(config.population)]

    def step(
        current: Individual, rng: random.Random, s_curr: int, tau: float
    ) -> tuple[Individual, bool]:
        try:
            proposal = neighbor(stream, current, s_curr, net, rules, rng, config, start_activity)
            candidate = evaluate_individual(stream, proposal, net, rules, cache, config, verdicts)
        except BudgetExceeded:
            # An over-budget candidate costs infinity: it loses without a coin.
            return current, False
        chosen = select_next(current, candidate, tau, rng)
        return chosen, chosen is candidate

    population = [
        initial_individual(stream, net, rules, rng, config, cache, start_activity, verdicts)
        for rng in rngs
    ]
    best = _lex_best(None, population)
    records: list[IterationRecord] = []
    for s_curr in range(1, config.s_max + 1):
        tau = cooling(config.tau_init, s_curr)
        outcomes = [step(current, rng, s_curr, tau) for current, rng in zip(population, rngs)]
        population = [chosen for chosen, _accepted in outcomes]
        best = _lex_best(best, population)
        for slot, (chosen, accepted) in enumerate(outcomes):
            records.append(
                IterationRecord(
                    s_curr=s_curr,
                    tau_curr=tau,
                    slot=slot,
                    fa=chosen.fa,
                    fr=chosen.fr,
                    ft=chosen.ft,
                    accepted=accepted,
                    global_best_fa=best.fa,
                    global_best_fr=best.fr,
                    global_best_ft=best.ft,
                )
            )
    return AnnealerResult(best=best, records=tuple(records))
