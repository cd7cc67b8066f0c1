"""Event-case correlation: greedy streaming decoder plus simulated annealing.

The decoder assigns one event at a time.  A start-activity event always opens a
new case.  Otherwise, open cases whose marking can reach the event's activity
(through silent transitions) compete on the number of satisfied rules; when no
open case can replay the activity, every existing case competes instead and the
winner's marking stays untouched, recording the event as a deviation.  Score
ties are broken uniformly at random.  The decoder keeps its cases in one dict
in opening order, and indexes the open ones, also in opening order, so the
search for a fitting case costs the cases in flight, not every case ever
opened; ``StreamDecoder._advance`` is the one place that keeps that index in
step with the cases' ``closed`` flags.

The annealer keeps a population of candidate correlations.  A neighbor keeps a
prefix of the stream's assignments and re-decodes the suffix; the cut point is
drawn closer to the end of the stream as the level rises.  The prefix is
restored, not replayed: an individual keeps its decoder's case runs, and a case
whose events all precede the cut takes its marking from there.  That marking
is what a replay of the case's events would rebuild, except where the decoder
absorbed an event that a replay would fire; only such a case, and a case that
straddles the cut, is replayed from its events.  A closed run is not copied
but shared with the neighbour: runs are never changed once their individual
is built, and the one decode step that writes to a closed run, a deviation it
absorbs, swaps it for a copy first.  Candidates are compared
lexicographically on the energy triple (alignment cost fa, rule cost fr,
duration variance ft); a worse candidate is still adopted with probability
exp(-delta/tau) under a logarithmic cooling schedule.  The best individual ever
seen is tracked separately and never regresses.

Energies are kept by delta.  Each individual keeps every case's contributions:
the alignment cost of its trace, its (triggered, violated) rule counts, and the
elapsed minutes of its non-first events.  A case is changed exactly when its
set of events differs between two assignments, so the changed cases are the
case ids of the events assigned differently; a neighbour keeps its parent's
assignment before the cut, so only the suffix is compared.  A changed case's
events are read from the decoder's run, not regrouped from the stream.  A
candidate's totals are its parent's, minus the old contributions of the
changed cases, plus their new ones.  Only a decoder's proposal given a parent
that keeps runs is evaluated so; anything else is evaluated from scratch,
which is the same code with every case changed.  The totals are integers:
``fa`` itself, the cases' violated/triggered shares times lcm(1..|rules|) for
``fr``, and the count, sum and sum of squares of the durations per activity
for ``ft``.  So ``fr`` and ``ft`` are exact values rounded to a float once,
whatever the order of the cases.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Iterable, Mapping, NamedTuple, Sequence, ValuesView

from .model import Event, EventLog, InputError, UncorrelatedLog, correlate
from .rules import (
    RuleSet,
    case_verdicts,
    mean_violation,
    score_each,
    violation_scale,
    violation_share,
)
from .wfnet import (
    DEFAULT_MARKING_BUDGET,
    DEFAULT_STATE_BUDGET,
    AlignmentCache,
    BudgetExceeded,
    MarkingNode,
    WorkflowNet,
    align_trace,
    enabled_activities,  # noqa: F401  re-exported: part of this module's namespace
    infer_start_activity,
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
    # Recompute every energy total from scratch, without the run's memos, and compare.
    debug_recompute: bool = False

    def validate(self) -> None:
        """Raise InputError, naming the field, for a count or budget below 1 or a bad tau_init."""
        for name in ("population", "s_max", "marking_budget", "state_budget"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not 0 < self.tau_init < math.inf:  # NaN fails this too
            raise InputError(f"tau_init must be a finite number above 0, got {self.tau_init}")


Durations = tuple[tuple[str, int], ...]  # (activity, elapsed minutes) of non-first events
DurationStats = dict[str, tuple[int, int, int]]  # activity -> (count, sum, sum of squares)


class CaseEnergy(NamedTuple):
    """One case's contributions to the energy triple."""

    indices: tuple[int, ...]  # its events, in stream order
    fa: int  # alignment cost of its trace
    verdicts: tuple[int, int]  # (triggered, violated) rule counts
    durations: Durations


@dataclass(frozen=True)
class Individual:
    """A correlated log with its cached energy triple.

    An individual that :func:`evaluate_individual` built also keeps each case's
    contributions and their exact totals: ``violations``, the cases'
    violated/triggered shares times ``violation_scale(rules)``, and
    ``durations``, the cases' duration statistics summed per activity.  ``fr``
    and ``ft`` are those totals rounded to a float once.  An individual built
    by hand has ``cases`` None.

    An individual evaluated from a decoder's :class:`Proposal` also keeps that
    decoder's ``runs``, which :func:`replay_prefix` restores a neighbour's
    prefix from; any other has ``runs`` None and is replayed.  Its closed runs
    may be shared with its neighbours, so no run changes once it is built.
    """

    log: EventLog
    fa: int
    fr: float
    ft: float
    cases: Mapping[str, CaseEnergy] | None = field(default=None, repr=False, compare=False)
    violations: int = field(default=0, repr=False, compare=False)
    durations: DurationStats = field(default_factory=dict, repr=False, compare=False)
    runs: Mapping[str, CaseRun] | None = field(default=None, repr=False, compare=False)

    @property
    def assignment(self) -> Mapping[int, str]:
        return self.log.assignment

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


@dataclass(eq=False)
class CaseRun:
    """Mutable per-case decoder state.

    ``node`` and ``closed`` are the case's replay state, what
    :func:`replay_prefix` rebuilds from its events, unless ``diverged``: the
    decoder absorbed one of its events where a replay would have moved it.

    A closed run may be shared between an individual and the decoders
    restored from it, so it is written to only through a copy: the decoder
    swaps a closed winner for one before the winner absorbs a deviation.
    Runs compare by identity.
    """

    case_id: str
    node: MarkingNode
    events: list[Event] = field(default_factory=list)
    closed: bool = False
    diverged: bool = False


class Proposal(dict[int, str]):
    """A decoder's assignment, event index -> case id in stream order.

    ``runs`` are the decoder's cases by id.  ``cut`` is the first event the
    decoder decoded itself: a neighbour's events before it keep the case ids
    of the individual it was restored from, so :func:`evaluate_individual`,
    given that individual, compares the two only from ``cut`` on.
    """

    __slots__ = ("runs", "cut")

    def __init__(self, runs: Mapping[str, CaseRun]) -> None:
        super().__init__()
        self.runs = runs
        self.cut = 1


class StreamDecoder:
    """Feeds events one by one and accumulates an index -> case assignment.

    ``cases`` holds the runs by case id in opening order; it is the one record
    of them, and a run swapped for its copy keeps its place.  ``open_runs``
    indexes the open cases: it holds exactly the runs of ``cases`` whose
    ``closed`` is False, in opening order.  ``open_case`` adds to both and
    ``_advance`` keeps the index in step; nothing else changes ``closed``.
    A restore by :func:`replay_prefix` builds runs and the index afresh.

    ``assignment`` is a :class:`Proposal` whose ``runs`` are ``cases``.

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
        self.initial = net.initial
        self.cases: dict[str, CaseRun] = {}
        self.open_runs: dict[str, CaseRun] = {}
        self.assignment = Proposal(self.cases)
        self.opened = self.fitted = self.deviations = self.ties_drawn = self.scanned = 0

    def open_case(self, case_id: str | None = None) -> CaseRun:
        if case_id is None:
            n = len(self.cases) + 1
            while f"c{n}" in self.cases:
                n += 1
            case_id = f"c{n}"
        if case_id in self.cases:
            raise InputError(f"case id {case_id} already open")
        run = CaseRun(case_id=case_id, node=self.initial)
        self.cases[case_id] = run
        self.open_runs[case_id] = run
        return run

    @property
    def order(self) -> ValuesView[CaseRun]:
        """The runs in opening order, a read-only view of ``cases``.

        Kept only because ``perfbench/tracer.py:_cases_scanned`` reads
        ``len(decoder.order)``; ROADMAP item 1 retires it.
        """
        return self.cases.values()

    def _advance(self, run: CaseRun, activity: str) -> bool:
        """Replay ``activity`` in the case's marking if reachable; update closed.

        This is the only place ``closed`` changes, so it keeps ``open_runs``
        in step: a run that closes leaves the index, and a closed run that
        reopens (``replay_prefix`` can advance a case out of a marking that is
        final yet still enables a labelled move) rebuilds it from ``cases``,
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
                self.open_runs = {r.case_id: r for r in self.cases.values() if not r.closed}
        return True

    def _own(self, run: CaseRun) -> CaseRun:
        """Swap a closed ``run``, which may be shared with another decode, for a copy."""
        copy = CaseRun(run.case_id, run.node, run.events.copy(), run.closed, run.diverged)
        self.cases[run.case_id] = copy  # a stored key keeps its place in opening order
        return copy

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
            elif self.cases:
                # No case can replay the activity: every case competes and the
                # winner absorbs the event without moving its marking.
                self.deviations += 1
                chosen = self._pick(list(self.cases.values()), event)
                if chosen.closed:
                    chosen = self._own(chosen)
                    # only a closed winner can enable it; its closure is walked: this cannot raise
                    if event.activity in chosen.node.moves(budget):
                        chosen.diverged = True
            else:
                self.opened += 1
                chosen = self.open_case()
                chosen.diverged = True  # a replay would fire the event if the net enables it
        chosen.events.append(event)
        self.assignment[event.index] = chosen.case_id
        return chosen.case_id

    def run(self, events: Iterable[Event]) -> Proposal:
        for event in events:
            self.step(event)
        return self.assignment


def replay_prefix(
    decoder: StreamDecoder,
    stream: UncorrelatedLog,
    prefix: Individual | Mapping[int, str],
    cut: int,
) -> None:
    """Load events before 1-based ``cut`` into ``decoder`` with the case ids of ``prefix``.

    Markings follow replay: an event whose activity is reachable from its
    case's marking fires through the shortest silent prefix, anything else
    leaves the marking unchanged (same reading as decoder scenario 3).

    An individual that keeps its decoder's runs is restored, not replayed:
    its runs come in opening order, which is the order of first events, and
    are stored into ``decoder.cases`` in that order.  Each case whose events
    all precede ``cut`` takes its run's marking, and only a case that
    straddles ``cut`` or diverged is replayed from its events.  Such a closed
    run is taken as it is, the same object, and an open one is copied, since
    its node moves on; the decoder copies a closed run before it writes to
    it, so the individual's runs never change.  So the restore raises
    BudgetExceeded exactly when the replay would.  An assignment, or an
    individual without runs, is replayed event by event; that replay is the
    reference the restore is checked against.  Given an individual, the
    decoder's proposal records ``cut``: it agrees with that individual before it.
    """
    if isinstance(prefix, Individual):
        runs, assignment = prefix.runs, prefix.assignment
        decoder.assignment.cut = cut
    else:
        runs, assignment = None, prefix
    if runs is None:
        for event in stream.events[: cut - 1]:
            case_id = assignment[event.index]
            run = decoder.cases.get(case_id)
            if run is None:
                run = decoder.open_case(case_id)
            decoder._advance(run, event.activity)
            run.events.append(event)
            decoder.assignment[event.index] = case_id
        return
    cases = decoder.cases
    for kept in runs.values():  # in opening order, which is the order of first events
        if kept.events[0].index >= cut:
            break
        case_id = kept.case_id
        if kept.diverged or kept.events[-1].index >= cut:
            run = decoder.open_case(case_id)
            for event in kept.events:
                if event.index >= cut:
                    break
                decoder._advance(run, event.activity)
                run.events.append(event)
        elif kept.closed:  # shared: a decode copies a closed run before it writes to it
            cases[case_id] = kept
        else:  # an open run's node moves on
            cases[case_id] = CaseRun(case_id, kept.node, kept.events.copy())
    decoder.open_runs = {run.case_id: run for run in cases.values() if not run.closed}
    decoder.assignment.update(islice(assignment.items(), cut - 1))


def _case_durations(events: Sequence[Event]) -> Durations:
    """Each non-first event's activity with the minutes since its predecessor."""
    return tuple([(b.activity, b.timestamp - a.timestamp) for a, b in zip(events, events[1:])])


def _add_durations(into: DurationStats, durations: Durations, sign: int) -> None:
    """Add (sign 1) or remove (sign -1) ``durations`` in ``into``; an emptied activity leaves."""
    for activity, d in durations:
        count, total, squares = into.get(activity, (0, 0, 0))
        if count + sign:
            into[activity] = (count + sign, total + sign * d, squares + sign * d * d)
        else:
            del into[activity]


def _log_durations(log: EventLog) -> DurationStats:
    stats: DurationStats = {}
    for case in log.cases:
        _add_durations(stats, _case_durations(case.events), 1)
    return stats


def _variance(stats: DurationStats) -> float:
    """Σ_act (Σd² − (Σd)²/count) / Σ_act count, exactly, rounded to a float once."""
    if not stats:
        return 0.0
    scale = math.lcm(*(count for count, _t, _q in stats.values()))
    spread = sum((count * q - t * t) * (scale // count) for count, t, q in stats.values())
    return spread / (scale * sum(count for count, _t, _q in stats.values()))


def duration_means(log: EventLog) -> dict[str, float]:
    """Mean elapsed time per activity, over non-first events of each case."""
    return {act: total / count for act, (count, total, _q) in _log_durations(log).items()}


def time_variance(log: EventLog) -> float:
    """Variance of inter-event durations around their per-activity means.

    Durations are taken per case over every non-first event; the denominator is
    the count of such events.  A log of singleton cases scores 0.  The value
    is exact until it is rounded to a float once.
    """
    return _variance(_log_durations(log))


def _changed_runs(
    proposal: Proposal, before: Mapping[int, str], cut: int
) -> dict[str, tuple[Event, ...]]:
    """Each case whose set of events differs between two assignments, with its new events.

    Both assignments list the events in stream order and agree before
    ``cut``, so the changed cases are the new and the old id of each event
    from ``cut`` on that the two assign differently, in that order.  Each
    gets its run's events, and a case that is gone gets none.
    """
    new_ids = list(islice(proposal.values(), cut - 1, None))
    old_ids = list(islice(before.values(), cut - 1, None))
    if new_ids == old_ids:
        return {}
    runs = proposal.runs
    changed = dict.fromkeys(
        case_id for new, old in zip(new_ids, old_ids) if new != old for case_id in (new, old)
    )
    return {
        case_id: tuple(runs[case_id].events) if case_id in runs else () for case_id in changed
    }


def evaluate_individual(
    stream: UncorrelatedLog,
    assignment: Mapping[int, str],
    net: WorkflowNet,
    rules: RuleSet,
    cache: AlignmentCache | None = None,
    config: AnnealerConfig | None = None,
    verdicts: dict[tuple[int, ...], tuple[int, int]] | None = None,
    current: Individual | None = None,
) -> Individual:
    """Build the correlated log and its energy triple; ``verdicts`` is ``case_verdicts``' memo.

    A :class:`Proposal` given a ``current`` that keeps runs is evaluated by
    delta: only the cases whose events differ from ``current``'s are
    evaluated, and the totals are ``current``'s minus their old
    contributions plus their new ones.  Such a proposal must be decoded
    from scratch or restored from ``current`` by :func:`replay_prefix`: the
    two assignments are compared only from the proposal's ``cut`` on, and
    the changed cases' events are read from the proposal's runs.  Every
    other call is evaluated from scratch: a plain mapping is checked by
    :func:`correlate` to partition the stream, and a proposal's cases are
    its runs.  Both ways give exactly the same totals.  The individual keeps
    a proposal's ``runs``.

    With a ``cache``, each changed case's alignment cost is looked up there.
    A call without a cache searches every trace with :func:`align_trace`,
    with no memo and no replay; that is how ``debug_recompute`` checks the
    cache's answers.  Its rebuild takes the assignment as a plain mapping, so
    it checks a proposal's runs against the stream too.
    """
    config = config or AnnealerConfig()
    runs = assignment.runs if isinstance(assignment, Proposal) else None
    cases: dict[str, CaseEnergy] = {}
    fa, violations, durations = 0, 0, {}
    if runs is None:
        log = correlate(stream, assignment)
        changed = {case.case_id: case.events for case in log.cases}
    else:
        log = EventLog(base=stream, assignment=assignment)  # unchecked; cases built on demand
        if current is None or current.runs is None:
            changed = {case_id: tuple(run.events) for case_id, run in runs.items()}
        else:
            cases = dict(current.cases)
            fa, violations, durations = current.fa, current.violations, dict(current.durations)
            changed = _changed_runs(assignment, current.assignment, assignment.cut)
    scale = violation_scale(rules)
    for case_id, events in changed.items():
        old = cases.pop(case_id, None)
        if old is not None:
            fa -= old.fa
            violations -= violation_share(old.verdicts, scale)
            _add_durations(durations, old.durations, -1)
        if events:
            trace = tuple([e.activity for e in events])
            new = cases[case_id] = CaseEnergy(
                tuple([e.index for e in events]),
                cache.get_or_compute(net, trace, config.state_budget)
                if cache is not None
                else align_trace(net, trace, config.state_budget).cost,
                case_verdicts(rules, events, verdicts),
                _case_durations(events),
            )
            fa += new.fa
            violations += violation_share(new.verdicts, scale)
            _add_durations(durations, new.durations, 1)
    individual = Individual(
        log, fa, mean_violation(violations, scale, len(cases)), _variance(durations),
        cases, violations, durations, runs,
    )
    if config.debug_recompute and any(x is not None for x in (cache, verdicts, current)):
        # from scratch, with no memo and every trace searched: every total must match exactly
        # a plain mapping, so the runs a proposal read its cases from are checked too
        fresh = evaluate_individual(stream, dict(assignment), net, rules, None, config)
        got, want = (
            (x.energies, x.violations, x.durations, x.cases) for x in (individual, fresh)
        )
        if got != want:
            raise AssertionError(f"energies by memo and delta {got} != recomputed {want}")
    return individual


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
) -> Proposal:
    """Propose a new assignment by re-decoding a random suffix.

    The cut point is uniform on [floor(n * (s_curr - 1) / s_max) + 1, n], so
    early levels may rebuild everything and late levels only touch the tail.
    The prefix is restored from ``current`` by :func:`replay_prefix`.  With
    ``debug_recompute``, the restored decoder is checked against a replay of
    ``current``'s assignment into a second decoder.
    """
    n = len(stream)
    low = (n * (s_curr - 1)) // config.s_max + 1
    cut = rng.randint(low, n)
    decoder = StreamDecoder(net, rules, rng, start_activity, config.marking_budget)
    if config.debug_recompute:
        _restore_checked(decoder, net, rules, stream, current, cut)
    else:
        replay_prefix(decoder, stream, current, cut)
    for event in stream.events[cut - 1 :]:
        decoder.step(event)
    return decoder.assignment


def _decoder_state(decoder: StreamDecoder) -> tuple:
    """Each run's id, node, closed flag and events in opening order, the ids of
    the open-case index, and the assignment's items in order.

    Nodes compare by identity.  The open-case index must hold the very runs
    of ``cases``, or this raises AssertionError.
    """
    cases = decoder.cases
    if any(cases.get(case_id) is not run for case_id, run in decoder.open_runs.items()):
        raise AssertionError("the decoder's open-case index does not hold its runs")
    return (
        [(run.case_id, run.node, run.closed, run.events) for run in cases.values()],
        list(decoder.open_runs),
        list(decoder.assignment.items()),
    )


def _restore_checked(
    decoder: StreamDecoder,
    net: WorkflowNet,
    rules: RuleSet,
    stream: UncorrelatedLog,
    current: Individual,
    cut: int,
) -> None:
    """:func:`replay_prefix` from ``current``, checked against a replay of its assignment.

    The two decoders must hold the same state, or both run out of marking
    budget; anything else raises AssertionError.
    """
    replayed = StreamDecoder(
        net, rules, decoder.rng, decoder.start_activity, decoder.marking_budget
    )
    outcomes: list[tuple | BudgetExceeded] = []
    for target, prefix in ((decoder, current), (replayed, current.assignment)):
        try:
            replay_prefix(target, stream, prefix, cut)
            outcomes.append(_decoder_state(target))
        except BudgetExceeded as exc:
            outcomes.append(exc)
    restored, want = outcomes
    if isinstance(restored, BudgetExceeded) and isinstance(want, BudgetExceeded):
        raise restored
    if restored != want:  # a state never equals an exception
        raise AssertionError(f"prefix to {cut}: the restored decoder differs from the replayed one")


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
    cache = AlignmentCache(config.marking_budget)
    verdicts: dict[tuple[int, ...], tuple[int, int]] = {}  # case_verdicts' memo, one per run
    master = random.Random(config.seed)
    rngs = [random.Random(master.getrandbits(64)) for _ in range(config.population)]

    def step(
        current: Individual, rng: random.Random, s_curr: int, tau: float
    ) -> tuple[Individual, bool]:
        try:
            proposal = neighbor(stream, current, s_curr, net, rules, rng, config, start_activity)
            candidate = evaluate_individual(
                stream, proposal, net, rules, cache, config, verdicts, current
            )
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
    # candidates skip the partition check; the one log that leaves the run gets it
    best = replace(best, log=correlate(stream, best.assignment))
    return AnnealerResult(best=best, records=tuple(records))
