"""Workflow nets: token game, silent closure, and trace alignment.

A workflow net has one source place (the initial marking puts a single token
there) and one sink place; transitions either carry an activity label or are
silent.  Every arc has weight 1, so a transition's preset and postset are
tuples of places, and firing moves one token along each arc.  Finality is
covering: a marking is final when the sink place holds a token, possibly after
firing silent transitions only.

A marking is a vector of token counts, one per place in ``net.places`` order
(Murata, "Petri nets: Properties, analysis and applications", Proc. IEEE
77(4), 1989).  Each net keeps a marking table with one interned
:class:`MarkingNode` per distinct vector seen.  A node lazily holds its
enabled transitions with their target nodes, the node each activity advances
to through the silent closure, and its finality; the decoder, the simulator,
the reachability check and alignment all walk this one successor relation.
A place -> count mapping enters only through :meth:`WorkflowNet.node`;
:func:`enabled_activities`, :func:`advance` and :func:`is_final` take one and
answer from its node.  The net carries its ``marking_budget``, set once when
it is built: every silent closure and the reachability check of
:func:`validate_net` stop past that many distinct markings.

Alignment follows the usual move costs: synchronous moves and silent model
moves are free, visible model moves and log moves cost 1.  It searches
(marking node, trace position) states in the order of A* whose consistent
heuristic counts the trace symbols that label no transition at all.  Under
that heuristic every move raises ``f = g + h`` by 0 or 1: silent and sync
moves and log moves on unlabelled symbols by 0, visible model moves and log
moves on labelled symbols by 1.  So one search settles a cost layer over its
free moves, in FIFO sub-queues of ascending ``g``, and then seeds the next
layer from the settled states' cost-1 moves in settle order, in the style of
Dial's bucket queue.  This reproduces A*'s ``(f, g, push order)`` without a
heap, and a fitting trace is answered inside the first layer.  The
``state_budget`` counts each settled state once.

The annealer needs only each trace's cost, so :class:`AlignmentCache` memoises
trace -> cost for one net, under the ``state_budget`` it is built with.
Before it searches, it replays the trace as the decoder does, one
``MarkingNode.moves`` lookup per symbol; a replay that ends in a final node is
a firing sequence projecting onto the trace, so the trace costs 0 with no
search (token replay, as in Rozinat & van der Aalst, Information Systems
33(1), 2008).  The replay commits to one silent prefix per symbol, so it may
miss a fitting trace; that trace is then searched.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence

from .model import EventLog, InputError

DEFAULT_MARKING_BUDGET = 10_000
DEFAULT_STATE_BUDGET = 1_000_000


class BudgetExceeded(RuntimeError):
    """A bounded search ran out of budget; callers treat the cost as infinite."""


@dataclass(frozen=True)
class Transition:
    tid: str
    label: str | None  # None means silent

    @property
    def silent(self) -> bool:
        return self.label is None


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    problems: tuple[str, ...]


@dataclass(frozen=True)
class Move:
    """One alignment move: 'sync', 'model' (activity None if silent), or 'log'."""

    kind: str
    activity: str | None
    transition: str | None


@dataclass(frozen=True)
class Alignment:
    cost: int
    moves: tuple[Move, ...]


class MarkingNode:
    """One interned marking of a net; obtain nodes from :meth:`WorkflowNet.node`.

    ``marking`` is the token count of each place, in ``net.places`` order, and
    the table's key for the node.  Each fact is computed on first use and kept.
    The silent closure is walked under the net's ``marking_budget``; a walk
    past it raises BudgetExceeded and keeps nothing, so every call raises alike.
    """

    __slots__ = ("net", "marking", "_successors", "_moves", "_final")

    def __init__(self, net: WorkflowNet, marking: tuple[int, ...]) -> None:
        self.net = net
        self.marking = marking
        self._successors: tuple[tuple[Transition, MarkingNode], ...] | None = None
        self._moves: dict[str, MarkingNode] | None = None  # None until the closure is walked
        self._final: bool | None = None  # None: the net has no single sink place

    def holds(self, place: str) -> bool:
        """True when ``place`` carries a token."""
        return self.marking[self.net._index[place]] > 0

    def successors(self) -> tuple[tuple[Transition, MarkingNode], ...]:
        """Directly enabled transitions with their target nodes, in definition order.

        A transition is enabled when each place of its preset holds a token;
        firing adds its token change per place to the counts.
        """
        if self._successors is None:
            net, counts = self.net, self.marking
            self._successors = tuple(
                (t, net._intern(tuple(map(add, counts, change))))
                for t, preset, change in net._firings
                if all(counts[i] for i in preset)
            )
        return self._successors

    def reachable(self, silent_only: bool) -> Iterator[MarkingNode]:
        """Nodes reachable from this one, itself first, in BFS order.

        Transitions are tried in definition order, so the first node satisfying
        a predicate is the deterministic choice.  Raises BudgetExceeded past
        the net's ``marking_budget`` distinct markings.
        """
        budget = self.net.marking_budget
        seen = {self}
        queue = [self]
        for node in queue:  # the list grows behind the loop: a FIFO queue
            yield node
            for t, nxt in node.successors():
                if (silent_only and not t.silent) or nxt in seen:
                    continue
                if len(seen) >= budget:
                    search = "silent closure" if silent_only else "reachability"
                    raise BudgetExceeded(f"{search} exceeded {budget} markings")
                seen.add(nxt)
                queue.append(nxt)

    def _walk_closure(self) -> dict[str, MarkingNode]:
        """Walk the silent closure once, keeping its moves and finality."""
        closure = list(self.reachable(silent_only=True))
        moves: dict[str, MarkingNode] = {}
        for node in closure:
            for t, nxt in node.successors():
                if t.label is not None and t.label not in moves:
                    moves[t.label] = nxt
        sinks = self.net._sinks
        self._final = any(node.holds(sinks[0]) for node in closure) if len(sinks) == 1 else None
        self._moves = moves  # stored last: it opens the fast path
        return moves

    def moves(self) -> dict[str, MarkingNode]:
        """Activity -> node after firing it behind the shortest silent prefix.

        The keys are the activities enabled through the silent closure.  Ties
        go to BFS order over silent firings, then to definition order among
        transitions sharing the label.
        """
        moves = self._moves
        return self._walk_closure() if moves is None else moves

    def final(self) -> bool:
        """True when the sink place can be covered by firing silent transitions only."""
        if self._moves is None:
            self._walk_closure()
        if self._final is None:
            raise InputError(f"net has {len(self.net._sinks)} sink places, expected 1")
        return self._final


class WorkflowNet:
    """Immutable net structure plus its lazily grown marking table.

    Arcs connect places to transitions or transitions to places, weight 1; a
    repeated arc counts once.  ``preset`` and ``postset`` map each transition
    id to its places in arc order.
    ``marking_budget`` bounds every walk over the net's markings: each silent
    closure and the reachability check stop past that many distinct markings.
    Construction validates referential integrity and the budget only; semantic
    soundness checks live in :func:`validate_net` so that callers can inspect
    problems instead of catching exceptions.
    """

    def __init__(
        self,
        places: Iterable[str],
        transitions: Iterable[Transition],
        arcs: Iterable[tuple[str, str]],
        marking_budget: int = DEFAULT_MARKING_BUDGET,
    ) -> None:
        if marking_budget < 1:
            raise InputError(f"marking_budget must be at least 1, got {marking_budget}")
        self.marking_budget = marking_budget
        self.places = tuple(dict.fromkeys(places))
        self.transitions = tuple(transitions)
        self.arcs = tuple(dict.fromkeys(arcs))
        place_set = set(self.places)
        tids = [t.tid for t in self.transitions]
        if len(set(tids)) != len(tids):
            raise InputError("duplicate transition ids")
        tid_set = set(tids)
        if place_set & tid_set:
            raise InputError("place and transition ids overlap")
        self.preset: dict[str, tuple[str, ...]] = {t: () for t in tids}
        self.postset: dict[str, tuple[str, ...]] = {t: () for t in tids}
        for src, dst in self.arcs:
            if src in place_set and dst in tid_set:
                self.preset[dst] += (src,)
            elif src in tid_set and dst in place_set:
                self.postset[src] += (dst,)
            else:
                raise InputError(f"arc ({src}, {dst}) does not connect a place and a transition")
        fed = {p for places in self.postset.values() for p in places}
        drained = {p for places in self.preset.values() for p in places}
        self._sources = tuple(p for p in self.places if p not in fed)
        self._sinks = tuple(p for p in self.places if p not in drained)
        self.labels = frozenset(t.label for t in self.transitions if t.label is not None)
        self._index = {p: i for i, p in enumerate(self.places)}
        # per transition: its preset's place indices, and its token change per place
        self._firings = tuple(
            (
                t,
                tuple(self._index[p] for p in self.preset[t.tid]),
                tuple((p in self.postset[t.tid]) - (p in self.preset[t.tid]) for p in self.places),
            )
            for t in self.transitions
        )
        self._nodes: dict[tuple[int, ...], MarkingNode] = {}

    @property
    def input_place(self) -> str:
        if len(self._sources) != 1:
            raise InputError(f"net has {len(self._sources)} source places, expected 1")
        return self._sources[0]

    @property
    def output_place(self) -> str:
        if len(self._sinks) != 1:
            raise InputError(f"net has {len(self._sinks)} sink places, expected 1")
        return self._sinks[0]

    @property
    def initial(self) -> MarkingNode:
        """The node of the initial marking: one token on the source place."""
        return self.node({self.input_place: 1})

    def node(self, marking: Mapping[str, int]) -> MarkingNode:
        """The table's node for a place -> token count mapping; zero counts are ignored.

        Raises InputError for a place the net lacks, or a count that is not a
        non-negative int.
        """
        counts = [0] * len(self.places)
        for place, count in marking.items():
            i = self._index.get(place)
            if i is None:
                raise InputError(f"marking names {place!r}, which is not a place of the net")
            if isinstance(count, bool) or not isinstance(count, int) or count < 0:
                raise InputError(
                    f"marking gives place {place!r} {count!r} tokens, expected a non-negative int"
                )
            counts[i] = count
        return self._intern(tuple(counts))

    def _intern(self, counts: tuple[int, ...]) -> MarkingNode:
        """The table's node for a count vector, added on first sight."""
        node = self._nodes.get(counts)
        if node is None:
            # setdefault is one step, so threads racing on a new marking share one node
            node = self._nodes.setdefault(counts, MarkingNode(self, counts))
        return node

    def transition(self, tid: str) -> Transition:
        for t in self.transitions:
            if t.tid == tid:
                return t
        raise KeyError(tid)


def enabled_activities(net: WorkflowNet, marking: Mapping[str, int]) -> frozenset[str]:
    """Activity labels fireable from ``marking`` after any silent prefix."""
    return frozenset(net.node(marking).moves())


def is_final(net: WorkflowNet, marking: Mapping[str, int]) -> bool:
    """True when the sink place can be covered by firing silent transitions only."""
    return net.node(marking).final()


def advance(net: WorkflowNet, marking: Mapping[str, int], activity: str) -> MarkingNode | None:
    """The node after firing ``activity`` behind the shortest silent prefix; None if unreachable.

    Deterministic: BFS order over silent firings, definition order among
    transitions sharing the label (see :meth:`MarkingNode.moves`).
    """
    return net.node(marking).moves().get(activity)


def infer_start_activity(net: WorkflowNet) -> str:
    """The unique activity enabled at the initial marking."""
    # through the mapping adapter, the boundary perfbench's tracer counts
    acts = enabled_activities(net, {net.input_place: 1})
    if len(acts) != 1:
        raise InputError(f"expected exactly one start activity, found {sorted(acts)}")
    return next(iter(acts))


def validate_net(net: WorkflowNet, start_activity: str | None = None) -> ValidationReport:
    """Check workflow-net shape; collects problems instead of raising.

    Checks: unique source and sink place, every node on a path from source to
    sink, a final marking reachable from the initial one within the net's
    marking budget, and (when given)
    exactly one transition labeled ``start_activity`` that lies on no cycle.
    """
    problems: list[str] = []
    if len(net._sources) != 1:
        problems.append(f"expected one source place, found {list(net._sources)}")
    if len(net._sinks) != 1:
        problems.append(f"expected one sink place, found {list(net._sinks)}")

    succ: dict[str, set[str]] = {}
    pred: dict[str, set[str]] = {}
    for src, dst in net.arcs:
        succ.setdefault(src, set()).add(dst)
        pred.setdefault(dst, set()).add(src)

    def reach(starts: Iterable[str], edges: dict[str, set[str]]) -> set[str]:
        seen = set(starts)
        stack = list(seen)
        while stack:
            node = stack.pop()
            for nxt in edges.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    nodes = set(net.places) | {t.tid for t in net.transitions}
    if len(net._sources) == 1 and len(net._sinks) == 1:
        fwd = reach(net._sources, succ)
        bwd = reach(net._sinks, pred)
        stranded = sorted(nodes - (fwd & bwd))
        if stranded:
            problems.append(f"nodes not on a source-to-sink path: {stranded}")
        try:
            if not _final_reachable(net):
                problems.append("no final marking reachable from the initial marking")
        except BudgetExceeded:
            problems.append("reachability check exceeded the marking budget")

    if start_activity is not None:
        starters = [t for t in net.transitions if t.label == start_activity]
        if len(starters) != 1:
            problems.append(
                f"expected one transition labeled {start_activity!r}, found {len(starters)}"
            )
        else:
            tid = starters[0].tid
            if tid in reach(succ.get(tid, ()), succ):
                problems.append(f"start transition {tid} lies on a cycle")
    return ValidationReport(ok=not problems, problems=tuple(problems))


def _final_reachable(net: WorkflowNet) -> bool:
    """Token-game BFS from the initial marking until a final marking appears."""
    out_place = net.output_place
    return any(node.holds(out_place) for node in net.initial.reachable(silent_only=False))


# A search state, and its link to (previous state, move kind, transition).
_State = tuple[MarkingNode, int]
_Parents = dict[_State, tuple[_State, str, Transition | None] | None]


def align_trace(
    net: WorkflowNet,
    trace: Sequence[str],
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> Alignment:
    """Minimum-cost alignment of ``trace`` against the net's runs.

    Cost 0 if and only if the trace is the visible projection of a run.  The
    search settles (marking node, trace position) states one cost layer
    ``f = g + h`` at a time, where ``h[pos]`` counts the symbols at or after
    ``pos`` that no transition labels.  Every move raises ``f`` by 0 or 1, so
    a layer is settled over its free moves alone, as FIFO sub-queues in
    ascending ``g``; its settled states, walked in settle order, then seed the
    next layer with their cost-1 moves.  That is A*'s ``(f, g, push order)``
    order with a consistent heuristic, and a state's first parent link is
    final.  Raises BudgetExceeded once ``state_budget`` states are settled and
    another is needed; each state is settled once, in an order that does not
    depend on the budget.  Callers treat that as an infinite cost.
    """
    trace = tuple(trace)
    n = len(trace)
    labels = net.labels
    # h[pos], the symbols at or after pos that no transition can ever match, is
    # the index of a state's sub-queue; only h[0] is needed, and it is 0 for a
    # trace of labelled symbols.
    h0 = 0 if labels.issuperset(trace) else sum(symbol not in labels for symbol in trace)

    out_place = net.output_place
    start = (net.initial, 0)
    parent: _Parents = {start: None}
    # queues[k]: the current layer's states with h[pos] == k, so with g == f - k.
    queues: list[list[_State]] = [[] for _ in range(h0 + 1)]
    queues[h0].append(start)
    f = h0
    settled = 0
    while True:
        for k in range(h0, -1, -1):  # descending h is ascending g
            queue = queues[k]
            for state in queue:  # the list grows behind the loop: a FIFO queue
                settled += 1
                if settled > state_budget:
                    raise BudgetExceeded(f"alignment exceeded {state_budget} states")
                node, pos = state
                if pos == n and node.holds(out_place):
                    return Alignment(cost=f, moves=_walk_back(parent, state, trace))
                for t, nxt in node.successors():
                    if t.label is None:
                        nstate, kind = (nxt, pos), "model"
                    elif pos < n and t.label == trace[pos]:
                        nstate, kind = (nxt, pos + 1), "sync"
                    else:
                        continue
                    if nstate not in parent:
                        parent[nstate] = (state, kind, t)
                        queue.append(nstate)
                if k and trace[pos] not in labels:  # k > 0 means pos < n
                    nstate = (node, pos + 1)
                    if nstate not in parent:
                        parent[nstate] = (state, "log", None)
                        queues[k - 1].append(nstate)

        # The layer's states, in settle order, seed the next layer with their
        # cost-1 moves; these keep h, so a seed joins its source's sub-queue.
        seeds: list[list[_State]] = [[] for _ in range(h0 + 1)]
        for k in range(h0, -1, -1):
            seed = seeds[k]
            for state in queues[k]:
                node, pos = state
                for t, nxt in node.successors():
                    if t.label is not None and (nxt, pos) not in parent:
                        parent[nxt, pos] = (state, "model", t)
                        seed.append((nxt, pos))
                if pos < n and trace[pos] in labels and (node, pos + 1) not in parent:
                    parent[node, pos + 1] = (state, "log", None)
                    seed.append((node, pos + 1))
        if not any(seeds):
            raise BudgetExceeded(
                "alignment search space exhausted without reaching a final marking"
            )
        queues = seeds
        f += 1


def _walk_back(parent: _Parents, state: _State, trace: tuple[str, ...]) -> tuple[Move, ...]:
    """The moves from the start state to ``state``; a log move has no transition."""
    moves: list[Move] = []
    while (link := parent[state]) is not None:
        state, kind, t = link
        activity, tid = (trace[state[1]], None) if t is None else (t.label, t.tid)
        moves.append(Move(kind, activity, tid))
    return tuple(reversed(moves))


def _replays(net: WorkflowNet, trace: tuple[str, ...]) -> bool:
    """True when the decoder's own replay fires ``trace`` to a final marking.

    Each symbol takes the node that ``MarkingNode.moves`` gives for it, behind
    a silent prefix and a transition with that label, so the lookups are a
    firing sequence whose visible labels are ``trace``.  A True answer proves
    cost 0.  A False one proves nothing, because the replay commits to one
    silent prefix per symbol; a closure over the net's marking budget also
    answers False.
    """
    node = net.initial
    try:
        for symbol in trace:
            node = node.moves().get(symbol)
            if node is None:
                return False
        return node.final()
    except BudgetExceeded:
        return False


class AlignmentCache:
    """Trace -> alignment cost memo for one net, which also remembers budget failures.

    A trace the decoder's deterministic replay fires to a final marking costs
    0 with no search; any other trace, and any whose replay needs a silent
    closure over the net's marking budget, is searched by :func:`align_trace`
    under the cache's ``state_budget``.  A trace whose search ran out of
    budget is not searched again: the call raises a fresh BudgetExceeded
    carrying the failure's message.
    """

    def __init__(self, net: WorkflowNet, state_budget: int = DEFAULT_STATE_BUDGET) -> None:
        self.net = net
        self.state_budget = state_budget
        self._costs: dict[tuple[str, ...], int] = {}
        self._failed: dict[tuple[str, ...], str] = {}  # trace -> its failure's message

    def __len__(self) -> int:
        return len(self._costs)

    def get_or_compute(self, trace: Sequence[str]) -> int:
        key = tuple(trace)
        cost = self._costs.get(key)
        if cost is not None:
            return cost
        failed = self._failed.get(key)
        if failed is not None:
            raise BudgetExceeded(failed)  # the search order is fixed, so it would fail again
        if _replays(self.net, key):
            cost = 0
        else:
            try:
                cost = align_trace(self.net, key, self.state_budget).cost
            except BudgetExceeded as exc:
                self._failed[key] = str(exc)
                raise
        self._costs[key] = cost
        return cost


def log_alignment_cost(
    net: WorkflowNet, log: EventLog, cache: AlignmentCache | None = None
) -> int:
    """Sum of per-case alignment costs; BudgetExceeded propagates.

    Without a ``cache``, one is built for ``net`` under the default state budget.
    """
    if cache is None:
        cache = AlignmentCache(net)
    return sum(cache.get_or_compute(c.trace) for c in log.cases)
