"""Independent reference implementations for cross-checking.

Everything here recomputes results from first principles: a distance DP that
does not go through an LCS, exhaustive enumeration of run projections instead
of a guided search, and permutation scans or a walk over every transport
plan instead of the Hungarian method.
Only net STRUCTURE (the preset/postset place tuples) is shared with the
package; no search or scoring code is reused.  The rule references keep one
definition per question: ``e_sat_reference`` (an event keeps a rule when
appended to a case), ``e_vio_reference`` (the event at a position violates
it), ``trigger_reference`` and ``vio_reference`` (a case triggers or violates
it) and ``rule_cost_reference``.  The first checks the package's ``score``,
the next three its ``case_verdicts``.  They share only the rule dataclasses,
the scalar comparison and the attribute lookup; ``rule_cost`` and the
duration variance are summed in exact fractions.  The reference decoder
replays cases in the dict token game and scores candidates with
``e_sat_reference``.  The reference simulator plays
the timed token game on per-place lists of ready times with its own enabling
scan, sharing only the duration default and the step cap.  The exception is
``astar_align_reference``: the heap A* that the layered alignment search
replaced, kept to pin its settle order on traces of labelled symbols and
its cost on every trace.  It walks the package's
marking table, and it alone keeps parent links: its ``_walk_back`` turns them
into the ``Move`` sequence that the package's cost-only search never builds.
``build_uncorrelated_log_reference`` is the stream builder as it was before
it sorted without a key, kept to pin its events and its errors.
``changed_cases_reference`` regroups the cases a proposal changed from the
two assignments, where the annealer reads them from the
decoder's runs.  ``read_log_csv_reference`` is the log reader as it was
before it read rows by column index: a ``csv.DictReader`` dict per row and
``strptime`` for every timestamp.  It shares the attribute parse and the
stream constructor with the package, and counts rows where the package
counts lines.  ``case_measures_reference`` scores six of the eight measures
from their definitions, n-grams as sets of index windows.  ``random_timestamp_cell`` draws timestamp cells at and around
the default format's fixed width, which the reader must read as
``parse_timestamp`` does.
"""

from __future__ import annotations

import csv
import dataclasses
import heapq
import io
import itertools
import random
from collections import Counter
from datetime import datetime
from fractions import Fraction
from typing import Sequence

from caseweave import (
    BudgetExceeded, Case, Event, EventLog, InputError, RuleSet,
    SimulationConfig, Transition, UncorrelatedLog, WorkflowNet, build_uncorrelated_log, correlate,
)
from caseweave.logio import (
    ACTIVITY_COLUMN, CASE_COLUMN, DEFAULT_TIMESTAMP_FORMAT, TIMESTAMP_COLUMN, _parse_attribute,
)
from caseweave.rules import (
    And,
    Comparison,
    EqRule,
    EventTimeRule,
    IfThenRule,
    Or,
    _attr_value,
    _compare,
)
from caseweave.simulate import DEFAULT_DURATION, MAX_STEPS_PER_CASE
from caseweave.wfnet import MarkingNode, _State


class OracleBudget(Exception):
    """The exhaustive method blew its cap; the caller should skip the instance."""


def edit_distance_reference(a: Sequence[str], b: Sequence[str]) -> int:
    """Insert/delete distance via the classic distance DP (no LCS detour)."""
    m, n = len(a), len(b)
    dp = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        dp[i][0] = i
    for j in range(n + 1):
        dp[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            best = min(dp[i - 1][j] + 1, dp[i][j - 1] + 1)
            if a[i - 1] == b[j - 1]:
                best = min(best, dp[i - 1][j - 1])
            dp[i][j] = best
    return dp[m][n]


def brute_force_matching_cost(
    xs: list[tuple[str, ...]], ys: list[tuple[str, ...]]
) -> int:
    """Min-cost perfect matching by trying every permutation (pads with empties)."""
    size = max(len(xs), len(ys))
    a = xs + [()] * (size - len(xs))
    b = ys + [()] * (size - len(ys))
    best = None
    for perm in itertools.permutations(range(size)):
        cost = sum(edit_distance_reference(a[i], b[perm[i]]) for i in range(size))
        if best is None or cost < best:
            best = cost
    return best or 0


def _splits(total: int, caps: tuple[int, ...]):
    """Every tuple of non-negative ints summing to ``total``, each within its cap."""
    if len(caps) == 1:
        if total <= caps[0]:
            yield (total,)
        return
    rest = sum(caps[1:])
    for first in range(max(0, total - rest), min(caps[0], total) + 1):
        for tail in _splits(total - first, caps[1:]):
            yield (first,) + tail


def brute_force_transport_cost(
    xs: list[tuple[str, ...]], ys: list[tuple[str, ...]], cap: int = 30_000
) -> int:
    """Min-cost transport between the two padded variant multisets, over every plan.

    Both lists are padded with empty traces to one length and grouped into
    variant counts.  A plan sends ``plan[i][j]`` copies of row variant i to
    column variant j, with the counts as its row and column sums, and costs
    the sum of ``plan[i][j] * d(i, j)``.  Plans are walked row by row; plans
    whose first rows leave the same column sums share the best completion.
    Raises OracleBudget once ``cap`` row splits have been tried.
    """
    size = max(len(xs), len(ys))
    rows = list(Counter(xs + [()] * (size - len(xs))).items())
    cols = list(Counter(ys + [()] * (size - len(ys))).items())
    if len(cols) > len(rows):  # the distance is symmetric; fewer column sums
        rows, cols = cols, rows
    dist = [[edit_distance_reference(r, c) for c, _ in cols] for r, _ in rows]
    memo: dict[tuple[int, tuple[int, ...]], int] = {}
    tried = 0

    def best(i: int, remaining: tuple[int, ...]) -> int:
        nonlocal tried
        if i == len(rows):
            return 0
        key = (i, remaining)
        if key not in memo:
            costs = []
            for split in _splits(rows[i][1], remaining):
                tried += 1
                if tried > cap:
                    raise OracleBudget("transport walk blew the cap")
                left = tuple(r - s for r, s in zip(remaining, split))
                here = sum(s * d for s, d in zip(split, dist[i]))
                costs.append(here + best(i + 1, left))
            memo[key] = min(costs)
        return memo[key]

    return best(0, tuple(count for _, count in cols))


def case_measures_reference(original: EventLog, generated: EventLog) -> dict[str, float]:
    """``l2l_first``, the n-gram, case and smape measures, each by its definition.

    Windows of event indices are compared as sets of index tuples; elapsed and
    cycle times are read off each case's timestamps.  Every sum runs over the
    original cases in opening order, and over a case's events in stream
    order, as the package sums them.
    """
    def indices(case: Case) -> tuple[int, ...]:
        return tuple(e.index for e in case.events)

    def windows(case: Case, width: int) -> list[tuple[int, ...]]:
        run = indices(case)
        return [run[k : k + width] for k in range(len(run) - width + 1)]

    def elapsed(log: EventLog) -> dict[int, int]:
        return {
            e.index: e.timestamp - (case.events[k - 1].timestamp if k else e.timestamp)
            for case in log.cases
            for k, e in enumerate(case.events)
        }

    def smape(left: int, right: int) -> float:
        return abs(left - right) / (left + right) if left + right > 0 else 0.0

    cases = len(original.cases)
    non_start = len(original.base.events) - cases
    by_first = {case.events[0].index: case for case in generated.cases}
    pairs = [
        (case, by_first[case.events[0].index])
        for case in original.cases
        if case.events[0].index in by_first
    ]
    out = {
        "l2l_first": sum(
            len(set(indices(case)[1:]) & set(indices(partner)[1:])) for case, partner in pairs
        ) / non_start if non_start else 0.0,
        "l2l_case": sum(indices(case) in {indices(c) for c in generated.cases}
                        for case in original.cases) / cases,
    }
    for width in (2, 3):
        present = {window for case in generated.cases for window in windows(case, width)}
        total = 0.0
        for case in original.cases:
            mine = windows(case, width)
            if mine:
                total += sum(window in present for window in mine) / len(mine)
        out[f"l2l_{width}gram"] = total / cases
    theirs = elapsed(generated)
    total = 0.0
    for index, left in elapsed(original).items():
        if left + theirs[index] > 0:
            total += smape(left, theirs[index])
    out["smape_et"] = total / non_start if non_start else 0.0
    total = 0.0
    for case, partner in pairs:
        left = case.events[-1].timestamp - case.events[0].timestamp
        right = partner.events[-1].timestamp - partner.events[0].timestamp
        if left + right > 0:
            total += smape(left, right)
    out["smape_ct"] = total / cases
    return out


# --- token game primitives, reimplemented locally ---------------------------


def _enabled(net: WorkflowNet, marking: dict[str, int], tid: str) -> bool:
    return all(marking.get(p, 0) >= 1 for p in net.preset[tid])


def _fire(net: WorkflowNet, marking: dict[str, int], tid: str) -> dict[str, int]:
    out = dict(marking)
    for p in net.preset[tid]:
        out[p] -= 1
        if not out[p]:
            del out[p]
    for p in net.postset[tid]:
        out[p] = out.get(p, 0) + 1
    return out


def _freeze(marking: dict[str, int]) -> tuple[tuple[str, int], ...]:
    return tuple(sorted(marking.items()))


def _shortest_completion(net: WorkflowNet, cap: int) -> int:
    """Fewest visible firings from the initial to a final marking (Dijkstra)."""
    start = {net.input_place: 1}
    out_place = net.output_place
    counter = 0
    heap = [(0, counter, start)]
    seen: dict[tuple, int] = {_freeze(start): 0}
    while heap:
        cost, _c, marking = heapq.heappop(heap)
        if marking.get(out_place, 0) >= 1:
            return cost
        if len(seen) > cap:
            raise OracleBudget("completion search blew the cap")
        for t in net.transitions:
            if not _enabled(net, marking, t.tid):
                continue
            nxt = _fire(net, marking, t.tid)
            ncost = cost + (0 if t.label is None else 1)
            key = _freeze(nxt)
            if key not in seen or seen[key] > ncost:
                seen[key] = ncost
                counter += 1
                heapq.heappush(heap, (ncost, counter, nxt))
    raise OracleBudget("net cannot complete")


def run_projections(net: WorkflowNet, max_len: int, cap: int = 250_000) -> set[tuple[str, ...]]:
    """Every visible projection (up to ``max_len``) of every completing run."""
    start = {net.input_place: 1}
    out_place = net.output_place
    initial = (_freeze(start), ())
    seen = {initial}
    queue: list[tuple[dict[str, int], tuple[str, ...]]] = [(start, ())]
    projections: set[tuple[str, ...]] = set()
    while queue:
        marking, word = queue.pop()
        if marking.get(out_place, 0) >= 1:
            projections.add(word)
        for t in net.transitions:
            if not _enabled(net, marking, t.tid):
                continue
            next_word = word if t.label is None else word + (t.label,)
            if len(next_word) > max_len:
                continue
            nxt = _fire(net, marking, t.tid)
            key = (_freeze(nxt), next_word)
            if key in seen:
                continue
            if len(seen) > cap:
                raise OracleBudget("projection enumeration blew the cap")
            seen.add(key)
            queue.append((nxt, next_word))
    return projections


def brute_force_alignment_cost(
    net: WorkflowNet, trace: Sequence[str], cap: int = 250_000
) -> int:
    """Min over completing run projections of the insert/delete distance.

    Projections longer than |trace| plus the all-delete-and-replay bound can
    never win, which keeps the enumeration finite even for looping nets.
    """
    trace = tuple(trace)
    upper = len(trace) + _shortest_completion(net, cap)
    candidates = run_projections(net, len(trace) + upper, cap)
    if not candidates:
        raise OracleBudget("no completing run within the length bound")
    return min(edit_distance_reference(trace, word) for word in candidates)


@dataclasses.dataclass(frozen=True)
class Move:
    """One alignment move: 'sync', 'model' (activity None if silent), or 'log'."""

    kind: str
    activity: str | None
    transition: str | None


@dataclasses.dataclass(frozen=True)
class ReferenceAlignment:
    cost: int
    moves: tuple[Move, ...]


# A search state's link to (previous state, move kind, transition).
_Parents = dict[_State, tuple[_State, str, Transition | None] | None]


def _walk_back(parent: _Parents, state: _State, trace: tuple[str, ...]) -> tuple[Move, ...]:
    """The moves from the start state to ``state``; a log move has no transition."""
    moves: list[Move] = []
    while (link := parent[state]) is not None:
        state, kind, t = link
        activity, tid = (trace[state[1]], None) if t is None else (t.label, t.tid)
        moves.append(Move(kind, activity, tid))
    return tuple(reversed(moves))


def astar_align_reference(
    net: WorkflowNet, trace: tuple[str, ...], state_budget: int
) -> ReferenceAlignment:
    """A* over (marking node, trace position) states, popped by ``(f, g, counter)``.

    The heap search ``align_trace`` replaced.  On a trace of labelled symbols
    it pins the package's settle order: the same cost and budget failure point
    are expected.  On every trace it pins the cost; the package drops the
    symbols no transition labels before it searches, so only there may it
    settle fewer states.  The moves let a test replay an optimal alignment on
    the reference token game.

    The heuristic is consistent, so a state's cost is final once settled and a
    heap entry above the state's best cost is stale.
    """
    n = len(trace)
    # h[i]: symbols at or after position i that no transition can ever match.
    h = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        h[i] = h[i + 1] + (0 if trace[i] in net.labels else 1)

    out_place = net.output_place
    start = (net.initial, 0)
    counter = settled = 0
    heap: list[tuple[int, int, int, _State]] = [(h[0], 0, counter, start)]
    best_g: dict[_State, int] = {start: 0}
    parent: _Parents = {start: None}

    while heap:
        _f, g, _c, state = heapq.heappop(heap)
        if g > best_g[state]:
            continue
        settled += 1
        if settled > state_budget:
            raise BudgetExceeded(f"alignment exceeded {state_budget} states")
        node, pos = state
        if pos == n and node.holds(out_place):
            return ReferenceAlignment(cost=g, moves=_walk_back(parent, state, trace))
        edges: list[tuple[MarkingNode, int, int, str, Transition | None]] = []
        for t, nxt in node.successors():
            if t.label is None:
                edges.append((nxt, pos, g, "model", t))
            else:
                if pos < n and t.label == trace[pos]:
                    edges.append((nxt, pos + 1, g, "sync", t))
                edges.append((nxt, pos, g + 1, "model", t))
        if pos < n:
            edges.append((node, pos + 1, g + 1, "log", None))
        for nxt, npos, ng, kind, t in edges:
            nstate = (nxt, npos)
            old = best_g.get(nstate)
            if old is None or ng < old:
                best_g[nstate] = ng
                parent[nstate] = (state, kind, t)
                counter += 1
                heapq.heappush(heap, (ng + h[npos], ng, counter, nstate))
    raise BudgetExceeded("alignment search space exhausted without reaching a final marking")


def reachable_markings(net: WorkflowNet, cap: int = 2_000) -> list[dict[str, int]]:
    """Every marking the token game reaches from the initial one."""
    start = {net.input_place: 1}
    seen = {_freeze(start)}
    queue = [start]
    found: list[dict[str, int]] = []
    while queue:
        marking = queue.pop()
        found.append(marking)
        for t in net.transitions:
            if not _enabled(net, marking, t.tid):
                continue
            nxt = _fire(net, marking, t.tid)
            key = _freeze(nxt)
            if key in seen:
                continue
            if len(seen) > cap:
                raise OracleBudget("reachable markings blew the cap")
            seen.add(key)
            queue.append(nxt)
    return found


def silent_closure_reference(
    net: WorkflowNet, marking: dict[str, int]
) -> tuple[frozenset[str], bool, dict[str, dict[str, int]]]:
    """(enabled activities, finality, advance target per activity) of a marking.

    A breadth-first search over silent firings, silent transitions tried in
    definition order, lists the markings reachable without a visible step.
    An activity is enabled when some listed marking enables a transition with
    its label; its advance target fires the first such transition (definition
    order) in the first such marking.  Finality is a sink token in any of them.
    """
    closure = [marking]
    seen = {_freeze(marking)}
    for current in closure:  # the list grows behind the loop: a FIFO queue
        for t in net.transitions:
            if t.label is None and _enabled(net, current, t.tid):
                nxt = _fire(net, current, t.tid)
                if _freeze(nxt) not in seen:
                    seen.add(_freeze(nxt))
                    closure.append(nxt)
    targets: dict[str, dict[str, int]] = {}
    for current in closure:
        for t in net.transitions:
            if t.label is not None and t.label not in targets and _enabled(net, current, t.tid):
                targets[t.label] = _fire(net, current, t.tid)
    final = any(m.get(net.output_place, 0) >= 1 for m in closure)
    return frozenset(targets), final, targets


def build_uncorrelated_log_reference(records) -> UncorrelatedLog:
    """Stably sort (activity, timestamp, attributes) records by timestamp and index them 1..n.

    A record that does not unpack, a missing or non-string activity, and a
    timestamp that is not an int (or is a bool) raise InputError naming the
    first such record; no record at all raises "empty log".
    """
    staged = []
    for pos, record in enumerate(records, start=1):
        try:
            activity, timestamp, attributes = record
        except (TypeError, ValueError):
            raise InputError(f"record {pos}: expected (activity, timestamp, attributes)")
        if not activity or not isinstance(activity, str):
            raise InputError(f"record {pos}: missing activity")
        if isinstance(timestamp, bool) or not isinstance(timestamp, int):
            raise InputError(f"record {pos}: timestamp must be an integer minute")
        staged.append((timestamp, pos, activity, dict(attributes or {})))
    if not staged:
        raise InputError("empty log")
    staged.sort(key=lambda item: (item[0], item[1]))
    return UncorrelatedLog(tuple(
        Event(index=i, activity=act, timestamp=ts, attributes=attrs)
        for i, (ts, _pos, act, attrs) in enumerate(staged, start=1)
    ))


def _timestamp_reference(text: str, fmt: str) -> int:
    """``strptime`` alone: minutes since 1970, seconds of 30 or more rounding up."""
    try:
        moment = datetime.strptime(text.strip(), fmt)
    except ValueError as exc:
        raise InputError(f"bad timestamp {text!r}: {exc}") from exc
    delta = moment - datetime(1970, 1, 1)
    seconds = delta.days * 86400 + delta.seconds
    minutes, remainder = divmod(seconds, 60)
    return minutes + (1 if remainder >= 30 else 0)


def read_log_csv_reference(path: str, timestamp_format: str = DEFAULT_TIMESTAMP_FORMAT):
    """Read a log through one ``csv.DictReader`` dict per row.

    A bad row is named by its count of non-blank rows, the header being 1.
    The stream's ``attribute_names`` are the header's attribute columns.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        for required in (ACTIVITY_COLUMN, TIMESTAMP_COLUMN):
            if required not in header:
                raise InputError(f"{path}: missing column {required!r}")
        has_case_column = CASE_COLUMN in header
        attribute_columns = [
            name
            for name in header
            if name not in (CASE_COLUMN, ACTIVITY_COLUMN, TIMESTAMP_COLUMN)
        ]
        staged = []
        for row_no, row in enumerate(reader, start=2):
            activity = (row.get(ACTIVITY_COLUMN) or "").strip()
            if not activity:
                raise InputError(f"{path}:{row_no}: missing activity")
            raw_ts = (row.get(TIMESTAMP_COLUMN) or "").strip()
            if not raw_ts:
                raise InputError(f"{path}:{row_no}: missing timestamp")
            try:
                timestamp = _timestamp_reference(raw_ts, timestamp_format)
            except InputError as exc:
                raise InputError(f"{path}:{row_no}: {exc}") from exc
            attributes = {
                name: _parse_attribute(row[name])
                for name in attribute_columns
                if row.get(name) not in (None, "")
            }
            case_id = (row.get(CASE_COLUMN) or "").strip() if has_case_column else ""
            staged.append((timestamp, row_no, activity, attributes, case_id))
    if not staged:
        raise InputError(f"{path}: empty log")
    filled = sum(1 for item in staged if item[4])
    if has_case_column and 0 < filled < len(staged):
        raise InputError(f"{path}: case column is only partially filled ({filled}/{len(staged)})")
    staged.sort(key=lambda item: (item[0], item[1]))
    stream = dataclasses.replace(
        build_uncorrelated_log([(act, ts, attrs) for ts, _no, act, attrs, _cid in staged]),
        attribute_names=tuple(attribute_columns),
    )
    if not has_case_column or filled == 0:
        return stream
    return correlate(stream, {index: item[4] for index, item in enumerate(staged, start=1)})


# A custom timestamp format, and how a (year, month, day, hour, minute, second) reads in each.
_CUSTOM_TIMESTAMP_FORMAT = "%d/%m/%Y %H:%M:%S"
_TIMESTAMP_SPELLINGS = {
    DEFAULT_TIMESTAMP_FORMAT: "{0:04d}-{1:02d}-{2:02d} {3:02d}:{4:02d}",
    _CUSTOM_TIMESTAMP_FORMAT: "{2:02d}/{1:02d}/{0:04d} {3:02d}:{4:02d}:{5:02d}",
}
_ATTRIBUTE_CELLS = ["", "", " ", "  ", "007", "-0", "100", "-3", "0", "x", " y ", "a,b", 'say "hi"',
                    "two\nlines", "\u0663"]


# A custom timestamp format without seconds, as ``random_timestamp_cell`` spells it.
CUSTOM_MINUTE_FORMAT = "%d/%m/%Y %H:%M"


def random_timestamp_cell(rng: random.Random, fmt: str) -> str:
    """A timestamp cell at or near the fixed width of ``fmt``, the default or the custom one.

    About half are valid stamps, some spelled in the other format.  The rest hold an
    impossible day (29 February of a common year, a 31st of a short month,
    day or month 0, month 13, year 0), an hour of 24 or a minute of 60, a
    digit that is not ASCII, a wrong separator, a field a digit short or
    long, seconds, or padding around the stamp or inside it.  No cell is
    blank.
    """
    year, month, day = rng.choice([1, 999, 1970, 2020, 2021, 9999]), rng.randint(1, 12), rng.randint(1, 28)
    hour, minute = rng.randint(0, 23), rng.randint(0, 59)
    roll = rng.random()
    if roll < 0.1:
        year, month, day = rng.choice([(2021, 2, 29), (2020, 2, 30), (2020, 4, 31), (2020, 6, 0),
                                       (2020, 0, 7), (2020, 13, 7), (0, 6, 7), (2020, 2, 29)])
    elif roll < 0.2:
        hour, minute = rng.choice([(24, 0), (23, 60), (25, 61), (99, 99), (0, 0), (23, 59)])
    custom = (fmt == CUSTOM_MINUTE_FORMAT) != (rng.random() < 0.15)
    spelling = "{2:02d}/{1:02d}/{0:04d} {3:02d}:{4:02d}" if custom else (
        "{0:04d}-{1:02d}-{2:02d} {3:02d}:{4:02d}"
    )
    text = spelling.format(year, month, day, hour, minute)
    roll = rng.random()
    if roll < 0.15:  # a digit swapped for another, ASCII or not
        at = rng.choice([k for k, char in enumerate(text) if char.isdigit()])
        text = text[:at] + rng.choice("07٣１²") + text[at + 1 :]
    elif roll < 0.25:  # a separator swapped
        at = rng.choice([k for k, char in enumerate(text) if not char.isdigit()])
        text = text[:at] + rng.choice("-/ :T.") + text[at + 1 :]
    elif roll < 0.4:  # a leading zero dropped, a digit or seconds added, a space doubled
        text = rng.choice([
            text.replace("-0", "-", 1), text.replace(" 0", " ", 1), "0" + text, text + "0",
            text + ":00", text.replace(" ", "  ", 1), text[:-1],
        ])
    if rng.random() < 0.15:
        text = rng.choice([" ", "\t", "  "]) + text + rng.choice(["", " ", "\t"])
    return text


def random_log_csv(rng: random.Random) -> tuple[str, str, dict[int, int]]:
    """A log CSV's text, its timestamp format, and each data row's count -> its last line.

    The header binds activity and timestamp, maybe a case column, and up to
    three attribute columns, in a random order.  Rows repeat timestamps, may
    be short or long, and hold blank lines between them, quoted commas and
    line breaks, whitespace cells and integer spellings.  The case column is
    full, empty or partial; now and then a row has no activity or a bad
    timestamp.  The counts are those ``read_log_csv_reference`` names rows by.
    """
    fmt = rng.choice(list(_TIMESTAMP_SPELLINGS))
    case_mode = rng.choice(["none", "full", "empty", "partial"])
    columns = ["activity", "timestamp"] + rng.sample(["K", "Note", "Res"], rng.randint(0, 3))
    if case_mode != "none":
        columns.append("case_id")
    rng.shuffle(columns)
    moments = [
        (rng.choice([1, 999, 1970, 2020, 9999]), rng.randint(1, 12), rng.randint(1, 28),
         rng.randint(0, 23), rng.randint(0, 59), rng.randint(0, 59))
        for _ in range(rng.randint(1, 4))
    ]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    line = out.getvalue().count("\n")
    last_line: dict[int, int] = {}
    for row_no in range(2, rng.randint(1, 12) + 2):
        while rng.random() < 0.15:
            out.write("\n")
            line += 1
        cells = []
        for name in columns:
            if name == "activity":
                cell = rng.choice(["A", "B", " C ", "D"]) if rng.random() > 0.03 else " "
            elif name == "timestamp":
                cell = _TIMESTAMP_SPELLINGS[fmt].format(*rng.choice(moments))
                if rng.random() < 0.03:
                    cell = rng.choice(["soon", "2020-13-01 00:00", "", "31/02/2020 00:00:00"])
                elif rng.random() < 0.1:
                    cell = f" {cell}\t"
            elif name == "case_id":
                full = case_mode == "full" or (case_mode == "partial" and rng.random() < 0.7)
                cell = rng.choice(["c1", "c2", " c3 "]) if full else ""
            else:
                cell = rng.choice(_ATTRIBUTE_CELLS)
            cells.append(cell)
        roll = rng.random()
        if roll < 0.1:
            cells = cells[: rng.randrange(1, len(cells) + 1)]
        elif roll < 0.2:
            cells += rng.choice([[""], ["extra"], ["1", "two"]])
        start = out.tell()
        writer.writerow(cells)
        line += out.getvalue()[start:].count("\n")
        last_line[row_no] = line
    if rng.random() < 0.2:
        out.write("\n")
    return out.getvalue(), fmt, last_line


def simulate_case_reference(
    net: WorkflowNet, config: SimulationConfig, rng: random.Random, start_minute: int
) -> list[tuple[str, int]]:
    """The timed token game on per-place lists of ready times, as ``simulate_case``.

    Enabling is a scan over every transition's preset; each arc moves one
    token, the earliest ready one, taken from a sorted pool.  Candidates,
    weights and RNG draws follow ``simulate_case`` one for one, and so do its
    ``InputError`` messages.
    """
    tokens: dict[str, list[int]] = {net.input_place: [start_minute]}
    fired: dict[str, int] = {}
    events: list[tuple[str, int]] = []
    for _step in range(MAX_STEPS_PER_CASE):
        if tokens.get(net.output_place):
            return sorted(events, key=lambda pair: pair[1])
        enabled = [t for t in net.transitions if all(tokens.get(p) for p in net.preset[t.tid])]
        if not enabled:
            raise InputError("simulation deadlocked before reaching the final marking")
        fresh = [t for t in enabled if fired.get(t.tid, 0) < config.max_loop]
        candidates = fresh or enabled
        weights = [config.branch_weights.get(t.tid, 1.0) for t in candidates]
        if not any(weights):
            weights = [1.0] * len(candidates)
        chosen = rng.choices(candidates, weights=weights, k=1)[0]
        fired[chosen.tid] = fired.get(chosen.tid, 0) + 1
        fire_time = start_minute
        for place in net.preset[chosen.tid]:
            earliest, *rest = sorted(tokens[place])
            tokens[place] = rest
            fire_time = max(fire_time, earliest)
        if chosen.label is None:
            ready = fire_time
        else:
            mean, jitter = config.durations.get(chosen.label, DEFAULT_DURATION)
            ready = fire_time + rng.randint(max(1, mean - jitter), mean + jitter)
            events.append((chosen.label, ready))
        for place in net.postset[chosen.tid]:
            tokens.setdefault(place, []).append(ready)
    raise InputError(f"simulation exceeded {MAX_STEPS_PER_CASE} steps in one case")


# --- random structured nets and traces ---------------------------------------


_ACTIVITIES = ["a", "b", "c", "d", "e", "f"]


def _random_tree(rng: random.Random, budget: int, depth: int) -> tuple:
    """Pattern tree with a transition budget: leaves, seq, xor, and, loop."""
    if budget <= 1 or depth >= 3:
        return ("leaf", rng.choice(_ACTIVITIES))
    roll = rng.random()
    if roll < 0.35:
        return ("leaf", rng.choice(_ACTIVITIES))
    if roll < 0.60:
        left_budget = rng.randint(1, budget - 1)
        return (
            "seq",
            _random_tree(rng, left_budget, depth + 1),
            _random_tree(rng, budget - left_budget, depth + 1),
        )
    if roll < 0.80:
        left_budget = rng.randint(1, budget - 1)
        return (
            "xor",
            _random_tree(rng, left_budget, depth + 1),
            _random_tree(rng, budget - left_budget, depth + 1),
        )
    if roll < 0.92 and budget >= 4:
        left_budget = rng.randint(1, budget - 3)
        return (
            "and",
            _random_tree(rng, left_budget, depth + 1),
            _random_tree(rng, budget - 2 - left_budget, depth + 1),
        )
    if budget >= 2:
        return ("loop", _random_tree(rng, budget - 1, depth + 1))
    return ("leaf", rng.choice(_ACTIVITIES))


def _tree_size(tree: tuple) -> int:
    kind = tree[0]
    if kind == "leaf":
        return 1
    if kind == "seq" or kind == "xor":
        return _tree_size(tree[1]) + _tree_size(tree[2])
    if kind == "and":
        return 2 + _tree_size(tree[1]) + _tree_size(tree[2])
    return 1 + _tree_size(tree[1])  # loop: child plus the back edge


def random_structured_net(rng: random.Random, max_transitions: int = 8) -> WorkflowNet:
    """A small workflow net composed of sequence/choice/parallel/loop patterns.

    Always has the shape source -> S -> body -> silent -> sink, so "S" is the
    unique start activity and the net stays sound by construction.
    """
    body_budget = max_transitions - 2  # S plus the closing silent transition
    tree = _random_tree(rng, body_budget, 0)
    while _tree_size(tree) > body_budget:
        tree = _random_tree(rng, body_budget, 0)

    places: list[str] = []
    transitions: list[Transition] = []
    arcs: list[tuple[str, str]] = []
    counters = {"p": 0, "t": 0}

    def new_place() -> str:
        counters["p"] += 1
        name = f"p{counters['p']}"
        places.append(name)
        return name

    def new_transition(label: str | None) -> str:
        counters["t"] += 1
        name = f"t{counters['t']}"
        transitions.append(Transition(name, label))
        return name

    def compile_tree(node: tuple, entry: str, exit_: str) -> None:
        kind = node[0]
        if kind == "leaf":
            tid = new_transition(node[1])
            arcs.append((entry, tid))
            arcs.append((tid, exit_))
        elif kind == "seq":
            mid = new_place()
            compile_tree(node[1], entry, mid)
            compile_tree(node[2], mid, exit_)
        elif kind == "xor":
            compile_tree(node[1], entry, exit_)
            compile_tree(node[2], entry, exit_)
        elif kind == "and":
            split = new_transition(None)
            join = new_transition(None)
            arcs.append((entry, split))
            arcs.append((join, exit_))
            for child in (node[1], node[2]):
                before, after = new_place(), new_place()
                arcs.append((split, before))
                arcs.append((after, join))
                compile_tree(child, before, after)
        else:  # loop: child runs once or more
            compile_tree(node[1], entry, exit_)
            back = new_transition(None)
            arcs.append((exit_, back))
            arcs.append((back, entry))

    source = new_place()
    body_entry = new_place()
    body_exit = new_place()
    sink = new_place()
    start = new_transition("S")
    arcs.append((source, start))
    arcs.append((start, body_entry))
    compile_tree(tree, body_entry, body_exit)
    closer = new_transition(None)
    arcs.append((body_exit, closer))
    arcs.append((closer, sink))
    return WorkflowNet(places=places, transitions=transitions, arcs=arcs)


def sample_run_projection(
    net: WorkflowNet, rng: random.Random, step_cap: int = 60
) -> list[str]:
    """Visible labels of one random play of the token game."""
    marking = {net.input_place: 1}
    word: list[str] = []
    for _ in range(step_cap):
        if marking.get(net.output_place, 0) >= 1:
            break
        enabled = [t for t in net.transitions if _enabled(net, marking, t.tid)]
        if not enabled:
            break
        t = rng.choice(enabled)
        if t.label is not None:
            word.append(t.label)
        marking = _fire(net, marking, t.tid)
    return word


def random_trace(net: WorkflowNet, rng: random.Random, max_len: int = 6) -> tuple[str, ...]:
    """Half mutated run projections, half arbitrary words (with an outsider symbol)."""
    if rng.random() < 0.5:
        word = sample_run_projection(net, rng)[:max_len]
        for _ in range(rng.randint(0, 2)):
            mutation = rng.random()
            if mutation < 0.4 and word:
                del word[rng.randrange(len(word))]
            elif mutation < 0.8 and len(word) < max_len:
                word.insert(rng.randrange(len(word) + 1), rng.choice(_ACTIVITIES + ["z"]))
            elif word:
                word[rng.randrange(len(word))] = rng.choice(_ACTIVITIES + ["z"])
        return tuple(word)
    length = rng.randint(0, max_len)
    return tuple(rng.choice(_ACTIVITIES + ["S", "z"]) for _ in range(length))


# --- rule evaluation, one definition per function ----------------------------


def _conds_hold_reference(conditions, subject: str, event: Event) -> bool:
    return all(
        _compare(_attr_value(event, c.attr), c.op, c.value)
        for c in conditions
        if c.subject == subject
    )


def _eval_expr_reference(expr, e_i: Event, e_j: Event) -> bool:
    if isinstance(expr, Comparison):
        if expr.rhs_attr is not None:
            return _compare(
                _attr_value(e_i, expr.attr), expr.op, _attr_value(e_j, expr.rhs_attr)
            )
        return _compare(_attr_value(e_j, expr.attr), expr.op, expr.value)
    if isinstance(expr, And):
        return all(_eval_expr_reference(item, e_i, e_j) for item in expr.items)
    return any(_eval_expr_reference(item, e_i, e_j) for item in expr.items)


def _closest_j_reference(rule: IfThenRule, events: tuple[Event, ...], upto: int) -> Event | None:
    """Nearest earlier event whose j-conditions hold; positions upto-1 .. 1."""
    for k in range(upto - 1, 0, -1):
        if _conds_hold_reference(rule.conditions, "j", events[k - 1]):
            return events[k - 1]
    return None


def e_sat_reference(rule, event: Event, case: Case) -> int:
    """1 when ``event`` appended to ``case`` satisfies the rule, else 0."""
    events = case.events
    if isinstance(rule, EqRule):
        if not events:
            return 0
        lhs = _attr_value(event, rule.attribute)
        rhs = _attr_value(events[-1], rule.attribute)
        return int(_compare(lhs, "==", rhs))
    if isinstance(rule, EventTimeRule):
        if not _conds_hold_reference(rule.conditions, "i", event) or not events:
            return 0
        duration = event.timestamp - events[-1].timestamp
        return int(rule.dur_min <= duration <= rule.dur_max)
    if not _conds_hold_reference(rule.conditions, "i", event):
        return 0
    if rule.uses_j:
        anchor = _closest_j_reference(rule, events, len(events) + 1)
    else:
        anchor = events[-1] if events else None
    if anchor is None:
        return 0
    return int(_eval_expr_reference(rule.consequence, event, anchor))


def trigger_reference(rule, case: Case) -> bool:
    """Whether the case activates the rule (plain attribute rules always do)."""
    events = case.events
    if isinstance(rule, EqRule):
        return True
    if isinstance(rule, EventTimeRule) or not rule.uses_j:
        return any(_conds_hold_reference(rule.conditions, "i", e) for e in events)
    for i in range(2, len(events) + 1):
        if _conds_hold_reference(rule.conditions, "i", events[i - 1]) and (
            _closest_j_reference(rule, events, i) is not None
        ):
            return True
    return False


def e_vio_reference(rule, case: Case, position: int) -> bool:
    """Whether the event at 1-based ``position`` (within the case) violates the rule."""
    events = case.events
    event = events[position - 1]
    if isinstance(rule, EqRule):
        if position == 1:
            return False
        lhs = _attr_value(event, rule.attribute)
        rhs = _attr_value(events[position - 2], rule.attribute)
        return not _compare(lhs, "==", rhs)
    if isinstance(rule, EventTimeRule):
        if position == 1 or not _conds_hold_reference(rule.conditions, "i", event):
            return False
        duration = event.timestamp - events[position - 2].timestamp
        return not rule.dur_min <= duration <= rule.dur_max
    if not _conds_hold_reference(rule.conditions, "i", event):
        return False
    if rule.uses_j:
        anchor = _closest_j_reference(rule, events, position)
    else:
        anchor = events[position - 2] if position >= 2 else None
    if anchor is None:
        return False
    return not _eval_expr_reference(rule.consequence, event, anchor)


def vio_reference(rule, case: Case) -> bool:
    return any(e_vio_reference(rule, case, p) for p in range(1, len(case.events) + 1))


def rule_cost_reference(log: EventLog, rules: RuleSet) -> float:
    """Mean over cases of violated triggered rules over triggered rules.

    Summed in exact fractions and rounded to a float once.
    """
    if not rules.rules or not log.cases:
        return 0.0
    total = Fraction(0)
    for case in log.cases:
        triggered = [rule for rule in rules if trigger_reference(rule, case)]
        if not triggered:
            continue
        violated = sum(vio_reference(rule, case) for rule in triggered)
        total += Fraction(violated, len(triggered))
    return float(total / len(log.cases))


def time_variance_reference(log: EventLog) -> Fraction:
    """Mean squared deviation of each non-first event's elapsed minutes from its activity's mean."""
    samples = [
        (b.activity, b.timestamp - a.timestamp)
        for case in log.cases
        for a, b in zip(case.events, case.events[1:])
    ]
    if not samples:
        return Fraction(0)
    by_activity: dict[str, list[int]] = {}
    for activity, minutes in samples:
        by_activity.setdefault(activity, []).append(minutes)
    mean = {activity: Fraction(sum(v), len(v)) for activity, v in by_activity.items()}
    return sum((minutes - mean[activity]) ** 2 for activity, minutes in samples) / len(samples)


# --- random rules and events --------------------------------------------------


_RULE_ATTRS = ["Act", "Ts", "K", "L"]
_RULE_OPS = ["==", "!=", "<", "<=", ">", ">="]


def _random_scalar(rng: random.Random):
    """An int, an int-like string, or a plain string."""
    roll = rng.random()
    if roll < 0.35:
        return rng.randint(-2, 3)
    if roll < 0.7:
        return rng.choice(["-1", "0", "2", "03", "10"])
    return rng.choice(["a", "b", "x", "10a"])


def _random_comparison(rng: random.Random, subject: str) -> Comparison:
    attr = rng.choice(_RULE_ATTRS)
    if attr == "Act":
        value = rng.choice(["a", "b", "c"])
    else:
        value = _random_scalar(rng)
    return Comparison(subject=subject, attr=attr, op=rng.choice(_RULE_OPS), value=value)


def _random_consequence(rng: random.Random, depth: int = 0):
    roll = rng.random()
    if depth < 2 and roll < 0.3:
        kind = And if rng.random() < 0.5 else Or
        return kind(tuple(_random_consequence(rng, depth + 1) for _ in range(rng.randint(2, 3))))
    if roll < 0.65:
        return Comparison(
            subject="i",
            attr=rng.choice(_RULE_ATTRS),
            op=rng.choice(_RULE_OPS),
            rhs_attr=rng.choice(_RULE_ATTRS),
        )
    return _random_comparison(rng, "j")


def random_rule(rng: random.Random, label: str = "C1"):
    """An EqRule, an EventTimeRule, or an IfThenRule with or without e[j] conditions."""
    roll = rng.random()
    if roll < 0.25:
        return EqRule(label, rng.choice(_RULE_ATTRS))
    if roll < 0.45:
        conditions = tuple(_random_comparison(rng, "i") for _ in range(rng.randint(1, 2)))
        lo = rng.randint(0, 20)
        return EventTimeRule(label, conditions, lo, lo + rng.randint(0, 30))
    conditions = tuple(
        _random_comparison(rng, rng.choice("iij")) for _ in range(rng.randint(1, 3))
    )
    return IfThenRule(label, conditions, _random_consequence(rng))


def random_rule_events(rng: random.Random, count: int, start: int = 1) -> tuple[Event, ...]:
    """Events with increasing timestamps and attributes that may be missing."""
    events = []
    timestamp = rng.randint(0, 10)
    for index in range(start, start + count):
        attributes = {
            attr: _random_scalar(rng) for attr in ("K", "L") if rng.random() < 0.75
        }
        events.append(Event(index, rng.choice(["a", "b", "c"]), timestamp, attributes))
        timestamp += rng.randint(0, 25)
    return tuple(events)


# --- the streaming decoder, restated from its three scenarios -----------------


class DecoderReference:
    """The decoder over the dict token game, scanning every case for every event.

    Cases are dicts in one list, in opening order.  A start-activity event opens
    a case; any other event goes to the best-scoring open case whose silent
    closure enables its activity, or else (a deviation) to the best-scoring of
    all cases, whose marking stays put; with no case yet it opens one without
    firing.  A case closes when its closure holds a sink token.  Scores are sums
    of ``e_sat_reference``; ties go to ``rng.choice`` over the tied cases in
    opening order.  It stands in for ``StreamDecoder`` where ``annealer.run``
    builds one, with :func:`replay_prefix_reference` for ``replay_prefix``.
    """

    def __init__(self, net: WorkflowNet, rules: RuleSet, rng: random.Random,
                 start_activity: str) -> None:
        self.net, self.rules, self.rng = net, rules, rng
        self.start_activity = start_activity
        self.cases: list[dict] = []
        self.assignment: dict[int, str] = {}

    def open(self, case_id: str | None = None) -> dict:
        if case_id is None:
            taken = {case["id"] for case in self.cases}
            n = len(self.cases) + 1
            while f"c{n}" in taken:
                n += 1
            case_id = f"c{n}"
        case = {"id": case_id, "marking": {self.net.input_place: 1}, "events": [], "closed": False}
        self.cases.append(case)
        return case

    def advance(self, case: dict, activity: str) -> bool:
        targets = silent_closure_reference(self.net, case["marking"])[2]
        if activity not in targets:
            return False
        case["marking"] = targets[activity]
        case["closed"] = silent_closure_reference(self.net, case["marking"])[1]
        return True

    def score(self, event: Event, case: dict) -> int:
        history = Case(case["id"], tuple(case["events"]))
        return sum(e_sat_reference(rule, event, history) for rule in self.rules)

    def pick(self, candidates: list[dict], event: Event) -> dict:
        if len(candidates) == 1:
            return candidates[0]
        scores = [self.score(event, case) for case in candidates]
        tied = [c for c, s in zip(candidates, scores) if s == max(scores)]
        return tied[0] if len(tied) == 1 else self.rng.choice(tied)

    def step(self, event: Event) -> str:
        if event.activity == self.start_activity:
            chosen = self.open()
            if not self.advance(chosen, event.activity):
                raise ValueError("the start activity cannot fire from the initial marking")
        else:
            fitting = [
                c for c in self.cases
                if not c["closed"]
                and event.activity in silent_closure_reference(self.net, c["marking"])[0]
            ]
            if fitting:
                chosen = self.pick(fitting, event)
                self.advance(chosen, event.activity)
            elif self.cases:
                chosen = self.pick(list(self.cases), event)
            else:
                chosen = self.open()
        chosen["events"].append(event)
        self.assignment[event.index] = chosen["id"]
        return chosen["id"]

    def run(self, events) -> dict[int, str]:
        for event in events:
            self.step(event)
        return self.assignment


def replay_prefix_reference(
    decoder: DecoderReference, stream: UncorrelatedLog, assignment: dict[int, str], cut: int
) -> None:
    """Load the events before 1-based ``cut`` under their ids in ``assignment``.

    An event moves its case's marking when the closure enables its activity and
    leaves it in place otherwise.
    """
    for event in stream.events[: cut - 1]:
        case_id = assignment[event.index]
        case = next((c for c in decoder.cases if c["id"] == case_id), None)
        if case is None:
            case = decoder.open(case_id)
        decoder.advance(case, event.activity)
        case["events"].append(event)
        decoder.assignment[event.index] = case_id


def decoder_reference(
    net: WorkflowNet,
    rules: RuleSet,
    stream: UncorrelatedLog,
    rng: random.Random,
    start_activity: str,
    assignment: dict[int, str] | None = None,
    cut: int = 1,
) -> dict[int, str]:
    """The reference decoder's assignment of ``stream``.

    Events before ``cut`` keep their ids in ``assignment``; the rest are decoded.
    """
    decoder = DecoderReference(net, rules, rng, start_activity)
    replay_prefix_reference(decoder, stream, assignment or {}, cut)
    return decoder.run(stream.events[cut - 1 :])


def changed_cases_reference(
    stream: UncorrelatedLog, before: dict[int, str], assignment: dict[int, str], cut: int
) -> dict[str, tuple[Event, ...]]:
    """New events of each case whose set of events differs between two assignments.

    The assignments agree on the events before 1-based ``cut``, so the changed
    cases are the new and the old id of each later event that the two assign
    differently, in that order.  Each gets the events ``assignment`` gives it,
    in stream order; a case that is gone gets none.
    """
    changed: dict[str, None] = {}
    for event in stream.events[cut - 1 :]:
        new, old = assignment[event.index], before[event.index]
        if new != old:
            changed.update(dict.fromkeys((new, old)))
    return {
        case_id: tuple(e for e in stream.events if assignment[e.index] == case_id)
        for case_id in changed
    }


def random_decoder_instance(
    rng: random.Random,
) -> tuple[WorkflowNet, RuleSet, UncorrelatedLog]:
    """A random net, random rules, and a stream of interleaved runs with deviations.

    Each run is a play of the net's token game cut to 8 events, with up to two
    deletions, insertions (an outsider ``z`` included) or swaps.  Every run
    carries one ``K`` value on most of its events and ``L`` varies per event, so
    attribute rules can tell the runs apart.
    """
    net = random_structured_net(rng)
    runs = []
    for _ in range(rng.randint(1, 6)):
        word = sample_run_projection(net, rng)[:8]
        for _ in range(rng.randint(0, 2)):
            roll = rng.random()
            if roll < 0.35 and len(word) > 1:
                del word[rng.randrange(len(word))]
            elif roll < 0.75:
                word.insert(rng.randrange(len(word) + 1), rng.choice(_ACTIVITIES + ["z"]))
            elif len(word) > 2:
                i = rng.randrange(len(word) - 1)
                word[i], word[i + 1] = word[i + 1], word[i]
        key = _random_scalar(rng)
        runs.append([(activity, key) for activity in word])
    events: list[Event] = []
    timestamp = rng.randint(0, 10)
    while any(runs):
        run = rng.choice([r for r in runs if r])
        activity, key = run.pop(0)
        attributes = {"K": key} if rng.random() < 0.85 else {}
        if rng.random() < 0.6:
            attributes["L"] = _random_scalar(rng)
        events.append(Event(len(events) + 1, activity, timestamp, attributes))
        timestamp += rng.randint(0, 25)
    rules = RuleSet(tuple(random_rule(rng, f"C{n}") for n in range(1, rng.randint(0, 3) + 1)))
    return net, rules, UncorrelatedLog(tuple(events))
