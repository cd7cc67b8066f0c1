"""Log-to-log quality measures between two correlations of one event stream.

Both logs must partition the same underlying stream; events are matched by
identity (their stream index), so the measures quantify how well the generated
case structure reproduces the original one.  All l2l measures live in [0, 1]
with 1 meaning perfect agreement; the smape measures are error rates with 0
meaning perfect agreement.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .model import Case, EventLog, InputError, elapsed_time, cycle_time


def _distance_table(
    rows: Sequence[tuple[str, ...]], cols: Sequence[tuple[str, ...]]
) -> np.ndarray:
    """Insertions-plus-deletions distance between every row and column trace.

    The distance is |a| + |b| - 2 * LCS(a, b), with the LCS length from the
    bit-parallel recurrence V' = (V + U) | (V - U), U = V & M[x] (Allison &
    Dix 1986; Hyyro 2004), where M[x] has bit k set if ``col[k] == x``: bit k
    of V is 0 where the LCS of the row prefix with ``col[:k + 1]`` is one
    longer than with ``col[:k]``, so LCS = |col| - popcount(V).  Each
    column's symbol bitmasks are built once; Python ints hold any length.
    """
    table = np.empty((len(rows), len(cols)), dtype=np.int64)
    for j, col in enumerate(cols):
        full = (1 << len(col)) - 1
        masks: dict[str, int] = {}
        for bit, symbol in enumerate(col):
            masks[symbol] = masks.get(symbol, 0) | (1 << bit)
        column = []
        for row in rows:
            v = full
            for symbol in row:
                u = v & masks.get(symbol, 0)
                v = ((v + u) | (v - u)) & full
            column.append(len(row) - len(col) + 2 * v.bit_count())
        table[:, j] = column
    return table


def edit_distance_ins_del(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    """Insertions-plus-deletions distance: |a| + |b| - 2 * LCS(a, b)."""
    return int(_distance_table([a], [b])[0, 0])


def min_matching_cost(
    traces_a: list[tuple[str, ...]], traces_b: list[tuple[str, ...]]
) -> int:
    """Minimum total edit distance of a perfect matching between the two lists.

    Unequal lengths are padded with empty traces, which cost their partner's
    length to match.  Equal traces on both sides cancel first: the distance
    is a metric, so swapping partners never makes a matching worse by pairing
    two copies of one trace, and some optimal matching pairs every copy it
    can.  Distances are computed once per pair of the remaining variants and
    spread over their cases for the assignment.
    """
    size = max(len(traces_a), len(traces_b))
    counts_a = Counter(traces_a + [()] * (size - len(traces_a)))
    counts_b = Counter(traces_b + [()] * (size - len(traces_b)))
    common = counts_a & counts_b
    rest_a, rest_b = counts_a - common, counts_b - common
    if not rest_a:
        return 0
    variants_a, variants_b = list(rest_a), list(rest_b)
    rows = [i for i, trace in enumerate(variants_a) for _ in range(rest_a[trace])]
    cols = [j for j, trace in enumerate(variants_b) for _ in range(rest_b[trace])]
    cost = _distance_table(variants_a, variants_b)[np.ix_(rows, cols)]
    matched_rows, matched_cols = linear_sum_assignment(cost)
    return int(cost[matched_rows, matched_cols].sum())


def l2l_trace(original: EventLog, generated: EventLog) -> float:
    """Distinct-trace similarity; each original trace picks its nearest partner.

    Among equally near partners the lexicographically smallest one wins.
    """
    originals = sorted({c.trace for c in original.cases})
    partners = sorted({c.trace for c in generated.cases})
    if not originals:
        return 1.0
    table = _distance_table(originals, partners)
    nearest = table.argmin(axis=1)  # first index among ties; partners are sorted
    total_distance = int(table[np.arange(len(originals)), nearest].sum())
    total_length = sum(map(len, originals)) + sum(len(partners[j]) for j in nearest)
    if total_length == 0:
        return 1.0
    return 1.0 - total_distance / total_length


def l2l_freq(original: EventLog, generated: EventLog) -> float:
    """Frequency-aware similarity via an optimal case matching.

    1 - (matching cost / number of events), clamped at 0: the cost of a
    matching can reach twice the event count.
    """
    cost = min_matching_cost(
        [c.trace for c in original.cases], [c.trace for c in generated.cases]
    )
    return max(0.0, 1.0 - cost / len(original.base.events))


def _pair_by_first_event(
    original: EventLog, generated: EventLog
) -> list[tuple[Case, Case]]:
    by_first = {c.events[0].index: c for c in generated.cases}
    pairs = []
    for case in original.cases:
        partner = by_first.get(case.events[0].index)
        if partner is not None:
            pairs.append((case, partner))
    return pairs


def l2l_first(original: EventLog, generated: EventLog) -> float:
    """Shared tail events between cases that open with the same event."""
    non_start = len(original.base.events) - len(original.cases)
    if non_start == 0:
        return 0.0
    shared = 0
    for case, partner in _pair_by_first_event(original, generated):
        tail = {e.index for e in case.events[1:]}
        partner_tail = {e.index for e in partner.events[1:]}
        shared += len(tail & partner_tail)
    return shared / non_start


def _ngram_fraction(original: EventLog, generated: EventLog, width: int) -> float:
    """Mean per-case fraction of event n-grams that reappear contiguously."""
    present: set[tuple[int, ...]] = set()
    for case in generated.cases:
        indices = [e.index for e in case.events]
        for k in range(len(indices) - width + 1):
            present.add(tuple(indices[k : k + width]))
    total = 0.0
    for case in original.cases:
        indices = [e.index for e in case.events]
        windows = len(indices) - width + 1
        if windows <= 0:
            continue  # short cases contribute 0, the case count stays as is
        hits = sum(
            tuple(indices[k : k + width]) in present for k in range(windows)
        )
        total += hits / windows
    return total / len(original.cases)


def l2l_2gram(original: EventLog, generated: EventLog) -> float:
    return _ngram_fraction(original, generated, 2)


def l2l_3gram(original: EventLog, generated: EventLog) -> float:
    return _ngram_fraction(original, generated, 3)


def l2l_case(original: EventLog, generated: EventLog) -> float:
    """Fraction of original cases reproduced exactly (same events, same order)."""
    exact = {tuple(e.index for e in c.events) for c in generated.cases}
    hits = sum(tuple(e.index for e in c.events) in exact for c in original.cases)
    return hits / len(original.cases)


def smape_et(original: EventLog, generated: EventLog) -> float:
    """Symmetric error of per-event elapsed times between the two case contexts."""
    non_start = len(original.base.events) - len(original.cases)
    if non_start == 0:
        return 0.0

    def per_event(log: EventLog) -> dict[int, int]:
        out: dict[int, int] = {}
        for case in log.cases:
            for position, event in enumerate(case.events, start=1):
                out[event.index] = elapsed_time(case, position)
        return out

    a, b = per_event(original), per_event(generated)
    total = 0.0
    for index, left in a.items():
        right = b[index]
        if left + right > 0:
            total += abs(left - right) / (left + right)
    return total / non_start


def smape_ct(original: EventLog, generated: EventLog) -> float:
    """Symmetric error of cycle times over cases that open with the same event."""
    total = 0.0
    for case, partner in _pair_by_first_event(original, generated):
        left, right = cycle_time(case), cycle_time(partner)
        if left + right > 0:
            total += abs(left - right) / (left + right)
    return total / len(original.cases)


@dataclass(frozen=True)
class MeasureReport:
    l2l_trace: float
    l2l_freq: float
    l2l_first: float
    l2l_2gram: float
    l2l_3gram: float
    l2l_case: float
    smape_et: float
    smape_ct: float
    notes: tuple[str, ...] = ()

    FIELDS = (
        "l2l_trace",
        "l2l_freq",
        "l2l_first",
        "l2l_2gram",
        "l2l_3gram",
        "l2l_case",
        "smape_et",
        "smape_ct",
    )

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in self.FIELDS}

    def to_text(self) -> str:
        lines = [f"{name}: {value:.6f}" for name, value in self.as_dict().items()]
        lines.extend(f"note: {note}" for note in self.notes)
        return "\n".join(lines) + "\n"


def evaluate(original: EventLog, generated: EventLog) -> MeasureReport:
    """All eight measures; the logs must correlate the same stream."""
    if original.base != generated.base:
        raise InputError("logs disagree on the underlying event stream")
    notes: list[str] = []
    if len(original.cases) != len(generated.cases):
        notes.append(
            f"case counts differ ({len(original.cases)} vs {len(generated.cases)}); "
            "the matching pads with empty cases"
        )
    return MeasureReport(
        l2l_trace=l2l_trace(original, generated),
        l2l_freq=l2l_freq(original, generated),
        l2l_first=l2l_first(original, generated),
        l2l_2gram=l2l_2gram(original, generated),
        l2l_3gram=l2l_3gram(original, generated),
        l2l_case=l2l_case(original, generated),
        smape_et=smape_et(original, generated),
        smape_ct=smape_ct(original, generated),
        notes=tuple(notes),
    )
