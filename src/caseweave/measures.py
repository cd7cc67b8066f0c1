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
from typing import NamedTuple, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .model import Case, EventLog, InputError, elapsed_time, cycle_time


Trace = tuple[str, ...]

# The popcounts of the packed rows are taken this many bits at a time, so the
# counting temporaries stay small whatever the size of the table.
_COUNT_CHUNK_BITS = 1 << 14


def _distance_table(rows: Sequence[Trace], cols: Sequence[Trace]) -> np.ndarray:
    """Insertions-plus-deletions distance between every row and column trace.

    The distance is |a| + |b| - 2 * LCS(a, b), with the LCS length from the
    bit-parallel recurrence V' = (V + U) | (V - U), U = V & M[x] (Allison &
    Dix 1986; Hyyro 2004), run against every column at once (Hyyro,
    Fredriksson and Navarro 2005).  All columns share one Python int:

    - column j owns |col_j| bits, bit k of its span standing for col_j[k],
      and one guard bit above them, which ``full`` leaves 0;
    - M[x] sets the bit of every column position that holds x.

    So a row is one pass over its own symbols.  U is a subset of V, so V - U
    clears bits without a borrow.  A carry of V + U out of a column's top bit
    runs into its guard bit, which is 0 in V and in U, so it stops there, and
    ``& full`` clears it.  Each column's bits therefore evolve as if it ran
    alone.  Bit k of a column's V is 0 where the LCS of the row prefix with
    col[:k + 1] is one longer than with col[:k], so LCS = |col| - popcount of
    its span.  The spans' popcounts come from the rows' bytes, unpacked in
    chunks; every span holds at least its guard bit, so none is empty.
    """
    table = np.zeros((len(rows), len(cols)), dtype=np.int64)
    if not rows or not cols:
        return table
    width = sum(map(len, cols)) + len(cols)
    digits: dict[str, bytearray] = {}  # each symbol's mask in binary, highest bit first
    at = width
    for col in cols:
        for symbol in col:
            at -= 1
            mask = digits.get(symbol)
            if mask is None:
                mask = digits[symbol] = bytearray(b"0" * width)
            mask[at] = ord("1")
        at -= 1  # the guard bit
    masks = {symbol: int(mask, 2) for symbol, mask in digits.items()}
    full = int("".join("0" + "1" * len(col) for col in reversed(cols)), 2)
    size = (width + 7) // 8
    packed = bytearray()
    for row in rows:
        v = full
        for symbol in row:
            u = v & masks.get(symbol, 0)
            v = ((v + u) | (v - u)) & full
        packed += v.to_bytes(size, "little")
    packed_rows = np.frombuffer(packed, dtype=np.uint8).reshape(len(rows), size)
    starts = np.cumsum([0] + [len(col) + 1 for col in cols[:-1]])
    step = max(1, _COUNT_CHUNK_BITS // (8 * size))
    for first in range(0, len(rows), step):
        bits = np.unpackbits(packed_rows[first : first + step], axis=1, bitorder="little")
        np.add.reduceat(bits, starts, axis=1, dtype=table.dtype, out=table[first : first + step])
    table *= 2  # |row| - |col| + 2 * popcount, in place
    table += np.array([len(row) for row in rows])[:, None]
    table -= np.array([len(col) for col in cols])
    return table


def edit_distance_ins_del(a: Trace, b: Trace) -> int:
    """Insertions-plus-deletions distance: |a| + |b| - 2 * LCS(a, b)."""
    return int(_distance_table([a], [b])[0, 0])


class _Table(NamedTuple):
    """A distance table whose rows and columns are found by their traces."""

    rows: dict[Trace, int]
    cols: dict[Trace, int]
    distances: np.ndarray

    def block(self, rows: Sequence[Trace], cols: Sequence[Trace]) -> np.ndarray:
        """The distances of ``rows`` against ``cols``; either may repeat a trace."""
        return self.distances[
            np.ix_([self.rows[t] for t in rows], [self.cols[t] for t in cols])
        ]


def _tabulate(rows: Sequence[Trace], cols: Sequence[Trace]) -> _Table:
    return _Table(
        {t: i for i, t in enumerate(rows)},
        {t: j for j, t in enumerate(cols)},
        _distance_table(rows, cols),
    )


def _variants(log: EventLog) -> Counter[Trace]:
    """Each distinct trace of the log with its number of cases."""
    return Counter(c.trace for c in log.cases)


def _unshared(originals: Counter[Trace], partners: Counter[Trace]) -> list[Trace]:
    """The original variants that ``l2l_trace`` needs a table row for.

    An original that is also a partner is its own nearest partner, at
    distance 0; the distance is a metric, so no other partner ties with it.
    """
    return [t for t in originals if t not in partners]


def _unmatched(
    counts_a: Counter[Trace], counts_b: Counter[Trace]
) -> tuple[Counter[Trace], Counter[Trace]]:
    """Both sides padded with empty traces to one size, less the copies they share."""
    size = max(counts_a.total(), counts_b.total())
    padded_a = counts_a + Counter({(): size - counts_a.total()})
    padded_b = counts_b + Counter({(): size - counts_b.total()})
    common = padded_a & padded_b
    return padded_a - common, padded_b - common


def _matching_cost(rest_a: Counter[Trace], rest_b: Counter[Trace], table: _Table) -> int:
    """The cheapest perfect matching of two equal-sized multisets, by their table."""
    if not rest_a:
        return 0
    cost = table.block(list(rest_a.elements()), list(rest_b.elements()))
    matched_rows, matched_cols = linear_sum_assignment(cost)
    return int(cost[matched_rows, matched_cols].sum())


def _trace_similarity(
    originals: Counter[Trace], partners: Counter[Trace], table: _Table
) -> float:
    """``l2l_trace`` of two logs' variants; ``table`` has the rows of ``_unshared``."""
    if not originals:
        return 1.0
    ordered = sorted(partners)
    rest = _unshared(originals, partners)
    block = table.block(rest, ordered)
    nearest = block.argmin(axis=1)  # first index among ties; the partners are sorted
    total_distance = int(block[np.arange(len(rest)), nearest].sum())
    total_length = (
        sum(map(len, originals))
        + sum(len(t) for t in originals if t in partners)  # each its own partner
        + sum(len(ordered[j]) for j in nearest)
    )
    if total_length == 0:
        return 1.0
    return 1.0 - total_distance / total_length


def _frequency_similarity(cost: int, original: EventLog) -> float:
    """``l2l_freq`` from the cost of the optimal case matching."""
    return max(0.0, 1.0 - cost / len(original.base.events))


def min_matching_cost(traces_a: list[Trace], traces_b: list[Trace]) -> int:
    """Minimum total edit distance of a perfect matching between the two lists.

    Unequal lengths are padded with empty traces, which cost their partner's
    length to match.  Equal traces on both sides cancel first: the distance
    is a metric, so swapping partners never makes a matching worse by pairing
    two copies of one trace, and some optimal matching pairs every copy it
    can.  Distances are computed once per pair of the remaining variants and
    spread over their cases for the assignment.
    """
    rest_a, rest_b = _unmatched(Counter(traces_a), Counter(traces_b))
    return _matching_cost(rest_a, rest_b, _tabulate(list(rest_a), list(rest_b)))


def l2l_trace(original: EventLog, generated: EventLog) -> float:
    """Distinct-trace similarity; each original trace picks its nearest partner.

    Among equally near partners the lexicographically smallest one wins.
    """
    originals, partners = _variants(original), _variants(generated)
    return _trace_similarity(
        originals, partners, _tabulate(_unshared(originals, partners), list(partners))
    )


def l2l_freq(original: EventLog, generated: EventLog) -> float:
    """Frequency-aware similarity via an optimal case matching.

    1 - (matching cost / number of events), clamped at 0: the cost of a
    matching can reach twice the event count.
    """
    cost = min_matching_cost(
        [c.trace for c in original.cases], [c.trace for c in generated.cases]
    )
    return _frequency_similarity(cost, original)


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
    # one table serves l2l_trace and l2l_freq: its rows are the originals
    # either needs, its columns every partner and the empty padding trace
    originals, partners = _variants(original), _variants(generated)
    rest_a, rest_b = _unmatched(originals, partners)
    rows = dict.fromkeys([*_unshared(originals, partners), *rest_a])
    table = _tabulate(list(rows), [*partners, ()])
    return MeasureReport(
        l2l_trace=_trace_similarity(originals, partners, table),
        l2l_freq=_frequency_similarity(_matching_cost(rest_a, rest_b, table), original),
        l2l_first=l2l_first(original, generated),
        l2l_2gram=l2l_2gram(original, generated),
        l2l_3gram=l2l_3gram(original, generated),
        l2l_case=l2l_case(original, generated),
        smape_et=smape_et(original, generated),
        smape_ct=smape_ct(original, generated),
        notes=tuple(notes),
    )
