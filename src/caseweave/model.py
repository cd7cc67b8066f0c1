"""Core data model: events, uncorrelated logs, correlated logs, cases.

An uncorrelated log is a totally ordered stream of events without case
identifiers.  Correlation assigns every event to exactly one case; a correlated
log is therefore a partition of the stream, and each case inherits the stream
order.  Timestamps are integer minutes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import Iterable, Mapping, Sequence, Union

Scalar = Union[str, int]


class InputError(ValueError):
    """Malformed input data (bad record, bad file, mismatched logs)."""


@dataclass(frozen=True)
class Event:
    """One event of the stream.

    ``index`` is the 1-based position under the total order of the source
    stream and identifies the event; two logs over the same stream share event
    identity through it.  ``attributes`` holds the payload beyond activity and
    timestamp and must not be mutated after construction.
    """

    index: int
    activity: str
    timestamp: int
    attributes: Mapping[str, Scalar] = field(default_factory=dict)

    def __hash__(self) -> int:
        # attributes is a dict and unhashable; index alone identifies the
        # event within any log built over one stream.
        return hash((self.index, self.activity, self.timestamp))


@dataclass(frozen=True)
class UncorrelatedLog:
    """An ordered event stream with indices 1..n and no case information.

    ``attribute_names`` are attribute columns the stream was read with, kept
    so that a column whose cells are all empty is written back; equality
    ignores them.
    """

    events: tuple[Event, ...]
    attribute_names: tuple[str, ...] = field(default=(), compare=False)

    def __len__(self) -> int:
        return len(self.events)

    def event(self, index: int) -> Event:
        """Event at 1-based ``index``."""
        if not 1 <= index <= len(self.events):
            raise InputError(f"event index {index} outside 1..{len(self.events)}")
        return self.events[index - 1]


@dataclass(frozen=True)
class Case:
    """A case: its id and its events in stream order."""

    case_id: str
    events: tuple[Event, ...]

    @property
    def trace(self) -> tuple[str, ...]:
        return tuple(e.activity for e in self.events)

    def __len__(self) -> int:
        return len(self.events)


def build_uncorrelated_log(
    records: Iterable[tuple[str, int, Mapping[str, Scalar] | None]],
) -> UncorrelatedLog:
    """Build a stream from (activity, timestamp, attributes) records.

    Records are stably sorted by timestamp, so same-minute events keep their
    input order, then indexed 1..n.  Empty input, a missing activity, or a
    non-integer timestamp raise InputError.
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
    staged.sort()  # the positions are unique, so no tuple is compared past its position
    return _number_events(staged)


def _number_events(
    staged: Sequence[tuple], attribute_names: tuple[str, ...] = ()
) -> UncorrelatedLog:
    """The stream of checked records, already in stream order, indexed 1..n.

    Each record is ``(timestamp, key, activity, attributes, ...)``; its
    attributes dict becomes the event's own, uncopied.
    """
    return UncorrelatedLog(
        tuple([Event(i, r[2], r[0], r[3]) for i, r in enumerate(staged, 1)]), attribute_names
    )


@dataclass(frozen=True)
class EventLog:
    """A correlated log: the base stream plus a total assignment index -> case id.

    The assignment must cover every event exactly once (it is a partition of
    the stream).  Use :func:`correlate` to construct one with validation; one
    built directly is not checked, and holds the assignment it is given.
    Either way the cases are grouped only when first read.
    """

    base: UncorrelatedLog
    assignment: Mapping[int, str]

    @cached_property
    def cases(self) -> tuple[Case, ...]:
        """Cases in opening order (order of their first event)."""
        grouped: dict[str, list[Event]] = {}
        for e in self.base.events:
            grouped.setdefault(self.assignment[e.index], []).append(e)
        return tuple(Case(cid, tuple(evs)) for cid, evs in grouped.items())

    @cached_property
    def case_ids(self) -> tuple[str, ...]:
        return tuple(c.case_id for c in self.cases)

    def case(self, case_id: str) -> Case:
        for c in self.cases:
            if c.case_id == case_id:
                return c
        raise KeyError(case_id)

    def __len__(self) -> int:
        return len(self.base)


def correlate(base: UncorrelatedLog, assignment: Mapping[int, str]) -> EventLog:
    """Build an EventLog, checking that ``assignment`` partitions the stream."""
    missing = [e.index for e in base.events if e.index not in assignment]
    if missing:
        raise InputError(f"assignment misses event indices {missing[:5]}")
    indices = {e.index for e in base.events}
    # in the assignment's order: unknown keys of different types need not compare
    extra = list(islice((key for key in assignment if key not in indices), 5))
    if extra:
        raise InputError(f"assignment names unknown event indices {extra}")
    for idx, cid in assignment.items():
        if not isinstance(cid, str) or not cid:
            raise InputError(f"event {idx}: case id must be a non-empty string")
    return EventLog(base=base, assignment=dict(assignment))


def elapsed_time(case: Case, position: int) -> int:
    """Minutes between the event at 1-based ``position`` and its predecessor.

    The first event of a case has no predecessor; its elapsed time is 0.
    """
    if not 1 <= position <= len(case.events):
        raise InputError(f"position {position} outside case {case.case_id}")
    if position == 1:
        return 0
    return case.events[position - 1].timestamp - case.events[position - 2].timestamp


def cycle_time(case: Case) -> int:
    """Minutes between the first and the last event of the case."""
    return case.events[-1].timestamp - case.events[0].timestamp


def strip_case_ids(log: EventLog) -> UncorrelatedLog:
    """Forget the case structure; the base stream is returned unchanged."""
    return log.base
