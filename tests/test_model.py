"""Event stream and case partition plumbing."""

import random

import pytest

from caseweave import (
    Event,
    InputError,
    build_uncorrelated_log,
    correlate,
    cycle_time,
    elapsed_time,
    strip_case_ids,
)
from caseweave.model import UncorrelatedLog

from conftest import DEMO_TRUTH, DEMO_X, make_demo_stream, seeded_rng
from oracles import build_uncorrelated_log_reference


def test_build_orders_by_timestamp_then_input_position():
    stream = build_uncorrelated_log(
        [("B", 20, None), ("A", 10, None), ("C", 10, {"k": 1}), ("D", 5, None)]
    )
    assert [e.activity for e in stream.events] == ["D", "A", "C", "B"]
    assert [e.index for e in stream.events] == [1, 2, 3, 4]
    assert stream.events[1].attributes == {}
    assert stream.events[2].attributes == {"k": 1}


def test_attribute_names_leave_stream_equality_alone():
    stream = make_demo_stream()
    named = UncorrelatedLog(stream.events, ("Note",))
    assert named == stream and hash(named) == hash(stream)
    assert correlate(named, DEMO_TRUTH) == correlate(stream, DEMO_TRUTH)


def test_build_index_lookup_and_len():
    stream = make_demo_stream()
    assert len(stream) == 8
    assert stream.event(3).activity == "B"
    with pytest.raises(InputError):
        stream.event(0)
    with pytest.raises(InputError):
        stream.event(9)


def test_build_rejects_degenerate_input():
    with pytest.raises(InputError):
        build_uncorrelated_log([])
    with pytest.raises(InputError):
        build_uncorrelated_log([("", 0, None)])
    with pytest.raises(InputError):
        build_uncorrelated_log([("A", "noon", None)])  # type: ignore[list-item]


def test_events_are_frozen_and_hashable():
    stream = make_demo_stream()
    event = stream.events[0]
    assert {event: 1}[event] == 1
    with pytest.raises(AttributeError):
        event.activity = "Z"  # type: ignore[misc]


def test_correlate_builds_cases_in_opening_order():
    log = correlate(make_demo_stream(), DEMO_X)
    assert log.case_ids == ("c1", "c2", "c3")
    assert log.case("c1").trace == ("A", "B", "C")
    assert log.case("c2").trace == ("A", "B", "C")
    assert log.case("c3").trace == ("A", "D")
    assert [e.index for e in log.case("c3").events] == [4, 8]
    assert len(log) == 8


def test_correlate_requires_a_partition():
    stream = make_demo_stream()
    missing = dict(DEMO_X)
    del missing[5]
    with pytest.raises(InputError):
        correlate(stream, missing)
    extra = dict(DEMO_X)
    extra[9] = "c9"
    with pytest.raises(InputError):
        correlate(stream, extra)
    blank = dict(DEMO_X)
    blank[5] = ""
    with pytest.raises(InputError):
        correlate(stream, blank)


def test_correlate_names_unknown_keys_of_mixed_types():
    stream = build_uncorrelated_log([("A", 0, None), ("B", 5, None)])
    # sorting these keys would compare str with float
    with pytest.raises(InputError, match=r"unknown event indices \['x', 3\.5\]$"):
        correlate(stream, {1: "c1", 2: "c1", "x": "c2", 3.5: "c1"})
    many = {1: "c1", 2: "c1", **{f"k{n}": "c1" for n in range(6)}, 9.5: "c2"}
    with pytest.raises(InputError, match=r"\['k0', 'k1', 'k2', 'k3', 'k4'\]$"):
        correlate(stream, many)


def test_elapsed_time_is_gap_to_predecessor():
    log = correlate(make_demo_stream(), DEMO_TRUTH)
    c1 = log.case("c1")  # A@0, B@60, C@180
    assert [elapsed_time(c1, p) for p in (1, 2, 3)] == [0, 60, 120]
    assert cycle_time(c1) == 180
    with pytest.raises(InputError):
        elapsed_time(c1, 0)
    with pytest.raises(InputError):
        elapsed_time(c1, 4)


def test_strip_returns_the_shared_base():
    stream = make_demo_stream()
    log = correlate(stream, DEMO_X)
    assert strip_case_ids(log) is stream


def test_random_partitions_round_trip():
    # Any total assignment over the indices must correlate and decompose back.
    stream = make_demo_stream()
    for trial in range(25):
        rng = seeded_rng("partition", trial)
        assignment = {
            e.index: f"c{rng.randint(1, 4)}" for e in stream.events
        }
        log = correlate(stream, assignment)
        seen = {}
        for case in log.cases:
            for event in case.events:
                seen[event.index] = case.case_id
            # events inside a case keep stream order
            indices = [e.index for e in case.events]
            assert indices == sorted(indices)
        assert seen == assignment
        assert set(log.case_ids) == set(assignment.values())


def test_case_order_within_case_follows_the_stream():
    stream = build_uncorrelated_log(
        [("A", 0, None), ("B", 0, None), ("C", 0, None)]
    )
    log = correlate(stream, {1: "x", 2: "x", 3: "x"})
    assert log.case("x").trace == ("A", "B", "C")


def test_event_equality_includes_attributes():
    a = Event(1, "A", 0, {"k": "v"})
    b = Event(1, "A", 0, {"k": "w"})
    assert a != b
    assert hash(a) == hash(b)  # hash ignores attributes, equality does not


def test_correlate_copies_the_assignment():
    stream = make_demo_stream()
    assignment = dict(DEMO_X)
    log = correlate(stream, assignment)
    assignment[1] = "mutated"
    assert log.assignment[1] == "c1"


def test_shuffled_input_yields_identical_stream():
    records = [(act, ts, dict(attrs)) for act, ts, attrs in (
        ("A", 5, {}), ("B", 3, {}), ("C", 5, {}), ("D", 1, {})
    )]
    baseline = build_uncorrelated_log(records)
    for trial in range(10):
        rng = random.Random(trial)
        mixed = records[:]
        rng.shuffle(mixed)
        # ties broken by input position, so only permutations preserving the
        # relative order of equal timestamps reproduce the baseline
        if [r for r in mixed if r[1] == 5] == [("A", 5, {}), ("C", 5, {})]:
            assert build_uncorrelated_log(mixed).events == baseline.events


def _outcome(build, records):
    try:
        return build(iter(records)).events
    except InputError as exc:
        return f"InputError: {exc}"


def test_build_matches_the_reference_on_random_records():
    bad_records = [
        5, None, ("A", 1), ("A", 1, None, None),  # records that do not unpack
        ("", 3, None), (None, 3, None), (7, 3, None),  # missing activities
        ("A", True, None), ("A", "noon", None), ("A", 1.0, None), ("A", None, None),
    ]
    errors = set()
    for trial in range(300):
        rng = seeded_rng("build-reference", trial)
        records = [
            (
                rng.choice("ABCD"),
                rng.randint(0, 6),  # few minutes, so most of them are shared
                rng.choice([None, {}, {"k": rng.randint(0, 2)}, {"k": "v", "n": 1}]),
            )
            for _ in range(rng.randint(0, 30))
        ]
        if rng.random() < 0.4:  # one or two bad records: the first one is named
            for _ in range(rng.randint(1, 2)):
                records.insert(rng.randint(0, len(records)), rng.choice(bad_records))
        got = _outcome(build_uncorrelated_log, records)
        assert got == _outcome(build_uncorrelated_log_reference, records), trial
        if isinstance(got, str):
            errors.add(got.split(": ", 2)[-1])
    assert errors == {
        "empty log",
        "expected (activity, timestamp, attributes)",
        "missing activity",
        "timestamp must be an integer minute",
    }
