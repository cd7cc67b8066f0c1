"""Log-to-log similarity and timing deviation measures."""

import time
import tracemalloc

import numpy as np
import pytest

from caseweave import (
    InputError,
    build_uncorrelated_log,
    correlate,
    edit_distance_ins_del,
    evaluate,
    l2l_2gram,
    l2l_3gram,
    l2l_case,
    l2l_first,
    l2l_freq,
    l2l_trace,
    min_matching_cost,
    smape_ct,
    smape_et,
)
from caseweave import measures
from caseweave.measures import MeasureReport, _distance_table

from conftest import PAIRED_L, make_paired_logs, seeded_rng
from oracles import (
    OracleBudget,
    brute_force_matching_cost,
    brute_force_transport_cost,
    case_measures_reference,
    edit_distance_reference,
)


def test_edit_distance_examples():
    assert edit_distance_ins_del(("a", "b", "c"), ("a", "b", "c")) == 0
    assert edit_distance_ins_del(("a", "b", "c"), ("a", "b")) == 1
    assert edit_distance_ins_del((), ("a", "b", "c")) == 3
    assert edit_distance_ins_del(("a", "b", "c"), ("b", "c", "d")) == 2
    assert edit_distance_ins_del(("a", "b"), ("b", "a")) == 2


def test_edit_distance_matches_the_reference_dp():
    for trial in range(60):
        rng = seeded_rng("edit", trial)
        a = tuple(rng.choice("abc") for _ in range(rng.randint(0, 6)))
        b = tuple(rng.choice("abc") for _ in range(rng.randint(0, 6)))
        assert edit_distance_ins_del(a, b) == edit_distance_reference(a, b)


def _random_trace(rng, alphabet: str, low: int, high: int) -> tuple[str, ...]:
    return tuple(rng.choice(alphabet) for _ in range(rng.randint(low, high)))


def test_distance_kernel_matches_the_reference_past_one_machine_word():
    for trial in range(120):
        rng = seeded_rng("kernel", trial)
        alphabet = "abcdefgh"[: rng.randint(1, 8)]
        a = _random_trace(rng, alphabet, 0, 100)
        b = _random_trace(rng, alphabet, 0, 100)
        if a and trial % 3 == 0:  # a symbol that only the row trace holds
            k = rng.randrange(len(a) + 1)
            a = a[:k] + ("z",) + a[k:]
        expected = edit_distance_reference(a, b)
        assert edit_distance_ins_del(a, b) == expected, trial
        assert _distance_table([a], [b])[0, 0] == expected, trial
    for trial in range(10):
        rng = seeded_rng("kernel-table", trial)
        alphabet = "abcdefgh"[: rng.randint(1, 8)]
        rows = [_random_trace(rng, alphabet + "z", 0, 70) for _ in range(3)]
        cols = [_random_trace(rng, alphabet, 0, 70) for _ in range(4)]
        table = _distance_table(rows, cols)
        assert table.shape == (3, 4)
        for i, row in enumerate(rows):
            for j, col in enumerate(cols):
                assert table[i, j] == edit_distance_reference(row, col), (trial, i, j)
    # every column is packed into one int: empty traces, tables with no row or
    # no column, one-symbol alphabets, and row symbols that no column holds
    seen = set()
    for trial in range(80):
        rng = seeded_rng("packed", trial)
        alphabet = "abcd"[: rng.randint(1, 4)]
        rows = [_random_trace(rng, alphabet + "z", 0, 12) for _ in range(rng.randint(0, 5))]
        cols = [_random_trace(rng, alphabet, 0, 12) for _ in range(rng.randint(0, 7))]
        table = _distance_table(rows, cols)
        assert table.shape == (len(rows), len(cols)) and table.dtype == np.int64
        seen |= {("no row", not rows), ("no column", not cols), ("one symbol", len(alphabet) == 1)}
        for i, row in enumerate(rows):
            for j, col in enumerate(cols):
                assert table[i, j] == edit_distance_reference(row, col), (trial, i, j)
                seen |= {("empty row", not row), ("empty column", not col),
                         ("row-only symbol", "z" in row)}
    assert {kind for kind, hit in seen if hit} == {kind for kind, _ in seen}, seen
    # twenty long columns: each spans several machine words, the packed int thousands of bits
    for trial in range(2):
        rng = seeded_rng("packed-long", trial)
        alphabet = "abcdef"[: rng.randint(2, 6)]
        rows = [_random_trace(rng, alphabet + "z", 90, 130) for _ in range(3)] + [()]
        cols = [_random_trace(rng, alphabet, 100, 130) for _ in range(20)] + [()]
        assert sum(map(len, cols)) > 2000
        table = _distance_table(rows, cols)
        for i, row in enumerate(rows):
            for j, col in enumerate(cols):
                assert table[i, j] == edit_distance_reference(row, col), (trial, i, j)


def test_a_carry_out_of_one_column_stays_in_its_guard_bit():
    # Row "a" against column "a" makes V + U carry out of the column's top
    # bit; without the guard bit the carry would clear the next column's
    # lowest bit and add 2 to its distance.
    assert _distance_table([("a",)], [("a",), ("a", "b")]).tolist() == [[0, 1]]


def _random_log_pair(rng):
    """Two random correlations of one random stream over a small alphabet."""
    size = rng.randint(1, 24)
    stream = build_uncorrelated_log(
        [(rng.choice("ab"), minute, None) for minute in range(size)]
    )
    logs = []
    for _ in range(2):
        width = rng.randint(1, 6)
        logs.append(
            correlate(stream, {e.index: f"c{rng.randrange(width)}" for e in stream.events})
        )
    return logs


def test_l2l_trace_matches_the_per_pair_minimum_with_ties():
    ties_between_lengths = 0
    for trial in range(150):
        original, generated = _random_log_pair(seeded_rng("l2l-trace", trial))
        originals = sorted({c.trace for c in original.cases})
        partners = sorted({c.trace for c in generated.cases})
        total_distance = total_length = 0
        for trace in originals:
            distances = [edit_distance_reference(trace, other) for other in partners]
            distance, partner = min(zip(distances, partners))
            nearest = [p for d, p in zip(distances, partners) if d == distance]
            ties_between_lengths += len({len(p) for p in nearest}) > 1
            total_distance += distance
            total_length += len(trace) + len(partner)
        assert l2l_trace(original, generated) == 1.0 - total_distance / total_length, trial
    assert ties_between_lengths > 0  # the tie-break decides the denominator


def test_evaluate_reads_both_trace_measures_from_one_table(monkeypatch):
    tables = []

    def counted(rows, cols):
        tables.append((list(rows), list(cols)))
        return _distance_table(rows, cols)

    for trial in range(150):
        # the same pairs as the tie test above, so ties between partners come up
        original, generated = _random_log_pair(seeded_rng("l2l-trace", trial))
        trace, freq = l2l_trace(original, generated), l2l_freq(original, generated)
        monkeypatch.setattr(measures, "_distance_table", counted)
        tables.clear()
        report = evaluate(original, generated)
        monkeypatch.undo()
        assert (report.l2l_trace, report.l2l_freq) == (trace, freq), trial
        assert len(tables) == 1, trial
    # a log against itself needs no row: every trace is its own partner
    tables.clear()
    monkeypatch.setattr(measures, "_distance_table", counted)
    assert evaluate(original, original).l2l_freq == 1.0
    assert tables[0][0] == []


def _repeated_traces(rng, pool):
    """1-4 variants from ``pool``, each repeated 2-30 times, in random order."""
    traces = [v for v in rng.sample(pool, rng.randint(1, 4)) for _ in range(rng.randint(2, 30))]
    rng.shuffle(traces)
    return traces


def test_matching_cost_matches_the_transport_oracle_on_repeated_traces():
    checked = largest = 0
    for trial in range(100):
        rng = seeded_rng("transport", trial)
        pool = [_random_trace(rng, "abc", 1, 5) for _ in range(6)]
        xs, ys = _repeated_traces(rng, pool), _repeated_traces(rng, pool)
        try:
            expected = brute_force_transport_cost(xs, ys)
        except OracleBudget:
            continue
        assert min_matching_cost(xs, ys) == expected, trial
        checked += 1
        largest = max(largest, len(xs), len(ys))
    assert checked >= 75
    assert largest >= 80


def test_freq_matches_the_transport_oracle_on_regrouped_cases():
    """The generated log splits or merges the original cases per variant."""
    checked = 0
    for trial in range(60):
        rng = seeded_rng("transport-freq", trial)
        pool = [_random_trace(rng, "abc", 1, 5) for _ in range(6)]
        cases = _repeated_traces(rng, pool)
        events, truth = [], {}
        for number, trace in enumerate(cases):
            for activity in trace:
                events.append((activity, len(events), None))
                truth[len(events)] = f"c{number}"
        stream = build_uncorrelated_log(events)
        # per variant: keep its cases whole, split them at k, or merge each
        # with the next case in the stream (which then closes the group)
        action = {v: rng.choice(["keep", "split", "merge"]) for v in pool}
        cut = {v: rng.randint(1, len(v)) for v in pool}
        assignment, index, group, merging = {}, 1, 0, False
        for trace in cases:
            for position in range(len(trace)):
                if action[trace] == "split" and position == cut[trace]:
                    group += 1
                assignment[index] = f"g{group}"
                index += 1
            merging = action[trace] == "merge" and not merging
            if not merging:
                group += 1
        original, generated = correlate(stream, truth), correlate(stream, assignment)
        try:
            cost = brute_force_transport_cost(
                [c.trace for c in original.cases], [c.trace for c in generated.cases]
            )
        except OracleBudget:
            continue
        expected = max(0.0, 1.0 - cost / len(stream.events))
        assert l2l_freq(original, generated) == expected, trial
        checked += 1
    assert checked >= 35


def test_matching_scales_to_ten_thousand_cases_over_few_variants():
    rng = seeded_rng("scale")
    variants = sorted({_random_trace(rng, "abcdef", 3, 12) for _ in range(25)})
    original = [rng.choice(variants) for _ in range(10_000)]
    x, y = variants[0], variants[1]
    k = 250
    moved = [i for i, trace in enumerate(original) if trace == x][:k]
    assert len(moved) == k
    generated = list(original)
    for i in moved:
        generated[i] = y
    rng.shuffle(generated)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        cost = min_matching_cost(original, generated)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the k moved cases must go from x to y; every other case matches itself
    assert cost == k * edit_distance_reference(x, y) > 0
    assert elapsed < 2.0
    assert peak < 50 * 2**20


def test_matching_pads_shorter_sides_with_empty_traces():
    assert min_matching_cost([], []) == 0
    assert min_matching_cost([("a", "b")], []) == 2
    assert min_matching_cost([("a",), ("b",)], [("a",)]) == 1
    assert min_matching_cost([("a", "b"), ("c",)], [("c",), ("a", "b")]) == 0


def test_matching_matches_the_permutation_scan():
    for trial in range(30):
        rng = seeded_rng("match", trial)
        xs = [
            tuple(rng.choice("abc") for _ in range(rng.randint(0, 4)))
            for _ in range(rng.randint(0, 5))
        ]
        ys = [
            tuple(rng.choice("abc") for _ in range(rng.randint(0, 4)))
            for _ in range(rng.randint(0, 5))
        ]
        assert min_matching_cost(xs, ys) == brute_force_matching_cost(xs, ys)


def test_paired_log_values(paired_logs):
    original, generated = paired_logs
    assert l2l_trace(original, generated) == 1.0  # same two distinct traces
    assert l2l_freq(original, generated) == pytest.approx(7 / 9)
    assert l2l_first(original, generated) == 0.5
    assert l2l_2gram(original, generated) == pytest.approx(1 / 6)
    assert l2l_3gram(original, generated) == 0.0
    assert l2l_case(original, generated) == 0.0
    assert smape_et(original, generated) == pytest.approx(0.347852, abs=1e-6)
    assert smape_ct(original, generated) == pytest.approx(0.248033, abs=1e-6)


def test_the_case_measures_match_their_definitions_on_random_correlations():
    functions = {
        "l2l_first": l2l_first, "l2l_2gram": l2l_2gram, "l2l_3gram": l2l_3gram,
        "l2l_case": l2l_case, "smape_et": smape_et, "smape_ct": smape_ct,
    }
    for trial in range(500):
        rng = seeded_rng("case measures", trial)
        size = rng.randint(1, 20)
        stream = build_uncorrelated_log(
            [(rng.choice("ABC"), rng.randint(0, 30), None) for _ in range(size)]
        )
        cases = rng.randint(1, size)
        original = correlate(stream, {i: f"c{rng.randrange(cases)}" for i in range(1, size + 1)})
        if rng.random() < 0.2:
            generated = original
        else:
            cases = rng.randint(1, size)
            generated = correlate(stream, {i: f"d{rng.randrange(cases)}" for i in range(1, size + 1)})
        want = case_measures_reference(original, generated)
        report = evaluate(original, generated)
        for name, function in functions.items():
            assert getattr(report, name) == want[name], (trial, name)
            assert function(original, generated) == want[name], (trial, name)


def test_identical_logs_score_perfect_on_well_formed_cases(paired_logs):
    original, _ = paired_logs  # every case has three events
    report = evaluate(original, original)
    assert report.l2l_trace == 1.0
    assert report.l2l_freq == 1.0
    assert report.l2l_first == 1.0
    assert report.l2l_2gram == 1.0
    assert report.l2l_3gram == 1.0
    assert report.l2l_case == 1.0
    assert report.smape_et == 0.0
    assert report.smape_ct == 0.0
    assert report.notes == ()


def test_short_cases_drag_down_the_ngram_measures():
    stream = build_uncorrelated_log([("A", 0, None), ("B", 5, None), ("A", 9, None)])
    log = correlate(stream, {1: "c1", 2: "c1", 3: "c2"})
    # the singleton case has no 2-gram window yet stays in the denominator
    assert l2l_2gram(log, log) == 0.5
    assert l2l_3gram(log, log) == 0.0


def test_freq_clamps_at_zero(paired_logs):
    original, _ = paired_logs
    lumped = correlate(original.base, {i: "c1" for i in PAIRED_L})
    assert l2l_freq(original, lumped) == 0.0


def test_zero_durations_do_not_divide_by_zero():
    stream = build_uncorrelated_log([("A", 0, None), ("B", 0, None)])
    log = correlate(stream, {1: "c1", 2: "c1"})
    assert smape_et(log, log) == 0.0
    assert smape_ct(log, log) == 0.0


def test_evaluate_requires_the_same_base(paired_logs):
    original, generated = paired_logs
    other = correlate(
        build_uncorrelated_log([("A", 0, None), ("B", 5, None)]), {1: "c1", 2: "c1"}
    )
    with pytest.raises(InputError):
        evaluate(original, other)


def test_evaluate_notes_case_count_mismatch(paired_logs):
    original, _ = paired_logs
    merged = correlate(
        original.base, {i: ("c1" if v in ("c1", "c2") else "c2") for i, v in PAIRED_L.items()}
    )
    report = evaluate(original, merged)
    assert report.notes and "case counts differ" in report.notes[0]


def test_report_shape(paired_logs):
    original, generated = paired_logs
    report = evaluate(original, generated)
    assert tuple(report.as_dict()) == MeasureReport.FIELDS
    text = report.to_text()
    for name in MeasureReport.FIELDS:
        assert name in text


def test_case_measure_counts_exact_reproductions(paired_logs):
    original, generated = paired_logs
    assert l2l_case(original, original) == 1.0
    # flipping one event across cases breaks exactly two of three cases
    flipped = dict(PAIRED_L)
    flipped[5], flipped[6] = flipped[6], flipped[5]
    assert l2l_case(original, correlate(original.base, flipped)) == pytest.approx(1 / 3)


def test_first_event_pairing_ignores_unmatched_openers(paired_logs):
    original, _ = paired_logs
    # give the partner log different opening events for two cases
    shifted = {1: "x1", 2: "x1", 3: "x2", 4: "x2", 5: "x3", 6: "x3", 7: "x1", 8: "x2", 9: "x3"}
    partner = correlate(original.base, shifted)
    # only original c1 (opens at e1) finds a partner opening at e1
    assert l2l_first(original, partner) == pytest.approx(1 / 6)
    assert 0.0 <= smape_ct(original, partner) <= 1.0
