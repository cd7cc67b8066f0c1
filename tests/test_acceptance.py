"""Acceptance gate for the event-case correlation package.

One test per shipping criterion, in order, so that ``pytest -v`` prints a
single pass or fail line for each. Every tolerance and time budget is pinned
here; nothing below is allowed to loosen at runtime.
"""

import random
import time
from importlib import resources

import pytest

from caseweave import (
    AnnealerConfig,
    Case,
    RuleSet,
    SimulationConfig,
    StreamDecoder,
    align_trace,
    duration_means,
    evaluate_individual,
    initial_individual,
    l2l_2gram,
    l2l_3gram,
    l2l_case,
    l2l_first,
    l2l_freq,
    l2l_trace,
    min_matching_cost,
    neighbor,
    parse_rules,
    pretty_rules,
    score,
    simulate_log,
    smape_ct,
    smape_et,
    strip_case_ids,
)
from caseweave.annealer import run as anneal
from caseweave.rules import Comparison

from conftest import (
    DEMO_X,
    decorate_with_case_attrs,
    make_demo_net,
    make_demo_rules,
    make_demo_stream,
    make_loop_net,
    make_paired_logs,
    seeded_rng,
)
from oracles import (
    OracleBudget,
    brute_force_alignment_cost,
    brute_force_matching_cost,
    random_structured_net,
    random_trace,
)


def _assert_partition(stream, log):
    # totality: every event index is assigned exactly once
    assert set(log.assignment) == {e.index for e in stream.events}
    spread = sorted(e.index for case in log.cases for e in case.events)
    assert spread == [e.index for e in stream.events]
    # surjectivity: every named case holds at least one event
    assert set(log.case_ids) == set(log.assignment.values())
    assert all(case.events for case in log.cases)


def test_c1_running_example_energies():
    start = time.perf_counter()
    stream = make_demo_stream()
    individual = evaluate_individual(
        stream, dict(DEMO_X), make_demo_net(), make_demo_rules()
    )
    assert individual.fa == 1
    assert abs(individual.fr - 1 / 6) <= 1e-9
    means = duration_means(individual.log)
    assert means == {"B": 75.0, "C": 120.0, "D": 180.0}
    assert abs(individual.ft - 90.0) <= 1e-6
    assert time.perf_counter() - start < 1.0


def test_c2_decoder_score_table():
    stream = make_demo_stream()
    rules = make_demo_rules()
    e3, e8 = stream.event(3), stream.event(8)
    # third event: strict preference for the case opened by the first one
    sigma1 = Case("c1", (stream.event(1),))
    sigma2 = Case("c2", (stream.event(2),))
    assert score(rules, e3, sigma1) == 3
    assert score(rules, e3, sigma2) == 1
    assert score(rules, e3, sigma1) > score(rules, e3, sigma2)
    # eighth event: an exact 1/1 tie between the second and third case
    sigma1_full = Case("c1", (stream.event(1), stream.event(3), stream.event(6)))
    sigma2_full = Case("c2", (stream.event(2), stream.event(5), stream.event(7)))
    sigma3_full = Case("c3", (stream.event(4),))
    assert score(rules, e8, sigma1_full) == 0
    assert score(rules, e8, sigma2_full) == 1
    assert score(rules, e8, sigma3_full) == 1
    # the margin above forces the third event into the first case, any seed
    net = make_demo_net()
    for seed in range(20):
        decoded = StreamDecoder(net, rules, random.Random(seed)).run(stream.events)
        assert decoded[3] == decoded[1] == "c1"
        assert decoded[8] in {"c2", "c3"}


def test_c3_similarity_and_timing_measures():
    start = time.perf_counter()
    original, generated = make_paired_logs()
    assert abs(l2l_freq(original, generated) - 0.78) <= 0.005
    assert l2l_first(original, generated) == 0.5
    assert abs(l2l_2gram(original, generated) - 0.167) <= 0.001
    assert l2l_3gram(original, generated) == 0.0
    assert l2l_case(original, generated) == 0.0
    assert abs(smape_et(original, generated) - 0.35) <= 0.01
    assert abs(smape_ct(original, generated) - 0.25) <= 0.01
    assert l2l_trace(original, generated) == 1.0
    assert time.perf_counter() - start < 1.0


def test_c4_alignment_matches_brute_force_on_random_nets():
    start = time.perf_counter()
    checked = 0
    trial = 0
    while checked < 200:
        assert trial < 600, "oracle skipped too many instances"
        rng = seeded_rng("acceptance-alignment", trial)
        trial += 1
        net = random_structured_net(rng)  # at most 8 transitions
        trace = random_trace(net, rng)  # at most 6 symbols
        try:
            want = brute_force_alignment_cost(net, trace)
        except OracleBudget:
            continue
        assert align_trace(net, trace).cost == want, (trial, trace)
        checked += 1
    assert checked >= 200
    assert time.perf_counter() - start < 60.0


def test_c5_matching_cost_matches_brute_force():
    start = time.perf_counter()
    for trial in range(120):
        rng = seeded_rng("acceptance-matching", trial)
        xs = [
            tuple(rng.choice("abc") for _ in range(rng.randint(0, 5)))
            for _ in range(rng.randint(0, 6))
        ]
        ys = [
            tuple(rng.choice("abc") for _ in range(rng.randint(0, 5)))
            for _ in range(rng.randint(0, 6))
        ]
        assert min_matching_cost(xs, ys) == brute_force_matching_cost(xs, ys), trial
    assert time.perf_counter() - start < 30.0


def test_c6_partition_invariants_monotonicity_and_determinism():
    loop_net = make_loop_net()
    rules = RuleSet(rules=())
    sim = simulate_log(loop_net, SimulationConfig(cases=20, inter_arrival=0.25, seed=77))
    stream = strip_case_ids(sim)
    for seed in range(50):
        config = AnnealerConfig(population=2, s_max=3, seed=seed)
        result = anneal(stream, loop_net, rules, config)
        _assert_partition(stream, result.best.log)
        triples = [
            (r.global_best_fa, r.global_best_fr, r.global_best_ft)
            for r in result.records
        ]
        for before, after in zip(triples, triples[1:]):
            assert after <= before  # lexicographic, never worsens
        assert result.best.energies == triples[-1]
        # every individual the search can produce stays a valid partition
        rng = random.Random(seed)
        current = initial_individual(stream, loop_net, rules, rng)
        _assert_partition(stream, current.log)
        for level in (1, 2, 3):
            proposal = neighbor(stream, current, level, loop_net, rules, rng, config)
            _assert_partition(stream, evaluate_individual(
                stream, proposal, loop_net, rules
            ).log)
    for seed in (0, 5):
        config = AnnealerConfig(population=2, s_max=3, seed=seed)
        first = anneal(stream, loop_net, rules, config)
        second = anneal(stream, loop_net, rules, config)
        assert first.records == second.records
        assert first.best.log.assignment == second.best.log.assignment


def _case_attrs(case_id):
    serial = int(case_id[1:])
    return {
        "Customer": f"u{serial}",
        "Region": f"r{serial % 5}",
        "Batch": f"b{serial % 7}",
    }


_CASE_RULES = parse_rules(
    "e[i].Customer == e[i-1].Customer\n"
    "e[i].Region == e[i-1].Region\n"
    "e[i].Batch == e[i-1].Batch\n"
)


def _correlated_quality(net, cases, inter_arrival, rules, seed, population, s_max):
    sim = simulate_log(
        net, SimulationConfig(cases=cases, inter_arrival=inter_arrival, seed=9000 + seed)
    )
    truth = decorate_with_case_attrs(sim, _case_attrs)
    stream = strip_case_ids(truth)
    config = AnnealerConfig(population=population, s_max=s_max, seed=seed)
    result = anneal(stream, net, rules, config)
    return l2l_case(truth, result.best.log)


def test_c7_constraints_lift_correlation_quality():
    start = time.perf_counter()
    loop_net = make_loop_net()
    with_rules = []
    without = []
    for seed in range(10):  # 100 cases arriving at a quarter of the cycle time
        with_rules.append(
            _correlated_quality(loop_net, 100, 0.25, _CASE_RULES, seed, 2, 3)
        )
        without.append(
            _correlated_quality(loop_net, 100, 0.25, RuleSet(rules=()), seed, 2, 3)
        )
    gain = sum(with_rules) / 10 - sum(without) / 10
    assert gain >= 0.05, (with_rules, without)
    assert time.perf_counter() - start < 600.0


def test_c8_quality_degrades_with_work_in_progress():
    start = time.perf_counter()
    loop_net = make_loop_net()
    relaxed = []
    crowded = []
    for seed in range(10):
        # 100 cases spaced a full cycle time apart vs 300 cases at an eighth
        relaxed.append(
            _correlated_quality(loop_net, 100, 1.0, RuleSet(rules=()), seed, 1, 2)
        )
        crowded.append(
            _correlated_quality(loop_net, 300, 0.125, RuleSet(rules=()), seed, 1, 2)
        )
    assert sum(relaxed) / 10 >= sum(crowded) / 10, (relaxed, crowded)
    assert time.perf_counter() - start < 600.0


def test_c9_bundled_correlation_rules_parse():
    text = resources.files("caseweave").joinpath("data/bpic17_rules.txt").read_text()
    rules = parse_rules(text)
    assert len(rules.rules) == 10
    assert [r.label for r in rules.rules] == [f"C{k}" for k in range(1, 11)]
    # the offer-to-origin rule compares attributes across two events
    offer = rules.rules[3]
    assert offer.label == "C4"
    assert offer.consequence == Comparison("i", "OfferID", "==", None, "EventId")
    assert parse_rules(pretty_rules(rules)) == rules
