"""Token game, silent closure, validation, and trace alignment."""

import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import caseweave.wfnet as wfnet_module
from caseweave import (
    Alignment,
    AlignmentCache,
    AnnealerConfig,
    BudgetExceeded,
    InputError,
    RuleSet,
    Transition,
    WorkflowNet,
    advance,
    align_trace,
    build_uncorrelated_log,
    correlate,
    enabled_activities,
    infer_start_activity,
    is_final,
    log_alignment_cost,
    run,
    validate_net,
)

from conftest import (
    DEMO_TRUTH,
    DEMO_X,
    make_demo_net,
    make_demo_stream,
    make_loop_net,
    seeded_rng,
)
from oracles import (
    OracleBudget,
    _enabled,
    _fire,
    astar_align_reference,
    brute_force_alignment_cost,
    random_structured_net,
    random_trace,
    reachable_markings,
    sample_run_projection,
    silent_closure_reference,
)


def replay_alignment(net: WorkflowNet, trace: tuple[str, ...], alignment: Alignment) -> None:
    """An alignment must replay to a final marking while consuming the trace.

    Moves fire on the reference token game, not on the net's marking table.
    """
    marking = {net.input_place: 1}
    position = 0
    visible_model = 0
    log_moves = 0
    for move in alignment.moves:
        if move.kind in ("sync", "model"):
            assert move.transition is not None
            assert _enabled(net, marking, move.transition)
            marking = _fire(net, marking, move.transition)
        if move.kind == "sync":
            assert trace[position] == move.activity
            assert net.transition(move.transition).label == move.activity
            position += 1
        elif move.kind == "log":
            assert trace[position] == move.activity
            position += 1
            log_moves += 1
        elif net.transition(move.transition).label is not None:
            visible_model += 1
    assert position == len(trace)
    assert is_final(net, marking)
    assert alignment.cost == visible_model + log_moves


def test_successors_match_the_reference_token_game_on_random_nets(demo_net):
    assert demo_net.initial is demo_net.node({"q1": 1})
    assert demo_net.initial.successors() == ((demo_net.transition("t1"), demo_net.node({"q2": 1})),)
    checked = 0
    for trial in range(40):
        rng = seeded_rng("wfnet-successors", trial)
        net = random_structured_net(rng)
        try:
            markings = reachable_markings(net)
        except OracleBudget:
            continue
        for marking in markings:
            node = net.node(marking)
            want = [
                (t, net.node(_fire(net, marking, t.tid)))
                for t in net.transitions
                if _enabled(net, marking, t.tid)
            ]
            assert list(node.successors()) == want, (trial, marking)
            for place in net.places:
                assert node.holds(place) == (marking.get(place, 0) > 0), (trial, marking, place)
        checked += 1
    assert checked >= 30


def test_node_ignores_zero_counts_and_counts_more_than_one_token(demo_net):
    assert demo_net.node({"q4": 1, "q2": 0}) is demo_net.node({"q4": 1})
    assert demo_net.node({"q2": 2}) is not demo_net.node({"q2": 1})
    b, c = demo_net.node({"q2": 2}).successors()  # each takes one of the two tokens
    assert b == (demo_net.transition("t2"), demo_net.node({"q2": 1, "q3": 1}))
    assert c == (demo_net.transition("t3"), demo_net.node({"q2": 1, "q4": 1}))


def test_node_rejects_a_place_the_net_lacks(demo_net):
    with pytest.raises(InputError, match="'nope'"):
        demo_net.node({"nope": 1})
    with pytest.raises(InputError, match="'nope'"):
        enabled_activities(demo_net, {"q1": 1, "nope": 0})


@pytest.mark.parametrize("count", [-1, True, False, 1.0, "1", None])
def test_node_rejects_a_count_that_is_not_a_non_negative_int(demo_net, count):
    with pytest.raises(InputError, match=re.escape(f"'q2' {count!r} tokens")):
        demo_net.node({"q1": 1, "q2": count})


def test_single_source_and_sink_are_required():
    net = WorkflowNet(
        places=["p1", "p2", "p3"],
        transitions=[Transition("t1", "A")],
        arcs=[("p1", "t1"), ("t1", "p2")],  # p3 dangling: second source and sink
    )
    with pytest.raises(Exception):
        net.input_place
    report = validate_net(net)
    assert not report.ok


def test_closure_sees_activities_behind_silent_steps(demo_net):
    # from q3 the silent t5 re-opens the B/C choice, D fires directly
    assert enabled_activities(demo_net, {"q3": 1}) == frozenset({"B", "C", "D"})
    assert enabled_activities(demo_net, {"q2": 1}) == frozenset({"B", "C"})
    assert [t.tid for t, _nxt in demo_net.node({"q3": 1}).successors()] == ["t4", "t5"]


def test_finality_is_coverage_of_the_sink(demo_net):
    assert is_final(demo_net, {"q4": 1})
    assert is_final(demo_net, {"q4": 1, "q2": 1})  # covering, not exact equality
    assert not is_final(demo_net, {"q3": 1})
    assert not is_final(demo_net, {"q2": 1})


def test_advance_fires_through_the_shortest_silent_prefix(demo_net):
    # B from q3 needs t5 first; the result sits past both firings
    assert advance(demo_net, {"q3": 1}, "B") is demo_net.node({"q3": 1})
    assert advance(demo_net, {"q3": 1}, "D") is demo_net.node({"q4": 1})
    assert advance(demo_net, {"q2": 1}, "D") is None
    assert advance(demo_net, {"q1": 1}, "A") is demo_net.node({"q2": 1})


def test_advance_breaks_silent_ties_by_definition_order():
    net = WorkflowNet(
        places=["p1", "p2", "p3", "p4", "p5"],
        transitions=[
            Transition("s1", None),
            Transition("s2", None),
            Transition("a1", "A"),
            Transition("a2", "A"),
        ],
        arcs=[
            ("p1", "s1"),
            ("s1", "p2"),
            ("p1", "s2"),
            ("s2", "p3"),
            ("p2", "a1"),
            ("a1", "p4"),
            ("p3", "a2"),
            ("a2", "p5"),
        ],
    )
    # both silent prefixes have length one; s1 is defined first and wins
    assert advance(net, {"p1": 1}, "A") is net.node({"p4": 1})


def make_silent_chain(
    width: int, marking_budget: int = wfnet_module.DEFAULT_MARKING_BUDGET
) -> WorkflowNet:
    places = [f"p{i}" for i in range(width + 2)]
    transitions = [Transition(f"s{i}", None) for i in range(width)]
    transitions.append(Transition("tz", "Z"))
    arcs = []
    for i in range(width):
        arcs.append((f"p{i}", f"s{i}"))
        arcs.append((f"s{i}", f"p{i + 1}"))
    arcs.append((f"p{width}", "tz"))
    arcs.append(("tz", f"p{width + 1}"))
    return WorkflowNet(places, transitions, arcs, marking_budget)


def test_closure_respects_the_marking_budget():
    assert enabled_activities(make_silent_chain(30), {"p0": 1}) == frozenset({"Z"})
    # the closure of p0 holds 31 markings
    with pytest.raises(BudgetExceeded):
        enabled_activities(make_silent_chain(30, marking_budget=5), {"p0": 1})


def make_silent_and_split(width: int, marking_budget: int) -> WorkflowNet:
    """A, a silent AND-split into ``width`` one-step silent branches, a silent join, then Z.

    The silent closure after A holds 2 ** width + 2 markings.
    """
    places = ["start", "split_in", "join_out", "end"]
    transitions = [Transition("ta", "A"), Transition("split", None), Transition("join", None)]
    transitions.append(Transition("tz", "Z"))
    arcs = [("start", "ta"), ("ta", "split_in"), ("split_in", "split")]
    arcs += [("join", "join_out"), ("join_out", "tz"), ("tz", "end")]
    for i in range(width):
        places += [f"b{i}", f"c{i}"]
        transitions.append(Transition(f"s{i}", None))
        arcs += [("split", f"b{i}"), (f"b{i}", f"s{i}"), (f"s{i}", f"c{i}"), (f"c{i}", "join")]
    return WorkflowNet(places, transitions, arcs, marking_budget)


def test_every_closure_walk_is_held_to_the_nets_marking_budget():
    stream = build_uncorrelated_log([("A", 0, None), ("Z", 5, None)])
    no_rules = RuleSet(rules=())
    calls = {
        "enabled_activities": lambda net: enabled_activities(net, {"split_in": 1}),
        "is_final": lambda net: is_final(net, {"split_in": 1}),
        "run": lambda net: run(stream, net, no_rules, AnnealerConfig()),
    }

    def raised(call, net: WorkflowNet) -> str:
        with pytest.raises(BudgetExceeded) as info:
            call(net)
        return str(info.value)

    net = make_silent_and_split(8, marking_budget=50)
    # a walk past the budget keeps nothing, so a second round raises alike
    for _again in range(2):
        assert {name: raised(call, net) for name, call in calls.items()} == dict.fromkeys(
            calls, "silent closure exceeded 50 markings"
        )
    # the closure of split_in holds 2 ** 8 + 2 markings: a budget of 258 walks it, 257 does not
    covered = make_silent_and_split(8, marking_budget=258)
    assert run(stream, covered, no_rules, AnnealerConfig(population=2, s_max=2)).best.fa == 0
    assert enabled_activities(covered, {"split_in": 1}) == frozenset({"Z"})
    assert not is_final(covered, {"split_in": 1})
    with pytest.raises(BudgetExceeded, match="exceeded 257 markings"):
        is_final(make_silent_and_split(8, marking_budget=257), {"split_in": 1})


def test_a_multi_sink_net_answers_moves_but_not_finality():
    net = WorkflowNet(
        places=["p1", "p2", "p3"],
        transitions=[Transition("t1", "A")],
        arcs=[("p1", "t1"), ("t1", "p2"), ("t1", "p3")],  # p2 and p3 are both sinks
    )
    for _warm in range(2):
        assert enabled_activities(net, {"p1": 1}) == frozenset({"A"})
        with pytest.raises(InputError):
            is_final(net, {"p1": 1})


def test_marking_table_keeps_one_node_per_marking_across_threads():
    width, threads = 400, 8
    net = make_silent_chain(width)
    barrier = threading.Barrier(threads)

    def walk(_thread: int) -> frozenset[str]:
        barrier.wait(timeout=60)  # every thread walks the chain at once
        return enabled_activities(net, {"p0": 1})

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            found = list(pool.map(walk, range(threads), timeout=60))
    finally:
        sys.setswitchinterval(previous)
    assert found == [frozenset({"Z"})] * threads
    # every successor a thread stored must be the table's node for its marking
    for i in range(width + 2):
        for _t, target in net.node({f"p{i}": 1}).successors():
            assert target is net.node(dict(zip(net.places, target.marking))), i


def test_infer_start_activity(demo_net, loop_net):
    assert infer_start_activity(demo_net) == "A"
    assert infer_start_activity(loop_net) == "A"


def test_infer_start_activity_rejects_ambiguity():
    net = WorkflowNet(
        places=["p1", "p2"],
        transitions=[Transition("t1", "A"), Transition("t2", "B")],
        arcs=[("p1", "t1"), ("t1", "p2"), ("p1", "t2"), ("t2", "p2")],
    )
    with pytest.raises(Exception):
        infer_start_activity(net)


def test_validate_accepts_the_fixture_nets(demo_net, loop_net):
    assert validate_net(demo_net, "A").ok
    assert validate_net(loop_net, "A").ok


def test_validate_flags_structural_problems():
    two_sinks = WorkflowNet(
        places=["p1", "p2", "p3"],
        transitions=[Transition("t1", "A"), Transition("t2", "B")],
        arcs=[("p1", "t1"), ("t1", "p2"), ("p1", "t2"), ("t2", "p3")],
    )
    report = validate_net(two_sinks)
    assert not report.ok
    assert any("sink" in p for p in report.problems)

    pocket = WorkflowNet(
        places=["p1", "p2", "p3", "p4"],
        transitions=[
            Transition("t1", "A"),
            Transition("t2", "B"),
            Transition("t3", "C"),
            Transition("t4", "D"),
        ],
        arcs=[
            ("p1", "t1"),
            ("t1", "p2"),
            ("p2", "t2"),
            ("t2", "p3"),
            ("p2", "t3"),
            ("t3", "p4"),
            ("p4", "t4"),
            ("t4", "p4"),  # p4/t3/t4 never rejoin the sink
        ],
    )
    report = validate_net(pocket)
    assert not report.ok
    assert any("path" in p for p in report.problems)

    starved = WorkflowNet(
        places=["p1", "p2", "p3", "p4"],
        transitions=[Transition("t1", "A"), Transition("t2", "B"), Transition("t3", "C")],
        arcs=[
            ("p1", "t1"),
            ("t1", "p2"),
            ("p2", "t2"),
            ("t2", "p3"),
            ("p2", "t3"),
            ("p3", "t3"),  # t3 wants p2 and p3 together, which never happens
            ("t3", "p4"),
        ],
    )
    report = validate_net(starved)
    assert not report.ok
    assert any("final" in p for p in report.problems)


def test_validate_flags_a_start_transition_on_a_cycle():
    net = WorkflowNet(
        places=["p1", "p2", "p3"],
        transitions=[Transition("t1", "A"), Transition("t2", "B"), Transition("ts", None)],
        arcs=[
            ("p1", "t1"),
            ("t1", "p2"),
            ("p2", "ts"),
            ("ts", "p1"),  # silent loop re-enables the start
            ("p2", "t2"),
            ("t2", "p3"),
        ],
    )
    report = validate_net(net, "A")
    assert not report.ok
    assert any("cycle" in p for p in report.problems)


def test_alignment_costs_on_the_loop_net(loop_net):
    expected = {
        ("A", "C", "E", "F"): 0,
        ("A", "B", "B", "B", "D", "F", "E"): 0,
        ("A", "B", "C", "E", "F"): 0,  # C stays reachable after B via the silent return
        ("A", "E", "F"): 1,
        ("A", "D", "E", "F"): 1,
        ("Z",): 5,
        (): 4,
    }
    for trace, cost in expected.items():
        alignment = align_trace(loop_net, trace)
        assert alignment.cost == cost, trace
        replay_alignment(loop_net, trace, alignment)


def test_alignments_replay_on_the_demo_net(demo_net):
    for trace in [("A", "B", "C"), ("A", "D"), ("B", "B"), ("A", "Z", "C"), ()]:
        replay_alignment(demo_net, trace, align_trace(demo_net, trace))


def test_alignment_matches_the_brute_force_on_random_nets():
    checked = 0
    for trial in range(40):
        rng = seeded_rng("wfnet-fuzz", trial)
        net = random_structured_net(rng)
        trace = random_trace(net, rng)
        try:
            want = brute_force_alignment_cost(net, trace)
        except OracleBudget:
            continue
        assert align_trace(net, trace).cost == want, (trial, trace)
        checked += 1
    assert checked >= 30


def test_token_game_matches_the_reference_closure_on_random_nets():
    checked = 0
    for trial in range(40):
        rng = seeded_rng("wfnet-closure-fuzz", trial)
        net = random_structured_net(rng)
        try:
            markings = reachable_markings(net)
        except OracleBudget:
            continue
        for marking in markings:
            activities, final, targets = silent_closure_reference(net, marking)
            assert enabled_activities(net, marking) == activities, (trial, marking)
            assert is_final(net, marking) == final, (trial, marking)
            for activity in sorted(net.labels | {"z"}):
                target = targets.get(activity)
                want = None if target is None else net.node(target)
                assert advance(net, marking, activity) is want, (trial, marking, activity)
        checked += 1
    assert checked >= 30


def test_alignment_state_budget(demo_net):
    with pytest.raises(BudgetExceeded):
        align_trace(demo_net, ("A", "B", "C"), state_budget=1)


@pytest.mark.parametrize(
    "net_name, trace, budget, cost",
    [
        ("demo", "ABC", 5, 0),
        ("demo", "AD", 8, 1),
        ("demo", "ABBD", 6, 0),
        ("demo", "C", 4, 1),
        ("demo", "ACB", 9, 1),
        ("loop", "ACEF", 7, 0),
        ("loop", "AEF", 11, 1),
        ("loop", "ABBDFE", 11, 0),
        ("loop", "ABCE", 22, 1),
        ("loop", "Z", 18, 5),
        ("loop", "ADDEF", 25, 2),
    ],
)
def test_alignment_needs_exactly_the_pinned_state_budget(net_name, trace, budget, cost):
    # The smallest budget that succeeds fixes the settle order that
    # --state-budget, the CLI's exit code 2 and the cache's failure memo read.
    net = make_demo_net() if net_name == "demo" else make_loop_net()
    with pytest.raises(BudgetExceeded, match=f"alignment exceeded {budget - 1} states"):
        align_trace(net, tuple(trace), state_budget=budget - 1)
    assert align_trace(net, tuple(trace), state_budget=budget).cost == cost


def _outcome(align, net: WorkflowNet, trace: tuple[str, ...], budget: int):
    try:
        return align(net, trace, budget)
    except BudgetExceeded as exc:
        return str(exc)


def test_align_trace_matches_the_astar_reference():
    # align_trace must equal the heap A* it replaced: the same alignment and
    # moves, or the same BudgetExceeded message, at every budget.
    budgets = (1, 2, 3, 5, 8, 13, 40, wfnet_module.DEFAULT_STATE_BUDGET)
    unlabelled = non_fitting = 0
    for trial in range(300):
        rng = seeded_rng("wfnet-two-phase", trial)
        net = random_structured_net(rng)
        traces = [tuple(sample_run_projection(net, rng)) for _ in range(3)]
        traces += [random_trace(net, rng) for _ in range(3)]
        for trace in traces:
            for budget in budgets:
                got = _outcome(align_trace, net, trace, budget)
                want = _outcome(astar_align_reference, net, trace, budget)
                assert got == want, (trial, trace, budget)
                if isinstance(got, Alignment):
                    replay_alignment(net, trace, got)
            # only a symbol no transition labels reaches a layer's later sub-queues
            unlabelled += not net.labels.issuperset(trace)
            # the default budget comes last, and no random net exhausts it
            non_fitting += got.cost > 0
    assert unlabelled >= 400
    assert non_fitting >= 500


@pytest.mark.parametrize("trace", [(), ("A", "B"), ("A", "z", "C")])
def test_alignment_search_exhausts_a_net_that_cannot_finish(trace):
    # only the never-marked q feeds the sink, so no final marking is reachable
    net = WorkflowNet(
        places=["i", "p", "q", "o"],
        transitions=[
            Transition("tA", "A"),
            Transition("tB", "B"),
            Transition("tC", "C"),
            Transition("ts", None),
        ],
        arcs=[
            ("i", "tA"),
            ("tA", "p"),
            ("p", "tB"),
            ("tB", "p"),
            ("q", "tC"),
            ("tC", "o"),
            ("q", "ts"),
            ("ts", "q"),
        ],
    )
    message = "alignment search space exhausted without reaching a final marking"
    for align in (align_trace, astar_align_reference):
        assert _outcome(align, net, trace, wfnet_module.DEFAULT_STATE_BUDGET) == message


def test_alignment_cache_computes_each_trace_once(demo_net):
    cache = AlignmentCache(demo_net)
    first = cache.get_or_compute(("A", "B", "C"))
    again = cache.get_or_compute(("A", "B", "C"))
    assert first == again == 0
    assert len(cache) == 1
    cache.get_or_compute(("A", "D"))
    assert len(cache) == 2


def _count_searches(monkeypatch) -> list[int]:
    """Record the budget of every alignment search the cache starts."""
    budgets: list[int] = []
    real = wfnet_module.align_trace

    def counting(net, trace, state_budget):
        budgets.append(state_budget)
        return real(net, trace, state_budget)

    monkeypatch.setattr(wfnet_module, "align_trace", counting)
    return budgets


def test_alignment_cache_searches_a_failed_trace_once(demo_net, monkeypatch):
    # ("A", "D") does not replay, and its search settles 8 states before its
    # alignment is found
    searches = _count_searches(monkeypatch)
    cache = AlignmentCache(demo_net, state_budget=7)
    with pytest.raises(BudgetExceeded) as first:
        cache.get_or_compute(("A", "D"))
    with pytest.raises(BudgetExceeded) as again:
        cache.get_or_compute(("A", "D"))
    with pytest.raises(BudgetExceeded) as third:
        cache.get_or_compute(["A", "D"])  # any sequence of the same symbols
    assert searches == [7]
    # fresh exceptions, so no traceback grows across raises
    assert again.value is not first.value and third.value is not first.value
    assert str(again.value) == str(third.value) == str(first.value)
    assert len(cache) == 0  # failures are not costs


def test_the_replay_witness_proves_only_zero_costs(monkeypatch):
    # A trace the cache answers without a search was witnessed by replay: its
    # brute-force cost must be 0.  Witnessed or searched, every cost must equal
    # the reference search's.
    searches = _count_searches(monkeypatch)
    witnessed = proved = 0
    for trial in range(150):
        rng = seeded_rng("wfnet-witness", trial)
        net = random_structured_net(rng)
        traces = [tuple(sample_run_projection(net, rng)) for _ in range(3)]
        traces += [random_trace(net, rng) for _ in range(3)]
        for trace in traces:
            before = len(searches)
            cost = AlignmentCache(net).get_or_compute(trace)
            want = astar_align_reference(net, trace, wfnet_module.DEFAULT_STATE_BUDGET)
            assert cost == want.cost, (trial, trace)
            if len(searches) == before:
                witnessed += 1
                try:
                    assert brute_force_alignment_cost(net, trace, 2_000) == 0, (trial, trace)
                except OracleBudget:
                    continue
                proved += 1
    assert witnessed >= 450  # 529
    assert proved >= 450  # 504


def test_a_closure_over_the_marking_budget_falls_back_to_the_search(monkeypatch):
    searches = _count_searches(monkeypatch)
    # Z sits behind 30 silent steps: the replay's closure needs 31 markings,
    # so under a budget of 5 the search answers instead
    assert AlignmentCache(make_silent_chain(30, marking_budget=5)).get_or_compute(("Z",)) == 0
    assert len(searches) == 1
    assert AlignmentCache(make_silent_chain(30)).get_or_compute(("Z",)) == 0
    assert len(searches) == 1


def test_a_replayed_trace_needs_no_state_budget(demo_net, monkeypatch):
    searches = _count_searches(monkeypatch)
    assert AlignmentCache(demo_net, state_budget=1).get_or_compute(("A", "B", "C")) == 0
    assert searches == []
    with pytest.raises(BudgetExceeded):  # the search itself settles 5 states
        align_trace(demo_net, ("A", "B", "C"), state_budget=1)


def test_alignment_cache_is_thread_consistent(loop_net):
    traces = [("A", "C", "E", "F"), ("A", "E", "F"), ("A", "D", "E", "F"), ("Z",)] * 8
    serial = [align_trace(loop_net, t).cost for t in traces]
    cache = AlignmentCache(loop_net)
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(cache.get_or_compute, traces))
    assert parallel == serial


def test_log_alignment_cost_sums_case_traces(demo_net):
    stream = make_demo_stream()
    assert log_alignment_cost(demo_net, correlate(stream, DEMO_TRUTH)) == 0
    # the hand partition leaves c3 = <A, D>, one model move short of a B
    assert log_alignment_cost(demo_net, correlate(stream, DEMO_X)) == 1
