"""Stream decoder, energy triple, and the annealing loop."""

import math
import random
from collections import Counter
from dataclasses import replace

import pytest

import caseweave.annealer as annealer_module
import caseweave.wfnet as wfnet_module
from caseweave import (
    AlignmentCache,
    AnnealerConfig,
    BudgetExceeded,
    Individual,
    InputError,
    RuleSet,
    SimulationConfig,
    StreamDecoder,
    Transition,
    WorkflowNet,
    acceptance_prob,
    build_uncorrelated_log,
    cooling,
    correlate,
    delta_cost,
    duration_means,
    evaluate_individual,
    initial_individual,
    neighbor,
    parse_rules,
    select_next,
    simulate_log,
    strip_case_ids,
    time_variance,
)
from caseweave.annealer import replay_prefix, run as anneal

from conftest import DEMO_X, make_demo_net, make_demo_stream, make_loop_net, seeded_rng
from oracles import (
    DecoderReference,
    OracleBudget,
    brute_force_alignment_cost,
    changed_cases_reference,
    decoder_reference,
    random_decoder_instance,
    replay_prefix_reference,
    rule_cost_reference,
    time_variance_reference,
)


class StubRng(random.Random):
    """Counts consultations; random() returns a fixed value."""

    def __init__(self, value: float = 0.5):
        super().__init__(0)
        self.value = value
        self.random_calls = 0
        self.choice_calls = 0

    def random(self):
        self.random_calls += 1
        return self.value

    def choice(self, seq):
        self.choice_calls += 1
        return super().choice(seq)


# --- decoder -----------------------------------------------------------------


def test_decoder_reproduces_the_hand_decisions(demo_net, demo_rules):
    stream = make_demo_stream()
    for seed in range(20):
        decoder = StreamDecoder(demo_net, demo_rules, random.Random(seed))
        assignment = decoder.run(stream.events)
        for index in range(1, 8):
            assert assignment[index] == DEMO_X[index], (seed, index)
        assert assignment[8] in {"c2", "c3"}


def test_the_final_tie_lands_on_both_sides_across_seeds(demo_net, demo_rules):
    stream = make_demo_stream()
    landed = {
        StreamDecoder(demo_net, demo_rules, random.Random(seed)).run(stream.events)[8]
        for seed in range(20)
    }
    assert landed == {"c2", "c3"}


def test_decoder_consults_the_rng_only_on_ties(demo_net, demo_rules):
    stream = make_demo_stream()
    rng = StubRng()
    StreamDecoder(demo_net, demo_rules, rng).run(stream.events)
    assert rng.choice_calls == 1  # only the last event ties


def test_empty_rules_draw_the_tie_without_scoring(monkeypatch):
    loop_net = make_loop_net()
    sim = simulate_log(loop_net, SimulationConfig(cases=30, inter_arrival=0.125, seed=3))
    stream = strip_case_ids(sim)
    # a rule that never applies scores every candidate 0, so all of them tie
    idle = parse_rules('IF e[i].Act == "nowhere" THEN 0 <= duration <= 1')
    scored_rng = random.Random(9)
    scored = StreamDecoder(loop_net, idle, scored_rng).run(stream.events)

    def no_scoring(*_args):
        raise AssertionError("score called with an empty rule set")

    monkeypatch.setattr(annealer_module, "score_each", no_scoring)
    bare_rng = random.Random(9)
    bare = StreamDecoder(loop_net, RuleSet(rules=()), bare_rng).run(stream.events)
    assert bare == scored
    assert bare_rng.getstate() == scored_rng.getstate()


def test_decoder_matches_the_reference_on_random_instances():
    drawn_with_rules = 0
    for trial in range(300):
        net, rules, stream = random_decoder_instance(seeded_rng("decoder-reference", trial))
        fast_rng, slow_rng = random.Random(trial), random.Random(trial)
        fast = StreamDecoder(net, rules, fast_rng).run(stream.events)
        assert fast == decoder_reference(net, rules, stream, slow_rng, "S"), trial
        assert fast_rng.getstate() == slow_rng.getstate(), trial  # the same draws
        drew = fast_rng.getstate() != random.Random(trial).getstate()
        drawn_with_rules += bool(rules.rules) and drew
    assert drawn_with_rules >= 50  # rule-scored ties were drawn, not only free ones


def test_replay_then_step_matches_the_reference():
    for trial in range(300):
        rng = seeded_rng("replay-reference", trial)
        net, rules, stream = random_decoder_instance(rng)
        if rng.random() < 0.5:  # an earlier decode, as a neighbour sees it
            prior = decoder_reference(net, rules, stream, random.Random(-trial), "S")
        else:  # any partition: closed cases and absorbed events in the prefix
            prior = {e.index: f"c{rng.randint(1, 4)}" for e in stream.events}
        cut = rng.randint(1, len(stream))
        decoder = StreamDecoder(net, rules, random.Random(trial))
        replay_prefix(decoder, stream, prior, cut)
        for event in stream.events[cut - 1 :]:
            decoder.step(event)
        want = decoder_reference(net, rules, stream, random.Random(trial), "S", prior, cut)
        assert decoder.assignment == want, trial


def test_run_with_the_reference_decoder_swapped_in(monkeypatch):
    for trial in range(6):
        net, rules, stream = random_decoder_instance(seeded_rng("run-reference", trial))
        config = AnnealerConfig(population=3, s_max=4, seed=trial)
        plain = anneal(stream, net, rules, config)
        with monkeypatch.context() as patch:
            patch.setattr(
                annealer_module,
                "StreamDecoder",
                lambda net, rules, rng: DecoderReference(net, rules, rng, "S"),
            )
            # a neighbour hands replay_prefix its parent individual; the reference
            # replays that individual's assignment
            patch.setattr(
                annealer_module,
                "replay_prefix",
                lambda decoder, stream, parent, cut: replay_prefix_reference(
                    decoder, stream, parent.assignment, cut
                ),
            )
            reference = anneal(stream, net, rules, config)
        assert plain.records == reference.records, trial
        assert plain.best.log.assignment == reference.best.log.assignment, trial


class IndexCheckingDecoder(StreamDecoder):
    """Counts reopened cases and draws; checks both case indexes after each step.

    A :class:`DecoderReference` with its own RNG, seeded alike, steps beside
    it: the two choose the same case, and the decoder's ``cases`` keep the
    reference's opening order.
    """

    def __init__(self, net, rules, rng):
        super().__init__(net, rules, rng)
        self.reference = DecoderReference(net, rules, random.Random(), "S")
        self.reference.rng.setstate(rng.getstate())
        self.reopened = self.draws = 0

    def restore(self, stream, prior, cut):
        """``replay_prefix`` from ``prior``, and the reference's replay of its assignment."""
        replay_prefix(self, stream, prior, cut)
        assignment = prior.assignment if isinstance(prior, Individual) else prior
        replay_prefix_reference(self.reference, stream, assignment, cut)
        assert_opening_order(self)
        assert_open_index(self)

    def _advance(self, run, activity):
        was_closed = run.closed
        moved = super()._advance(run, activity)
        self.reopened += was_closed and not run.closed
        return moved

    def step(self, event):
        open_before = len(self.open_runs)
        scanned, steps = self.scanned, self.opened + self.fitted + self.deviations
        state = self.rng.getstate()
        case_id = super().step(event)
        # the outcome counts add up to the steps, and only open cases are scanned
        assert self.opened + self.fitted + self.deviations == steps + 1
        assert self.scanned - scanned <= open_before
        self.draws += self.rng.getstate() != state
        assert case_id == self.reference.step(event)
        assert_opening_order(self)
        assert_open_index(self)
        return case_id


def assert_opening_order(decoder: IndexCheckingDecoder) -> None:
    assert list(decoder.cases) == [case["id"] for case in decoder.reference.cases]
    assert all(run.case_id == case_id for case_id, run in decoder.cases.items())


def assert_open_index(decoder: StreamDecoder) -> None:
    want = [run for run in decoder.cases.values() if not run.closed]
    assert list(decoder.open_runs) == [run.case_id for run in want]
    assert all(got is run for got, run in zip(decoder.open_runs.values(), want))


def test_the_open_case_index_holds_exactly_the_open_cases_in_opening_order():
    reopened = 0
    for trial in range(300):
        rng = seeded_rng("open-index", trial)
        net, rules, stream = random_decoder_instance(rng)
        decoder = IndexCheckingDecoder(net, rules, random.Random(trial))
        decoder.run(stream.events)
        assert decoder.ties_drawn == decoder.draws, trial
        priors = [
            dict(decoder.assignment),  # a decoded partition, as a neighbour sees it
            {e.index: f"c{rng.randint(1, 4)}" for e in stream.events},  # any partition
            evaluate_individual(stream, decoder.assignment, net, rules),  # restored from runs
        ]
        for prior in priors:
            cut = rng.randint(1, len(stream))
            decoder = IndexCheckingDecoder(net, rules, random.Random(trial))
            decoder.restore(stream, prior, cut)
            reopened += decoder.reopened
            for event in stream.events[cut - 1 :]:
                decoder.step(event)
            assert decoder.ties_drawn == decoder.draws, trial
    assert reopened > 0  # the rebuild on reopening is exercised


def make_reopening_net() -> WorkflowNet:
    """S; X ends in p3, final through the silent t3 to the sink, yet Y leads back before X."""
    return WorkflowNet(
        places=["p1", "p2", "p3", "p4"],
        transitions=[
            Transition("t1", "S"),
            Transition("t2", "X"),
            Transition("t3", None),
            Transition("t4", "Y"),
        ],
        arcs=[
            ("p1", "t1"), ("t1", "p2"),
            ("p2", "t2"), ("t2", "p3"),
            ("p3", "t3"), ("t3", "p4"),
            ("p3", "t4"), ("t4", "p2"),
        ],
    )


def test_replay_reopens_a_closed_case_in_its_opening_place():
    net = make_reopening_net()
    stream = build_uncorrelated_log([(a, 10 * k, None) for k, a in enumerate("SXSYX")])
    # c1 closes after <S, X>; the prior partition then gives it Y, which reopens it
    prior = {1: "c1", 2: "c1", 3: "c2", 4: "c1", 5: "c2"}
    landed = set()
    for seed in range(20):
        decoder = StreamDecoder(net, RuleSet(rules=()), random.Random(seed))
        replay_prefix(decoder, stream, prior, cut=5)
        assert not decoder.cases["c1"].closed
        assert list(decoder.open_runs) == ["c1", "c2"]
        offered = []
        pick = decoder._pick

        def spy(runs, event):
            offered.append([run.case_id for run in runs])
            return pick(runs, event)

        decoder._pick = spy
        decoder.step(stream.events[4])
        assert offered == [["c1", "c2"]], seed
        slow_rng = random.Random(seed)
        want = decoder_reference(net, RuleSet(rules=()), stream, slow_rng, "S", prior, cut=5)
        assert decoder.assignment == want, seed
        assert decoder.rng.getstate() == slow_rng.getstate(), seed
        landed.add(decoder.assignment[5])
    assert landed == {"c1", "c2"}


def assert_same_decoders(got: StreamDecoder, want: StreamDecoder) -> None:
    """Same runs (node by identity, closed, events), open-case index and assignment order."""
    assert list(got.cases) == list(want.cases)
    for case_id, run in got.cases.items():
        other = want.cases[case_id]
        assert run.case_id == case_id and run.node is other.node, case_id
        assert (run.closed, run.events) == (other.closed, other.events), case_id
    assert list(got.open_runs) == list(want.open_runs)
    assert_open_index(got)
    assert list(got.assignment.items()) == list(want.assignment.items())


def test_a_case_opened_without_firing_is_replayed_on_restore():
    # S is the net's only start activity: the leading T opens c1 without firing, and
    # a replay cannot fire T from the initial marking either, so c1 has not diverged
    net = WorkflowNet(
        places=["p1", "p2", "p3", "p4"],
        transitions=[Transition("t1", "S"), Transition("t2", "T"), Transition("t3", "E")],
        arcs=[("p1", "t1"), ("t1", "p2"), ("p2", "t2"), ("t2", "p3"), ("p3", "t3"), ("t3", "p4")],
    )
    stream = build_uncorrelated_log(
        [("T", 0, None), ("S", 5, None), ("T", 7, None), ("E", 9, None)]
    )
    parent = initial_individual(stream, net, RuleSet(rules=()), random.Random(0))
    assert parent.assignment == {1: "c1", 2: "c2", 3: "c2", 4: "c2"}
    c1 = parent.runs["c1"]
    assert c1.node is net.initial and not c1.closed and not c1.diverged
    for cut in range(1, len(stream) + 2):
        restored = StreamDecoder(net, RuleSet(rules=()), random.Random(0))
        replayed = StreamDecoder(net, RuleSet(rules=()), random.Random(0))
        replay_prefix(restored, stream, parent, cut)
        replay_prefix(replayed, stream, parent.assignment, cut)
        assert_same_decoders(restored, replayed)
    assert restored.cases["c1"].node is net.initial
    assert restored.cases["c2"].node is net.node({"p4": 1})


def test_a_restored_prefix_equals_its_replay_at_every_cut():
    diverged = moved_by_replay = 0
    for trial in range(120):
        rng = seeded_rng("restore-replay", trial)
        net, rules, stream = random_decoder_instance(rng)
        config = AnnealerConfig(s_max=4)
        cache, verdicts = AlignmentCache(net), {}
        parent = initial_individual(
            stream, net, rules, random.Random(trial), config, cache, verdicts
        )
        parents = [parent]  # a decoded stream, then the links of a proposal chain
        for _step in range(3):
            proposal = neighbor(stream, parent, rng.randint(1, 4), net, rules, rng, config)
            parent = evaluate_individual(
                stream, proposal, net, rules, cache, config, verdicts, parent
            )
            parents.append(parent)
        for parent in parents:
            for cut in range(1, len(stream) + 2):
                restored = StreamDecoder(net, rules, random.Random(0))
                replay_prefix(restored, stream, parent, cut)
                replayed = StreamDecoder(net, rules, random.Random(0))
                replay_prefix(replayed, stream, parent.assignment, cut)
                assert_same_decoders(restored, replayed)
                assert restored.assignment.cut == cut and replayed.assignment.cut == 1
            # the whole stream replayed: a diverged run is where replay and decode may part
            for run in parent.runs.values():
                diverged += run.diverged
                moved_by_replay += replayed.cases[run.case_id].node is not run.node
    assert diverged >= 100
    assert moved_by_replay >= 10  # cases whose kept node a restore must not take


def run_snapshot(individual: Individual) -> dict:
    """Each run's id, node, closed and diverged flags and events, as built."""
    return {
        case_id: (run.case_id, run.node, run.closed, run.diverged, tuple(run.events))
        for case_id, run in individual.runs.items()
    }


def test_descendants_share_closed_runs_and_never_change_them():
    shared = absorbed = 0
    for trial in range(60):
        rng = seeded_rng("shared-runs", trial)
        net, rules, stream = random_decoder_instance(rng)
        config = AnnealerConfig(s_max=4)
        cache, verdicts = AlignmentCache(net), {}
        parent = initial_individual(
            stream, net, rules, random.Random(trial), config, cache, verdicts
        )
        built = [(parent, run_snapshot(parent))]
        for _step in range(12):
            parent = built[rng.randrange(len(built))][0]  # any ancestor may propose again
            proposal = neighbor(stream, parent, rng.randint(1, 4), net, rules, rng, config)
            for case_id, kept in parent.runs.items():
                if kept.diverged or not kept.closed or kept.events[-1].index >= proposal.cut:
                    continue  # straddles the cut, diverged or open: never shared
                run = proposal.runs[case_id]
                if run is kept:
                    shared += 1
                else:  # copied on write: it absorbed a suffix event as a deviation
                    assert run.events[: len(kept.events)] == kept.events, trial
                    assert len(run.events) > len(kept.events), trial
                    absorbed += 1
            child = evaluate_individual(
                stream, proposal, net, rules, cache, config, verdicts, parent
            )
            built.append((child, run_snapshot(child)))
        for individual, snapshot in built:
            assert run_snapshot(individual) == snapshot, trial
    assert shared >= 400  # closed prefix runs a child holds as its parent's objects
    assert absorbed >= 60  # deviations that copy a shared closed run before writing to it


def test_changed_cases_from_the_runs_match_the_mapping_path_at_every_cut():
    found = 0
    for trial in range(60):
        rng = seeded_rng("changed-runs", trial)
        net, rules, stream = random_decoder_instance(rng)
        config = AnnealerConfig(s_max=4)
        cache, verdicts = AlignmentCache(net), {}
        parent = initial_individual(
            stream, net, rules, random.Random(trial), config, cache, verdicts
        )
        for _step in range(3):
            for cut in range(1, len(stream) + 2):
                decoder = StreamDecoder(net, rules, random.Random(cut))
                replay_prefix(decoder, stream, parent, cut)
                proposal = decoder.run(stream.events[cut - 1 :])
                got = annealer_module._changed_runs(proposal, parent.assignment, cut)
                want = changed_cases_reference(stream, parent.assignment, proposal, cut)
                assert list(got.items()) == list(want.items()), (trial, cut)
                found += len(got)
            proposal = neighbor(stream, parent, rng.randint(1, 4), net, rules, rng, config)
            parent = evaluate_individual(
                stream, proposal, net, rules, cache, config, verdicts, parent
            )
    assert found >= 2000


def test_a_from_scratch_evaluation_from_the_runs_equals_the_mapping_path():
    for trial in range(60):
        rng = seeded_rng("scratch-runs", trial)
        net, rules, stream = random_decoder_instance(rng)
        config = AnnealerConfig(s_max=4)
        parent = initial_individual(stream, net, rules, random.Random(trial), config)
        proposals = [
            StreamDecoder(net, rules, random.Random(-trial)).run(stream.events),
            neighbor(stream, parent, rng.randint(1, 4), net, rules, rng, config),
        ]
        for proposal in proposals:
            got = evaluate_individual(stream, proposal, net, rules)
            want = evaluate_individual(stream, dict(proposal), net, rules)
            assert list(got.cases.items()) == list(want.cases.items()), trial
            assert got.log.cases == want.log.cases, trial
            assert (got.energies, got.violations, got.durations) == (
                want.energies, want.violations, want.durations
            ), trial
            assert got.runs is proposal.runs and want.runs is None


def test_debug_recompute_checks_every_restore(demo_net, demo_rules):
    stream = make_demo_stream()
    config = AnnealerConfig(s_max=10, debug_recompute=True)
    parent = initial_individual(stream, demo_net, demo_rules, random.Random(7), config)
    neighbor(stream, parent, 10, demo_net, demo_rules, random.Random(1), config)  # consistent
    # c1 = <A, B, C> ends closed; a kept run that lies about its marking is restored as it lies
    parent.runs["c1"].node = demo_net.node({"q2": 1})
    with pytest.raises(AssertionError, match="differs from the replayed one"):
        neighbor(stream, parent, 10, demo_net, demo_rules, random.Random(1), config)
    lied = StreamDecoder(demo_net, demo_rules, random.Random(0))
    replay_prefix(lied, stream, parent, 8)
    assert lied.cases["c1"].node is demo_net.node({"q2": 1})


def make_wide_loop_net(marking_budget: int) -> WorkflowNet:
    """S, X closes through a silent move to the sink; Y loops back through an AND of silent moves.

    The node after Y has six markings in its silent closure, so a
    ``marking_budget`` of 5 fails there.  The decoder never fires Y, as Y
    only follows X and a case after X is closed, but a replay fires a Y that
    a closed case absorbed.
    """
    return WorkflowNet(
        places=["p1", "p2", "p3", "p4", "q0", "a1", "a2", "b1", "b2"],
        transitions=[
            Transition("t1", "S"), Transition("t2", "X"), Transition("t3", None),
            Transition("t4", "Y"), Transition("split", None), Transition("a", None),
            Transition("b", None), Transition("join", None),
        ],
        arcs=[
            ("p1", "t1"), ("t1", "p2"), ("p2", "t2"), ("t2", "p3"), ("p3", "t3"), ("t3", "p4"),
            ("p3", "t4"), ("t4", "q0"), ("q0", "split"), ("split", "a1"), ("split", "b1"),
            ("a1", "a"), ("a", "a2"), ("b1", "b"), ("b", "b2"), ("a2", "join"), ("b2", "join"),
            ("join", "p2"),
        ],
        marking_budget=marking_budget,
    )


def test_restores_run_out_of_marking_budget_exactly_where_replays_do(monkeypatch):
    real_replay_prefix = annealer_module.replay_prefix
    failures = []

    def counted(decoder, stream, parent, cut):
        try:
            real_replay_prefix(decoder, stream, parent, cut)
        except BudgetExceeded:
            failures.append(cut)
            raise

    def always_replayed(decoder, stream, parent, cut):
        real_replay_prefix(decoder, stream, dict(parent.assignment), cut)

    completed = 0
    for trial in range(20):
        rng = seeded_rng("restore-budget", trial)
        words = [rng.choice(["SX", "SXYX", "SXY", "SYX", "SXX"]) for _ in range(rng.randint(2, 6))]
        runs, records, timestamp = [list(word) for word in words], [], 0
        while any(runs):
            records.append((rng.choice([run for run in runs if run]).pop(0), timestamp, None))
            timestamp += rng.randint(0, 9)
        stream = build_uncorrelated_log(records)
        config = AnnealerConfig(population=3, s_max=4, seed=trial)
        with monkeypatch.context() as patch:
            patch.setattr(annealer_module, "replay_prefix", counted)
            restored = anneal(stream, make_wide_loop_net(5), RuleSet(rules=()), config)
            patch.setattr(annealer_module, "replay_prefix", always_replayed)
            replayed = anneal(stream, make_wide_loop_net(5), RuleSet(rules=()), config)
        # debug_recompute restores and replays every prefix, and both run out of budget alike
        checked = anneal(
            stream, make_wide_loop_net(5), RuleSet(rules=()), replace(config, debug_recompute=True)
        )
        assert restored.records == replayed.records == checked.records, trial
        assert restored.best.log.assignment == replayed.best.log.assignment, trial
        completed += 1
    assert completed == 20  # no initial decode ran out of budget
    assert len(failures) >= 50  # restores that failed, each rejecting its proposal


def test_decoder_counts_its_outcomes_on_the_demo_stream(demo_net, demo_rules):
    decoder = StreamDecoder(demo_net, demo_rules, random.Random(3))
    scanned = []
    for event in make_demo_stream().events:
        before = decoder.scanned
        decoder.step(event)
        scanned.append(decoder.scanned - before)
    # A, A, B, A, B, C, C open c1, c2, c3 and fit; D fits no open case and is
    # absorbed, with c2 and c3 tied on the rules
    assert (decoder.opened, decoder.fitted, decoder.deviations) == (3, 4, 1)
    assert decoder.ties_drawn == 1
    assert scanned == [0, 0, 2, 0, 3, 3, 2, 1]  # the open cases at each non-start event
    assert decoder.scanned == 11


def test_decoder_case_bookkeeping(demo_net, demo_rules):
    stream = make_demo_stream()
    decoder = StreamDecoder(demo_net, demo_rules, random.Random(3))
    decoder.run(stream.events)
    c1, c2, c3 = (decoder.cases[case_id] for case_id in ("c1", "c2", "c3"))
    assert c1.closed and c1.node is demo_net.node({"q4": 1})
    assert [e.index for e in c1.events] == [1, 3, 6]
    # D (e8) fits no open case: c3 waits in q2 after its A, and D needs q3.
    # Every case competes; c2 and c3 tie on the rules above c1, and the one
    # draw of Random(3) over the two takes c2, which absorbs D in place.
    assert random.Random(3).choice(["c2", "c3"]) == "c2"
    assert [e.index for e in c2.events] == [2, 5, 7, 8]
    assert c2.closed and c2.node is demo_net.node({"q4": 1})
    assert [e.index for e in c3.events] == [4]
    assert not c3.closed and c3.node is demo_net.node({"q2": 1})
    assert not (c1.diverged or c2.diverged or c3.diverged)
    assert list(decoder.cases) == ["c1", "c2", "c3"]


def test_start_activity_always_opens_a_fresh_case(demo_net, demo_rules):
    stream = build_uncorrelated_log([("A", 0, None), ("A", 5, None), ("A", 9, None)])
    decoder = StreamDecoder(demo_net, demo_rules, random.Random(0))
    assert decoder.run(stream.events) == {1: "c1", 2: "c2", 3: "c3"}


def test_first_event_off_the_net_opens_without_firing(demo_net, demo_rules):
    stream = build_uncorrelated_log([("B", 0, None), ("A", 5, None)])
    decoder = StreamDecoder(demo_net, demo_rules, random.Random(0))
    assignment = decoder.run(stream.events)
    assert assignment == {1: "c1", 2: "c2"}
    # the absorbed B did not move c1 off the initial marking, which enables only A:
    # a replay does not fire B either, so c1 has not diverged
    c1 = decoder.cases["c1"]
    assert c1.node is demo_net.initial and not c1.closed and not c1.diverged
    parent = evaluate_individual(stream, assignment, demo_net, demo_rules)
    for cut in range(1, len(stream) + 2):
        restored = StreamDecoder(demo_net, demo_rules, random.Random(0))
        replayed = StreamDecoder(demo_net, demo_rules, random.Random(0))
        replay_prefix(restored, stream, parent, cut)
        replay_prefix(replayed, stream, parent.assignment, cut)
        assert_same_decoders(restored, replayed)


def test_unplayable_events_compete_across_closed_cases(demo_net, demo_rules):
    stream = build_uncorrelated_log([("A", 0, None), ("C", 10, None), ("D", 20, None)])
    rng = StubRng()
    decoder = StreamDecoder(demo_net, demo_rules, rng)
    assignment = decoder.run(stream.events)
    # after <A, C> the only case is closed; D is absorbed without firing
    assert assignment == {1: "c1", 2: "c1", 3: "c1"}
    assert decoder.cases["c1"].closed
    assert decoder.cases["c1"].node is demo_net.node({"q4": 1})
    assert rng.choice_calls == 0  # single candidates skip scoring and the rng


def test_open_case_generates_fresh_ids(demo_net, demo_rules):
    decoder = StreamDecoder(demo_net, demo_rules, random.Random(0))
    assert decoder.open_case().case_id == "c1"
    assert decoder.open_case().case_id == "c2"
    with pytest.raises(InputError):
        decoder.open_case("c2")
    # replayed ids never collide with generated ones
    decoder.open_case("c3")
    assert decoder.open_case().case_id == "c4"


def test_replay_prefix_rebuilds_markings(demo_net, demo_rules):
    stream = make_demo_stream()
    decoder = StreamDecoder(demo_net, demo_rules, random.Random(0))
    replay_prefix(decoder, stream, dict(DEMO_X), cut=6)
    assert decoder.assignment == {i: DEMO_X[i] for i in range(1, 6)}
    assert decoder.cases["c1"].node is demo_net.node({"q3": 1})  # A then B
    assert decoder.cases["c2"].node is demo_net.node({"q3": 1})
    assert decoder.cases["c3"].node is demo_net.node({"q2": 1})  # A only
    for case in decoder.cases.values():
        assert not case.closed


def test_replay_prefix_absorbs_unreachable_activities(demo_net, demo_rules):
    stream = make_demo_stream()
    decoder = StreamDecoder(demo_net, demo_rules, random.Random(0))
    single = {index: "c1" for index in range(1, 6)}
    replay_prefix(decoder, stream, single, cut=6)
    c1 = decoder.cases["c1"]
    assert len(c1.events) == 5
    # A fires, the second A is absorbed, B fires, A absorbed, B loops back
    assert c1.node is demo_net.node({"q3": 1})


# --- energies ----------------------------------------------------------------


def test_duration_means_and_variance_on_the_hand_partition(demo_x):
    assert duration_means(demo_x) == {"B": 75.0, "C": 120.0, "D": 180.0}
    assert time_variance(demo_x) == pytest.approx(90.0)


def test_variance_of_the_ground_truth(demo_truth):
    assert duration_means(demo_truth) == {"B": 75.0, "C": 135.0, "D": 150.0}
    assert time_variance(demo_truth) == pytest.approx(180.0)


def test_singleton_cases_have_zero_variance(demo_stream):
    log = correlate(demo_stream, {i: f"c{i}" for i in range(1, 9)})
    assert duration_means(log) == {}
    assert time_variance(log) == 0.0


def test_evaluate_individual_collects_the_energy_triple(demo_net, demo_rules):
    stream = make_demo_stream()
    individual = evaluate_individual(stream, dict(DEMO_X), demo_net, demo_rules)
    assert individual.fa == 1
    assert individual.fr == pytest.approx(1 / 6)
    assert individual.ft == pytest.approx(90.0)
    assert individual.energies == (individual.fa, individual.fr, individual.ft)


def test_debug_recompute_accepts_consistent_caches(demo_net, demo_rules):
    from caseweave import AlignmentCache

    stream = make_demo_stream()
    config = AnnealerConfig(debug_recompute=True)
    cache = AlignmentCache(demo_net)
    individual = evaluate_individual(
        stream, dict(DEMO_X), demo_net, demo_rules, cache, config
    )
    assert individual.fa == 1


def test_debug_recompute_checks_the_replay_witness_against_the_search(
    demo_net, demo_rules, monkeypatch
):
    stream = make_demo_stream()
    config = AnnealerConfig(debug_recompute=True)
    # c3 = <A, D> does not replay; a witness that accepts it reads cost 0
    monkeypatch.setattr(wfnet_module, "_replays", lambda net, trace: True)
    lied = evaluate_individual(stream, dict(DEMO_X), demo_net, demo_rules, AlignmentCache(demo_net))
    assert lied.fa == 0
    with pytest.raises(AssertionError, match="recomputed"):
        evaluate_individual(
            stream, dict(DEMO_X), demo_net, demo_rules, AlignmentCache(demo_net), config
        )


def test_debug_recompute_checks_the_rule_verdict_memo(demo_net, demo_rules):
    stream = make_demo_stream()
    config = AnnealerConfig(debug_recompute=True)
    verdicts: dict = {}
    for _ in range(2):  # the second call reads every case from the memo
        individual = evaluate_individual(
            stream, dict(DEMO_X), demo_net, demo_rules, None, config, verdicts
        )
        assert individual.fr == pytest.approx(1 / 6)
    assert len(verdicts) == 3
    verdicts[(1, 3, 6)] = (5, 5)  # c1 = <e1, e3, e6>, with counts it does not have
    lied = evaluate_individual(stream, dict(DEMO_X), demo_net, demo_rules, None, None, verdicts)
    assert lied.fr != individual.fr  # the memo is read, so a wrong entry shows
    with pytest.raises(AssertionError, match="recomputed"):
        evaluate_individual(stream, dict(DEMO_X), demo_net, demo_rules, None, config, verdicts)


def test_debug_recompute_checks_the_delta_totals(demo_net, demo_rules):
    stream = make_demo_stream()
    config = AnnealerConfig(debug_recompute=True)
    # D (e8) ties between c2 and c3: Random(7) gives it to c3 and Random(1) to c2
    current = initial_individual(stream, demo_net, demo_rules, random.Random(7))
    decoder = StreamDecoder(demo_net, demo_rules, random.Random(1))
    replay_prefix(decoder, stream, current, 8)
    proposal = decoder.run(stream.events[7:])
    assert (current.assignment[8], proposal[8]) == ("c3", "c2")  # c1 keeps its contributions
    candidate = evaluate_individual(
        stream, proposal, demo_net, demo_rules, None, config, None, current
    )
    fresh = evaluate_individual(stream, dict(proposal), demo_net, demo_rules)
    assert candidate.energies == fresh.energies
    assert candidate.cases["c1"] is current.cases["c1"]  # reused, not re-scored
    # a wrong total is carried over into the delta, and the rebuild shows it
    count, total, squares = current.durations["B"]
    for stale in (
        replace(current, fa=current.fa + 1),
        replace(current, violations=current.violations + 1),
        replace(current, durations={**current.durations, "B": (count, total, squares + 1)}),
    ):
        with pytest.raises(AssertionError, match="recomputed"):
            evaluate_individual(stream, proposal, demo_net, demo_rules, None, config, None, stale)


def test_a_plain_mapping_given_with_current_must_partition_the_stream(demo_net, demo_rules):
    stream = make_demo_stream()
    current = initial_individual(stream, demo_net, demo_rules, random.Random(7))
    missing = {i: case_id for i, case_id in DEMO_X.items() if i != 8}
    extra = {**DEMO_X, 9: "c1"}
    for assignment, message in ((missing, "misses event indices"), (extra, "unknown event")):
        with pytest.raises(InputError, match=message):
            evaluate_individual(
                stream, assignment, demo_net, demo_rules, None, None, None, current
            )


def test_debug_recompute_checks_the_runs_against_the_assignment(demo_net, demo_rules):
    stream = make_demo_stream()
    config = AnnealerConfig(debug_recompute=True)
    # D (e8) ties between c2 and c3: Random(7) gives it to c3 and Random(1) to c2
    parent = initial_individual(stream, demo_net, demo_rules, random.Random(7), config)
    assert parent.assignment[8] == "c3"

    def decoded(cut: int):
        decoder = StreamDecoder(demo_net, demo_rules, random.Random(1))
        replay_prefix(decoder, stream, parent, cut)
        return decoder.run(stream.events[cut - 1 :])

    for cut, current in ((1, None), (8, parent)):  # from scratch, then by delta
        assert decoded(cut)[8] == "c2"
        evaluate_individual(stream, decoded(cut), demo_net, demo_rules, None, config, {}, current)
        dropped, stale = decoded(cut), decoded(cut)
        del dropped.runs["c2"]
        stale.runs["c3"].events.append(stream.events[7])  # c3's run keeps the parent's e8
        for proposal in (dropped, stale):
            with pytest.raises(AssertionError, match="recomputed"):
                evaluate_individual(
                    stream, proposal, demo_net, demo_rules, None, config, {}, current
                )


def test_delta_energies_match_the_oracles_along_random_proposal_chains():
    checked = 0
    for trial in range(40):
        rng = seeded_rng("delta-energies", trial)
        net, rules, stream = random_decoder_instance(rng)
        # every evaluation also rebuilds its totals from scratch and compares
        config = AnnealerConfig(s_max=4, debug_recompute=True)
        cache, verdicts, costs = AlignmentCache(net), {}, {}
        current = initial_individual(
            stream, net, rules, random.Random(trial), config, cache, verdicts
        )
        for _step in range(10):
            if rng.random() < 0.7:  # a cut-and-redecode neighbour
                level = rng.randint(1, config.s_max)
                proposal = neighbor(stream, current, level, net, rules, rng, config)
            else:  # any partition that keeps a prefix: cases vanish and appear
                proposal = dict(current.assignment)
                for event in stream.events[rng.randint(1, len(stream)) - 1 :]:
                    proposal[event.index] = f"c{rng.randint(1, 5)}"
            candidate = evaluate_individual(
                stream, proposal, net, rules, cache, config, verdicts, current
            )
            log = correlate(stream, proposal)
            assert {c.case_id: tuple(e.index for e in c.events) for c in log.cases} == {
                case_id: case.indices for case_id, case in candidate.cases.items()
            }, trial
            assert candidate.fr == rule_cost_reference(log, rules), trial
            assert candidate.ft == float(time_variance_reference(log)), trial
            for case in log.cases:
                if case.trace not in costs:
                    try:
                        costs[case.trace] = brute_force_alignment_cost(net, case.trace, 2_000)
                    except OracleBudget:
                        costs[case.trace] = None
            fa = [costs[case.trace] for case in log.cases]
            if None not in fa:
                assert candidate.fa == sum(fa), trial
                checked += 1
            if rng.random() < 0.8:
                current = candidate
    assert checked >= 300  # steps whose every trace the brute force could cost


def test_initial_individual_matches_a_bare_decode(demo_net, demo_rules):
    stream = make_demo_stream()
    individual = initial_individual(stream, demo_net, demo_rules, random.Random(7))
    wanted = StreamDecoder(demo_net, demo_rules, random.Random(7)).run(stream.events)
    assert individual.log.assignment == wanted


# --- annealing primitives ----------------------------------------------------


def test_neighbor_at_the_last_level_touches_only_the_tail(demo_net, demo_rules):
    stream = make_demo_stream()
    current = evaluate_individual(stream, dict(DEMO_X), demo_net, demo_rules)
    config = AnnealerConfig(s_max=10)
    for seed in range(10):
        proposal = neighbor(
            stream, current, 10, demo_net, demo_rules, random.Random(seed), config
        )
        for index in range(1, 8):  # cut is pinned to 8 at the last level
            assert proposal[index] == DEMO_X[index]
        correlate(stream, proposal)  # stays a valid partition


def test_neighbor_at_level_one_may_rebuild_everything(demo_net, demo_rules):
    stream = make_demo_stream()
    current = evaluate_individual(stream, dict(DEMO_X), demo_net, demo_rules)
    config = AnnealerConfig(s_max=10)
    cuts_seen = set()
    for seed in range(40):
        rng = random.Random(seed)
        expected_cut = random.Random(seed).randint(1, 8)
        cuts_seen.add(expected_cut)
        proposal = neighbor(stream, current, 1, demo_net, demo_rules, rng, config)
        correlate(stream, proposal)
    assert 1 in cuts_seen and 8 in cuts_seen  # the whole range is reachable


def test_delta_cost_takes_the_first_worsened_component(demo_x):
    base = Individual(demo_x, fa=1, fr=0.5, ft=10.0)
    assert delta_cost(base, Individual(demo_x, 3, 0.0, 0.0)) == 2.0
    assert delta_cost(base, Individual(demo_x, 1, 0.75, 0.0)) == pytest.approx(0.25)
    assert delta_cost(base, Individual(demo_x, 1, 0.5, 14.0)) == pytest.approx(4.0)
    assert delta_cost(base, Individual(demo_x, 1, 0.5, 4.0)) == pytest.approx(-6.0)


def test_acceptance_prob_shapes():
    assert acceptance_prob(0.0, 5.0) == 1.0
    assert acceptance_prob(2.0, 1.0) == pytest.approx(math.exp(-2.0))
    assert acceptance_prob(-800.0, 1.0) == math.inf
    with pytest.raises(InputError):
        acceptance_prob(1.0, 0.0)
    with pytest.raises(InputError):
        acceptance_prob(1.0, -4.0)


def test_cooling_schedule():
    assert cooling(100.0, 1) == pytest.approx(100.0 / math.log(2))
    assert cooling(100.0, 9) == pytest.approx(100.0 / math.log(10))
    with pytest.raises(InputError):
        cooling(100.0, 0)


def test_select_next_rng_discipline(demo_x):
    current = Individual(demo_x, fa=1, fr=0.5, ft=10.0)

    better_fa = Individual(demo_x, 0, 0.9, 99.0)
    rng = StubRng()
    assert select_next(current, better_fa, 1.0, rng) is better_fa
    assert rng.random_calls == 0

    better_ft = Individual(demo_x, 1, 0.5, 9.0)
    rng = StubRng()
    assert select_next(current, better_ft, 1.0, rng) is better_ft
    assert rng.random_calls == 0  # strict improvement short-circuits the coin

    equal = Individual(demo_x, 1, 0.5, 10.0)
    rng = StubRng(value=0.99)
    assert select_next(current, equal, 1.0, rng) is equal  # prob 1 beats any draw
    assert rng.random_calls == 1

    worse = Individual(demo_x, 1, 0.5, 20.0)
    rng = StubRng(value=0.5)
    assert select_next(current, worse, 1e9, rng) is worse  # hot: accept
    assert rng.random_calls == 1
    rng = StubRng(value=0.5)
    assert select_next(current, worse, 1e-6, rng) is current  # cold: reject
    assert rng.random_calls == 1


# --- the full loop -----------------------------------------------------------


def test_run_is_deterministic(demo_net, demo_rules):
    stream = make_demo_stream()
    config = AnnealerConfig(population=4, s_max=4, seed=11)
    first = anneal(stream, demo_net, demo_rules, config)
    second = anneal(stream, demo_net, demo_rules, config)
    assert first.records == second.records
    assert first.best.log.assignment == second.best.log.assignment


def test_run_reaches_the_best_decodable_partition(demo_net, demo_rules):
    # the ground truth (fa = 0) is not decoder-reachable; the best reachable
    # partition keeps the hand energies
    stream = make_demo_stream()
    result = anneal(
        stream, demo_net, demo_rules, AnnealerConfig(population=4, s_max=4, seed=11)
    )
    assert result.best.energies == (1, pytest.approx(1 / 6), pytest.approx(90.0))


def test_run_records_follow_the_schedule(demo_net, demo_rules):
    stream = make_demo_stream()
    config = AnnealerConfig(population=3, s_max=5, seed=2)
    result = anneal(stream, demo_net, demo_rules, config)
    records = result.records
    assert len(records) == 3 * 5
    best_so_far = None
    for row in records:
        assert row.tau_curr == pytest.approx(cooling(config.tau_init, row.s_curr))
        triple = (row.global_best_fa, row.global_best_fr, row.global_best_ft)
        if best_so_far is not None:
            assert triple <= best_so_far  # the global best never regresses
        best_so_far = triple
    # rows arrive grouped by iteration, slots in order
    assert [(r.s_curr, r.slot) for r in records] == [
        (s, slot) for s in range(1, 6) for slot in range(3)
    ]
    # rows within one iteration share the post-iteration global best
    for s in range(1, 6):
        rows = [r for r in records if r.s_curr == s]
        assert len({(r.global_best_fa, r.global_best_fr, r.global_best_ft) for r in rows}) == 1
    final = records[-1]
    assert result.best.energies == (
        final.global_best_fa,
        final.global_best_fr,
        final.global_best_ft,
    )


def test_run_validates_its_config(demo_net, demo_rules):
    stream = make_demo_stream()
    with pytest.raises(InputError):
        anneal(stream, demo_net, demo_rules, AnnealerConfig(population=0))
    with pytest.raises(InputError):
        anneal(stream, demo_net, demo_rules, AnnealerConfig(s_max=0))
    with pytest.raises(InputError, match="state_budget must be at least 1"):
        anneal(stream, demo_net, demo_rules, AnnealerConfig(state_budget=0))
    for tau_init in [0, 0.0, -5, float("nan"), float("inf"), -float("inf")]:
        with pytest.raises(InputError, match="tau_init"):
            anneal(stream, demo_net, demo_rules, AnnealerConfig(tau_init=tau_init))


def test_run_propagates_the_state_budget(demo_net, demo_rules):
    stream = make_demo_stream()
    with pytest.raises(BudgetExceeded):
        anneal(stream, demo_net, demo_rules, AnnealerConfig(state_budget=1))


def test_an_over_budget_neighbour_loses_instead_of_aborting(demo_net, demo_rules, monkeypatch):
    stream = make_demo_stream()
    config = AnnealerConfig(population=3, s_max=3, seed=6)
    plain = anneal(stream, demo_net, demo_rules, config)
    real_neighbor = annealer_module.neighbor
    calls = []

    def neighbor_over_budget_once(*args, **kwargs):
        calls.append(None)
        if len(calls) == 5:  # level 2, slot 1
            raise BudgetExceeded("alignment exceeded the state budget")
        return real_neighbor(*args, **kwargs)

    monkeypatch.setattr(annealer_module, "neighbor", neighbor_over_budget_once)
    result = anneal(stream, demo_net, demo_rules, config)
    assert len(result.records) == 3 * 3
    by_slot = {(r.s_curr, r.slot): r for r in result.records}
    failed, before = by_slot[(2, 1)], by_slot[(1, 1)]
    assert not failed.accepted
    assert (failed.fa, failed.fr, failed.ft) == (before.fa, before.fr, before.ft)
    # the other slots own their generators, so they walk as in a plain run
    for record, reference in zip(result.records, plain.records):
        if record.slot != 1:
            assert (record.fa, record.fr, record.ft, record.accepted) == (
                reference.fa, reference.fr, reference.ft, reference.accepted
            )


class _ForgetfulCache(AlignmentCache):
    """A reference cache without the failure memo: a failed trace is searched every time."""

    def get_or_compute(self, trace):
        self._failed.clear()
        return super().get_or_compute(trace)


def test_an_over_budget_trace_fails_once_per_run(monkeypatch):
    loop_net = make_loop_net()
    sim = simulate_log(loop_net, SimulationConfig(cases=60, inter_arrival=0.125, seed=5))
    stream = strip_case_ids(sim)
    config = AnnealerConfig(seed=2, state_budget=42)
    failures: Counter = Counter()
    real_align = wfnet_module.align_trace

    def counting_align(net, trace, state_budget):
        try:
            return real_align(net, trace, state_budget)
        except BudgetExceeded:
            failures[tuple(trace)] += 1
            raise

    monkeypatch.setattr(wfnet_module, "align_trace", counting_align)
    with monkeypatch.context() as patch:
        patch.setattr(annealer_module, "AlignmentCache", _ForgetfulCache)
        reference = anneal(stream, loop_net, RuleSet(rules=()), config)
    assert max(failures.values()) > 1  # without the memo a failing trace is searched again
    failures.clear()
    result = anneal(stream, loop_net, RuleSet(rules=()), config)
    assert failures and max(failures.values()) == 1
    assert result.records == reference.records
    assert result.best.log.assignment == reference.best.log.assignment


def test_slot_rngs_are_independent_of_population_size(demo_net, demo_rules):
    # same seed, different population: the first slots still agree because the
    # master stream hands each slot its own generator up front
    stream = make_demo_stream()
    small = anneal(stream, demo_net, demo_rules, AnnealerConfig(population=2, s_max=3, seed=5))
    large = anneal(stream, demo_net, demo_rules, AnnealerConfig(population=5, s_max=3, seed=5))
    small_slot0 = [r for r in small.records if r.slot == 0]
    large_slot0 = [r for r in large.records if r.slot == 0]
    assert [(r.fa, r.fr, r.ft, r.accepted) for r in small_slot0] == [
        (r.fa, r.fr, r.ft, r.accepted) for r in large_slot0
    ]
