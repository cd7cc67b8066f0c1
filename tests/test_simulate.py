"""Synthetic log generation on a workflow net."""

import math
import random

import pytest

from caseweave import (
    InputError,
    SimulationConfig,
    Transition,
    WorkflowNet,
    elapsed_time,
    estimate_cycle_time,
    log_alignment_cost,
    simulate_case,
    simulate_log,
)

from conftest import make_demo_net, make_loop_net, seeded_rng
from oracles import random_structured_net, simulate_case_reference

EXACT_DEMO = SimulationConfig(
    cases=6,
    seed=4,
    durations={"A": (10, 0), "B": (20, 0), "C": (30, 0), "D": (40, 0)},
)


def test_same_seed_same_log_different_seed_different_log(loop_net):
    config = SimulationConfig(cases=12, seed=9)
    first = simulate_log(loop_net, config)
    second = simulate_log(loop_net, SimulationConfig(cases=12, seed=9))
    assert first.base.events == second.base.events
    assert first.assignment == second.assignment
    other = simulate_log(loop_net, SimulationConfig(cases=12, seed=10))
    assert first.base.events != other.base.events


def test_simulated_cases_replay_at_zero_cost(demo_net, loop_net):
    for net, cases in ((demo_net, 15), (loop_net, 15)):
        log = simulate_log(net, SimulationConfig(cases=cases, seed=1))
        assert len(log.cases) == cases
        assert log_alignment_cost(net, log) == 0


def test_case_ids_follow_release_order(loop_net):
    log = simulate_log(loop_net, SimulationConfig(cases=5, seed=2))
    assert set(log.case_ids) == {f"c{k}" for k in range(1, 6)}
    releases = {cid: log.case(cid).events[0].timestamp for cid in log.case_ids}
    ordered = sorted(releases, key=lambda cid: (releases[cid], int(cid[1:])))
    assert ordered == [f"c{k}" for k in range(1, 6)]


def test_zero_jitter_makes_durations_exact(demo_net):
    log = simulate_log(demo_net, EXACT_DEMO)
    means = {"B": 20, "C": 30, "D": 40}
    for case in log.cases:
        for position in range(2, len(case.events) + 1):
            activity = case.events[position - 1].activity
            assert elapsed_time(case, position) == means[activity]


def test_inter_arrival_spaces_the_releases(demo_net):
    # force the short A -> C path so the cycle time calibrates to exactly 30
    config = SimulationConfig(
        cases=4,
        seed=0,
        inter_arrival=1.0,
        durations=EXACT_DEMO.durations,
        branch_weights={"t2": 0.0, "t3": 1.0, "t4": 1.0, "t5": 0.0},
    )
    rng = random.Random(1)
    assert estimate_cycle_time(demo_net, config, rng) == 30.0
    log = simulate_log(demo_net, config)
    starts = [log.case(f"c{k}").events[0].timestamp for k in range(1, 5)]
    assert starts == [10, 40, 70, 100]  # releases 0/30/60/90 plus A's 10 minutes
    config.inter_arrival = 1 / 3
    tighter = simulate_log(demo_net, config)
    tight_starts = [tighter.case(f"c{k}").events[0].timestamp for k in range(1, 5)]
    assert tight_starts == [10, 20, 30, 40]


def test_branch_weights_force_paths(demo_net):
    config = SimulationConfig(
        cases=8,
        seed=5,
        branch_weights={"t2": 0.0, "t3": 1.0, "t4": 0.5, "t5": 0.5},
    )
    log = simulate_log(demo_net, config)
    assert all(case.trace == ("A", "C") for case in log.cases)


def test_loop_cap_bounds_repetition(loop_net):
    config = SimulationConfig(
        cases=6,
        seed=7,
        max_loop=3,
        branch_weights={"t2": 1.0, "t3": 0.0, "t4": 0.0, "t5": 1.0},
    )
    log = simulate_log(loop_net, config)
    for case in log.cases:
        trace = case.trace
        assert trace[:5] == ("A", "B", "B", "B", "C")  # the cap forces the exit
        assert set(trace[5:]) == {"E", "F"}


def test_weight_validation(loop_net):
    with pytest.raises(InputError):
        simulate_log(loop_net, SimulationConfig(branch_weights={"nope": 1.0}))
    with pytest.raises(InputError):
        # the p2 decision names only one of its two transitions
        simulate_log(loop_net, SimulationConfig(branch_weights={"t2": 1.0}))
    with pytest.raises(InputError):
        simulate_log(
            loop_net, SimulationConfig(branch_weights={"t2": 0.6, "t3": 0.6})
        )
    # -1 and 2 sum to 1, NaN and inf would reach random.choices: none is a probability
    for bad in (-1.0, math.nan, math.inf):
        weights = {"t2": bad, "t3": 2.0 if bad == -1.0 else 0.5}
        message = f"branch weight for t2 must be finite and >= 0, got {bad}"
        with pytest.raises(InputError, match=message):
            simulate_log(loop_net, SimulationConfig(branch_weights=weights))


def test_config_validation(demo_net):
    with pytest.raises(InputError):
        simulate_log(demo_net, SimulationConfig(cases=0))
    for inter_arrival in (0.0, math.nan, math.inf):
        with pytest.raises(InputError, match="inter_arrival"):
            simulate_log(demo_net, SimulationConfig(inter_arrival=inter_arrival))
    # checked before the first run, though A fires in every case and D in few
    for activity, bounds in [("A", (0, 0)), ("A", (10, -1)), ("D", (0, 5)), ("D", (math.nan, 0))]:
        with pytest.raises(InputError, match=f"duration for {activity!r} must be whole minutes"):
            simulate_log(demo_net, SimulationConfig(durations={activity: bounds}))
    with pytest.raises(InputError, match=r"activities the net does not label: \['Zzz'\]"):
        simulate_log(demo_net, SimulationConfig(durations={"Zzz": (5, 0)}))


def test_simulation_rejects_malformed_nets():
    from caseweave import Transition, WorkflowNet

    broken = WorkflowNet(
        places=["p1", "p2", "p3"],
        transitions=[Transition("t1", "A"), Transition("t2", "B")],
        arcs=[("p1", "t1"), ("t1", "p2"), ("p1", "t2"), ("t2", "p3")],
    )
    with pytest.raises(InputError):
        simulate_log(broken, SimulationConfig(cases=2))


def test_simulate_case_reports_events_in_completion_order(loop_net):
    events = simulate_case(loop_net, SimulationConfig(), random.Random(3), 100)
    minutes = [minute for _act, minute in events]
    assert minutes == sorted(minutes)
    assert all(minute > 100 for minute in minutes)
    assert events[0][0] == "A"


def _same_as_the_reference(net, config, seed, start):
    """simulate_case's events, or None after the same InputError as the reference's."""
    try:
        want = simulate_case_reference(net, config, random.Random(seed), start)
    except InputError as exc:
        with pytest.raises(InputError) as raised:
            simulate_case(net, config, random.Random(seed), start)
        assert str(raised.value) == str(exc)
        return None
    got = simulate_case(net, config, random.Random(seed), start)
    assert got == want
    return got


def test_simulate_case_matches_the_reference_on_random_nets():
    finished = 0
    for trial in range(320):
        rng = seeded_rng("simulate-reference", trial)
        net = random_structured_net(rng)
        config = SimulationConfig(
            max_loop=rng.randint(0, 3),
            # zero weights reach the all-capped and all-zero fallbacks
            branch_weights={
                t.tid: rng.choice((0.0, 1.0, rng.uniform(0.0, 3.0)))
                for t in net.transitions
                if rng.random() < 0.5
            },
            # jitter above the mean reaches the one-minute floor
            durations={
                label: (rng.randint(1, 30), rng.randint(0, 40))
                for label in sorted(net.labels)
                if rng.random() < 0.5
            },
        )
        for _run in range(3):
            events = _same_as_the_reference(
                net, config, rng.getrandbits(32), rng.randint(0, 500)
            )
            finished += events is not None
    assert finished >= 900


def test_simulate_case_takes_the_earliest_of_two_ready_tokens():
    # S forks to A and B, which both feed m; C takes one token of m, D the other
    net = WorkflowNet(
        places=["i", "p1", "p2", "m", "n", "o"],
        transitions=[Transition(t, t) for t in "SABCD"],
        arcs=[
            ("i", "S"), ("S", "p1"), ("S", "p2"), ("p1", "A"), ("A", "m"), ("p2", "B"),
            ("B", "m"), ("m", "C"), ("C", "n"), ("m", "D"), ("n", "D"), ("D", "o"),
        ],
    )
    # C waits until it is the only candidate, so m holds A's and B's tokens then
    config = SimulationConfig(
        durations={"S": (1, 0), "A": (10, 0), "B": (50, 0), "C": (5, 0), "D": (7, 0)},
        branch_weights={"C": 0.0},
    )
    for seed in range(8):
        events = _same_as_the_reference(net, config, seed, 100)
        # C starts on A's token at 111, D on B's at 151
        assert events == [("S", 101), ("A", 111), ("C", 116), ("B", 151), ("D", 158)]


def test_simulate_case_deadlocks_as_the_reference_does():
    # X leads to q, whose silent V strands the token in r; Y finishes
    net = WorkflowNet(
        places=["i", "p", "q", "r", "o"],
        transitions=[Transition("S", "S"), Transition("X", "X"), Transition("V", None),
                     Transition("Z", "Z"), Transition("Y", "Y")],
        arcs=[
            ("i", "S"), ("S", "p"), ("p", "X"), ("X", "q"), ("q", "V"), ("V", "r"),
            ("q", "Z"), ("r", "Z"), ("Z", "o"), ("p", "Y"), ("Y", "o"),
        ],
    )
    outcomes = [_same_as_the_reference(net, SimulationConfig(), seed, 0) for seed in range(20)]
    assert None in outcomes
    assert any(events is not None and [a for a, _m in events] == ["S", "Y"] for events in outcomes)
