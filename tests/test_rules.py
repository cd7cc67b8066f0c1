"""Rule DSL: parsing, canonical printing, and case-level evaluation."""

import re

import pytest

from caseweave import (
    Case,
    Event,
    RuleSet,
    RuleSyntaxError,
    UncorrelatedLog,
    correlate,
    parse_rules,
    pretty_rules,
    rule_cost,
    score,
    score_each,
)
from caseweave.rules import (
    And, Comparison, EqRule, EventTimeRule, IfThenRule, Or, _as_int, case_verdicts,
)

from conftest import DEMO_RULES_TEXT, DEMO_TRUTH, DEMO_X, make_demo_stream, seeded_rng
from oracles import (
    e_sat_reference,
    e_vio_reference,
    random_rule,
    random_rule_events,
    rule_cost_reference,
    trigger_reference,
    vio_reference,
)


def ev(index, activity, timestamp, **attrs):
    return Event(index, activity, timestamp, attrs)


def case_of(*events):
    return Case("c", tuple(events))


def keeps(rule, event, *earlier):
    """1 when ``event`` appended after ``earlier`` keeps ``rule``: its ``score`` under that rule."""
    return score(RuleSet((rule,)), event, case_of(*earlier))


def verdicts(rule, *events):
    """(triggered, violated) of the case ``events`` under ``rule`` alone."""
    return case_verdicts(RuleSet((rule,)), events)


# --- parsing -----------------------------------------------------------------


def test_demo_rules_parse_with_positional_labels(demo_rules):
    assert [r.label for r in demo_rules] == ["C1", "C2", "C3", "C4", "C5"]
    c1, c2, c3, c4, c5 = demo_rules
    assert c1 == EqRule("C1", "Type")
    assert isinstance(c2, IfThenRule) and c2.uses_j
    assert c2.conditions == (
        Comparison("i", "Act", "==", "B"),
        Comparison("j", "Act", "==", "A"),
    )
    assert c2.consequence == Comparison("i", "Res", "==", None, "Res")
    assert isinstance(c3, IfThenRule) and c3.consequence.op == "!="
    assert c4 == EventTimeRule(
        "C4", (Comparison("i", "Act", "==", "B"),), 30, 120
    )
    assert c5.dur_min == 120 and c5.dur_max == 150


def test_comments_and_blank_lines_are_skipped():
    ruleset = parse_rules("# header\n\ne[i].K == e[i-1].K\n  # trailing note\n")
    assert len(ruleset) == 1
    assert ruleset.rules[0].label == "C1"
    assert len(parse_rules("# nothing\n\n")) == 0


def test_if_without_j_conditions_defaults_to_the_predecessor():
    ruleset = parse_rules('IF e[i].Act == "C" THEN e[i].Res != e[j].Res\n')
    rule = ruleset.rules[0]
    assert isinstance(rule, IfThenRule) and not rule.uses_j
    # anchor is the immediate predecessor, whatever its activity
    a = ev(1, "B", 0, Res="x")
    b = ev(2, "C", 5, Res="x")
    assert keeps(rule, b, a) == 0
    assert keeps(rule, ev(2, "C", 5, Res="y"), a) == 1


def test_nested_and_or_consequence_round_trips():
    text = (
        'IF e[i].Kind == "req" AND e[j].Kind == "ack" THEN '
        'e[j].State == "open" OR e[i].Owner == e[j].Owner AND e[j].Tier != 2\n'
    )
    ruleset = parse_rules(text)
    rule = ruleset.rules[0]
    assert isinstance(rule.consequence, Or)
    assert isinstance(rule.consequence.items[1], And)
    assert parse_rules(pretty_rules(ruleset)) == ruleset


def test_uses_j_follows_the_conditions_of_a_rule_built_by_hand():
    parsed = parse_rules('IF e[i].Act == "B" AND e[j].Act == "A" THEN e[i].Res == e[j].Res\n')
    (rule,) = parsed.rules
    by_hand = IfThenRule(rule.label, rule.conditions, rule.consequence)
    assert by_hand == rule and by_hand.uses_j
    # the anchor of B is A, not the C between them
    case = (ev(1, "A", 0, Res="x"), ev(2, "C", 5, Res="y"), ev(3, "B", 9, Res="x"))
    assert verdicts(by_hand, *case) == verdicts(rule, *case) == (1, 0)
    with pytest.raises(TypeError):  # it is no field, so it cannot be set apart from them
        IfThenRule(rule.label, rule.conditions, rule.consequence, uses_j=False)


def test_parenthesized_or_inside_and():
    text = (
        'IF e[i].A == 1 THEN (e[j].X == 1 OR e[j].X == 2) AND e[j].Y == "z"\n'
    )
    ruleset = parse_rules(text)
    top = ruleset.rules[0].consequence
    assert isinstance(top, And) and isinstance(top.items[0], Or)
    printed = pretty_rules(ruleset)
    assert "(" in printed  # the OR keeps its parentheses under the AND
    assert parse_rules(printed) == ruleset


def test_quoted_values_keep_spaces_and_parens():
    text = 'IF e[i].Act == "O_Create offer (web)" THEN e[i].Res == e[j].Res\n'
    ruleset = parse_rules(text)
    assert ruleset.rules[0].conditions[0].value == "O_Create offer (web)"
    assert parse_rules(pretty_rules(ruleset)) == ruleset


def test_pretty_output_is_the_canonical_fixed_point(demo_rules):
    printed = pretty_rules(demo_rules)
    assert printed == DEMO_RULES_TEXT
    assert pretty_rules(parse_rules(printed)) == printed


@pytest.mark.parametrize(
    "bad",
    [
        'e[i].Type == e[i-1].Other\n',  # EQ must repeat one attribute
        'e[i].Type != e[i-1].Type\n',  # EQ allows only ==
        'e[i].Type == "Home"\n',  # EQ needs the predecessor reference
        'IF e[i].Act == "B" THEN 120 <= duration <= 30\n',  # bounds reversed
        'IF e[j].Act == "B" THEN 1 <= duration <= 2\n',  # duration rules bind only e[i]
        'IF e[i].Act == "B" THEN\n',  # missing consequence
        'e[i].Act == "B" THEN e[i].X == 1\n',  # THEN without IF
        'IF e[i-1].Act == "B" THEN e[i].X == 1\n',  # e[i-1] lives only in EQ rules
        'IF e[i].Act == "B" THEN e[j].X == (1\n',  # unbalanced parenthesis
        'IF e[i].Act == "unterminated THEN e[i].X == 1\n',
        'IF e[i].Act ~ "B" THEN e[i].X == 1\n',  # unknown operator
    ],
)
def test_malformed_rules_raise_syntax_errors(bad):
    with pytest.raises(RuleSyntaxError):
        parse_rules(bad)


def test_syntax_errors_name_the_line():
    text = 'e[i].K == e[i-1].K\n\ne[i].K == e[i-1].Broken\n'
    with pytest.raises(RuleSyntaxError) as info:
        parse_rules(text)
    assert "line 3" in str(info.value)


# --- evaluation --------------------------------------------------------------


def test_comparisons_are_numeric_when_both_sides_parse_as_ints():
    rule = parse_rules('IF e[i].Act == "B" THEN e[i].Size > e[j].Size\n').rules[0]
    prev = ev(1, "A", 0, Size="9")
    assert keeps(rule, ev(2, "B", 1, Size="10"), prev) == 1  # 10 > 9
    prev_text = ev(1, "A", 0, Size="9a")
    cur_text = ev(2, "B", 1, Size="10a")
    assert keeps(rule, cur_text, prev_text) == 0  # "10a" < "9a"
    padded = ev(1, "A", 0, Size="0100")
    assert keeps(rule, ev(2, "B", 1, Size=101), padded) == 1


def _as_int_unmemoised(value):
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return value
    if isinstance(value, str) and re.fullmatch(r"-?\d+$", value):
        return int(value)
    return None


def test_int_likeness_survives_the_memo():
    values = ["-0", "007", " 7", "7\n", "b10", "12", "-", "", True, False, 0, -3, 2.5]
    for value in values * 2:  # the second pass reads the memo
        want = _as_int_unmemoised(value)
        got = _as_int(value)
        assert got == want and type(got) is type(want), repr(value)


def test_missing_attributes_fail_quietly():
    rule = EqRule("C1", "Type")
    bare = ev(2, "B", 1)
    assert keeps(rule, bare, ev(1, "A", 0, Type="x")) == 0


def test_first_event_satisfies_nothing():
    rules = parse_rules(DEMO_RULES_TEXT)
    first = ev(1, "B", 0, Res="x", Type="y")
    assert score(rules, first, case_of()) == 0


def test_event_time_rule_needs_a_predecessor_and_bounds():
    rule = parse_rules('IF e[i].Act == "B" THEN 30 <= duration <= 120\n').rules[0]
    a = ev(1, "A", 0)
    assert keeps(rule, ev(2, "B", 30), a) == 1
    assert keeps(rule, ev(2, "B", 121), a) == 0
    assert keeps(rule, ev(2, "B", 29), a) == 0
    assert keeps(rule, ev(1, "B", 0)) == 0


def test_closest_anchor_commits_before_checking_the_consequence():
    rule = parse_rules(
        'IF e[i].Act == "C" AND e[j].Act == "B" THEN e[i].Res == e[j].Res\n'
    ).rules[0]
    far = ev(1, "B", 0, Res="y")
    near = ev(2, "B", 10, Res="x")
    probe = ev(3, "C", 20, Res="y")
    # the nearer B wins the anchor slot even though the farther one would match
    assert keeps(rule, probe, far, near) == 0
    # the case violates the rule first at the probe: the prefix before it does not trigger it
    assert verdicts(rule, far, near) == (0, 0)
    assert verdicts(rule, far, near, probe) == (1, 1)


def test_trigger_semantics(demo_rules):
    c1, _c2, _c3, c4, _c5 = demo_rules
    stream = make_demo_stream()
    log = correlate(stream, DEMO_X)
    third = log.case("c3")  # <A, D>
    triggered = [verdicts(rule, *third.events)[0] for rule in demo_rules]
    # attribute equality rules always apply; no B event; the D event matches C5's IF
    assert triggered == [1, 0, 0, 0, 1]
    lone = ev(1, "B", 0, Res="x", Type="y")
    assert verdicts(c4, lone) == (1, 0)  # applicable even though position 1 cannot violate
    same_type = (ev(1, "A", 0, Type="x"), ev(2, "B", 5, Type="x"))
    assert verdicts(c1, *same_type) == (1, 0)  # applies at both positions, violated at neither


def test_pair_rules_need_a_matching_anchor_to_trigger():
    rule = parse_rules(
        'IF e[i].Act == "C" AND e[j].Act == "B" THEN e[i].Res == e[j].Res\n'
    ).rules[0]
    assert verdicts(rule, ev(1, "C", 0, Res="x")) == (0, 0)
    b_after_c = (ev(1, "C", 0, Res="x"), ev(2, "B", 5, Res="x"))
    assert verdicts(rule, *b_after_c) == (0, 0)  # the anchor must come before
    assert verdicts(rule, ev(1, "B", 0, Res="x"), ev(2, "C", 5, Res="x")) == (1, 0)


def test_violations_on_the_demo_partitions(demo_rules):
    stream = make_demo_stream()
    hand = correlate(stream, DEMO_X)
    truth = correlate(stream, DEMO_TRUTH)
    c5 = demo_rules.rules[4]
    assert verdicts(c5, *hand.case("c3").events) == (1, 1)  # D arrives 180 minutes after A
    assert verdicts(c5, *truth.case("c2").events) == (1, 0)  # 150 minutes is inside the window
    assert rule_cost(hand, demo_rules) == pytest.approx(1 / 6)
    assert rule_cost(truth, demo_rules) == 0.0


def test_rule_cost_ignores_untriggered_cases(demo_rules):
    stream = make_demo_stream()
    log = correlate(stream, DEMO_X)
    assert rule_cost(log, parse_rules("")) == 0.0
    only_c5 = parse_rules('IF e[i].Act == "D" THEN 120 <= duration <= 150\n')
    # one case triggers and violates, the other two do not trigger at all
    assert rule_cost(log, only_c5) == pytest.approx(1 / 3)


def test_scores_behind_the_decoder_decisions(demo_rules):
    stream = make_demo_stream()
    e3, e5, e8 = stream.event(3), stream.event(5), stream.event(8)
    sigma1 = case_of(stream.event(1))
    sigma2 = case_of(stream.event(2))
    assert score(demo_rules, e3, sigma1) == 3
    assert score(demo_rules, e3, sigma2) == 1
    # after five events: sigma1 = <e1,e3>, sigma2 = <e2>, sigma3 = <e4>
    assert score(demo_rules, e5, case_of(stream.event(1), stream.event(3))) == 1
    assert score(demo_rules, e5, sigma2) == 3
    assert score(demo_rules, e5, case_of(stream.event(4))) == 2
    # e8 on the full prefixes: 0 for sigma1, a 1/1 tie for sigma2/sigma3
    sigma1_full = case_of(stream.event(1), stream.event(3), stream.event(6))
    sigma2_full = case_of(stream.event(2), stream.event(5), stream.event(7))
    sigma3_full = case_of(stream.event(4))
    assert score(demo_rules, e8, sigma1_full) == 0
    assert score(demo_rules, e8, sigma2_full) == 1
    assert score(demo_rules, e8, sigma3_full) == 1


def test_diagnostics_flow_through_case_level_checks():
    rules = parse_rules("e[i].Color == e[i-1].Color\n")
    stream_case = Case(
        "c", (ev(1, "A", 0, Color="red"), ev(2, "B", 5), ev(3, "C", 9, Color="red"))
    )
    assert case_verdicts(rules, stream_case.events) == (1, 1)


def test_rule_evaluation_matches_the_reference_on_random_cases():
    for trial in range(5000):
        rng = seeded_rng("rules-fuzz", trial)
        rule = random_rule(rng)
        events = random_rule_events(rng, rng.randint(0, 7))
        for k in range(len(events)):
            prefix = case_of(*events[:k])
            assert keeps(rule, events[k], *events[:k]) == e_sat_reference(
                rule, events[k], prefix
            ), (trial, k)
        prefix_verdicts = [verdicts(rule, *events[:p]) for p in range(1, len(events) + 1)]
        for p, got in enumerate(prefix_verdicts, start=1):
            prefix = case_of(*events[:p])
            assert got == (trigger_reference(rule, prefix), vio_reference(rule, prefix)), (
                trial, p
            )
        # a first violation at position p shows as the prefix verdict turning violated at p
        case = case_of(*events)
        positions = range(1, len(events) + 1)
        first = next((p for p in positions if e_vio_reference(rule, case, p)), None)
        assert first == next((p for p in positions if prefix_verdicts[p - 1][1]), None), trial


def test_rule_cost_matches_the_reference_on_random_partitions():
    for trial in range(1500):
        rng = seeded_rng("rule-cost-fuzz", trial)
        rules = RuleSet(tuple(random_rule(rng, f"C{n}") for n in range(1, rng.randint(0, 4) + 1)))
        stream = UncorrelatedLog(random_rule_events(rng, rng.randint(1, 14)))
        cases = rng.randint(1, 4)
        log = correlate(stream, {e.index: f"c{rng.randrange(cases)}" for e in stream.events})
        assert rule_cost(log, rules) == rule_cost_reference(log, rules), trial
        for case in log.cases:
            head, last = case_of(*case.events[:-1]), case.events[-1]
            want = sum(e_sat_reference(rule, last, head) for rule in rules)
            assert score(rules, last, head) == want, trial


def test_score_each_is_the_per_history_sum_of_e_sat():
    for trial in range(2000):
        rng = seeded_rng("score-each", trial)
        rules = RuleSet(tuple(random_rule(rng, f"C{n}") for n in range(1, rng.randint(0, 4) + 1)))
        *earlier, probe = random_rule_events(rng, rng.randint(1, 10))
        histories = [()] + [
            tuple(e for e in earlier if rng.random() < 0.6) for _ in range(rng.randint(0, 5))
        ]
        rng.shuffle(histories)
        want = [
            sum(e_sat_reference(rule, probe, case_of(*history)) for rule in rules)
            for history in histories
        ]
        assert score_each(rules, probe, histories) == want, trial
        assert [score(rules, probe, case_of(*h)) for h in histories] == want, trial


def _shared_partitions(rng, stream, count):
    """Partitions of ``stream`` that each keep a prefix of the last one and redraw the rest."""
    assignment = {e.index: f"c{rng.randrange(4)}" for e in stream.events}
    for _ in range(count):
        cut = rng.randint(1, len(stream))
        for event in stream.events[cut - 1 :]:
            assignment[event.index] = f"c{rng.randrange(4)}"
        yield correlate(stream, dict(assignment))


def test_rule_cost_with_a_run_memo_equals_the_reference_exactly():
    partitions = reused = 0
    for trial in range(8):
        rng = seeded_rng("rule-cost-memo", trial)
        rules = RuleSet(tuple(random_rule(rng, f"C{n}") for n in range(1, rng.randint(1, 4) + 1)))
        stream = UncorrelatedLog(random_rule_events(rng, 12))
        memo: dict = {}
        for log in _shared_partitions(rng, stream, 80):
            known = sum(tuple(e.index for e in case.events) in memo for case in log.cases)
            assert rule_cost(log, rules, memo=memo) == rule_cost_reference(log, rules), trial
            partitions += 1
            reused += known
    assert partitions >= 500 and reused >= 500  # cases recur across partitions
