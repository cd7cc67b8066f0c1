"""CSV/PNML/rule-file round trips and the command line."""

import csv
import io
import re
from collections import Counter
from datetime import datetime, timedelta

import pytest

from caseweave import (
    AnnealerConfig,
    Case,
    EventLog,
    InputError,
    Transition,
    UncorrelatedLog,
    WorkflowNet,
    build_uncorrelated_log,
    correlate,
    format_timestamp,
    parse_rules,
    parse_timestamp,
    read_log_csv,
    read_pnml,
    read_rules_file,
    score,
    write_iteration_trace,
    write_log_csv,
    write_report,
    write_rules_file,
)
from caseweave.annealer import run as anneal
from caseweave.cli import main
from caseweave.logio import DEFAULT_TIMESTAMP_FORMAT
from caseweave.measures import MeasureReport, evaluate
from caseweave.rules import case_verdicts

from conftest import (
    DEMO_RULES_TEXT,
    DEMO_TRUTH,
    FIXTURES,
    make_demo_net,
    make_demo_stream,
    make_loop_net,
    seeded_rng,
)
from oracles import random_log_csv, read_log_csv_reference

CLAIMS_FORMAT = "%d/%m/%Y %H:%M"

DEMO_PNML = """<?xml version="1.0"?>
<pnml><net id="claims" type="ptnet">
  <place id="q1"/><place id="q2"/><place id="q3"/><place id="q4"/>
  <transition id="t1"><name><text>A</text></name></transition>
  <transition id="t2"><name><text>B</text></name></transition>
  <transition id="t3"><name><text>C</text></name></transition>
  <transition id="t4"><name><text>D</text></name></transition>
  <transition id="t5"/>
  <arc id="a1" source="q1" target="t1"/><arc id="a2" source="t1" target="q2"/>
  <arc id="a3" source="q2" target="t2"/><arc id="a4" source="t2" target="q3"/>
  <arc id="a5" source="q2" target="t3"/><arc id="a6" source="t3" target="q4"/>
  <arc id="a7" source="q3" target="t4"/><arc id="a8" source="t4" target="q4"/>
  <arc id="a9" source="q3" target="t5"/><arc id="a10" source="t5" target="q2"/>
</net></pnml>
"""


# --- timestamps ---------------------------------------------------------------


def test_timestamps_are_minutes_since_1970():
    assert parse_timestamp("1970-01-01 00:00") == 0
    assert parse_timestamp("1970-01-01 01:30") == 90
    minute = parse_timestamp("2020-06-07 09:00")
    assert format_timestamp(minute) == "2020-06-07 09:00"


def test_sub_minute_parts_round_half_up():
    fmt = "%Y-%m-%d %H:%M:%S"
    base = parse_timestamp("2020-01-01 00:05")
    assert parse_timestamp("2020-01-01 00:05:29", fmt) == base
    assert parse_timestamp("2020-01-01 00:05:30", fmt) == base + 1
    with pytest.raises(InputError):
        parse_timestamp("yesterday")


def strptime_minutes(text: str) -> int | str:
    """The default format read by ``strptime`` alone: minutes, or the error text."""
    try:
        moment = datetime.strptime(text.strip(), DEFAULT_TIMESTAMP_FORMAT)
    except ValueError as exc:
        return f"bad timestamp {text!r}: {exc}"
    return (moment - datetime(1970, 1, 1)) // timedelta(minutes=1)


def random_timestamp_text(rng) -> str:
    """Default-format text with fields out of range, and sometimes a character changed."""
    text = "{:04d}-{:02d}-{:02d} {:02d}:{:02d}".format(
        rng.randint(0, 9999), rng.randint(0, 13), rng.randint(0, 32),
        rng.randint(0, 25), rng.randint(0, 61),
    )
    roll = rng.random()
    if roll < 0.3:  # a wrong character, a non-ASCII digit among them
        at = rng.randrange(len(text))
        text = text[:at] + rng.choice("0123456789 -:/x\u0663\uff11") + text[at + 1 :]
    elif roll < 0.4:
        at = rng.randrange(len(text))
        text = text[:at] + text[at + 1 :]
    elif roll < 0.5:
        text = rng.choice([" ", "\t", ""]) + text + rng.choice([" ", "\n", ""])
    return text


def test_the_default_format_reads_as_strptime_reads_it():
    parsed = failed = 0
    for trial in range(3000):
        text = random_timestamp_text(seeded_rng("timestamps", trial))
        want = strptime_minutes(text)
        if isinstance(want, int):
            assert parse_timestamp(text) == want, text
            parsed += 1
        else:
            with pytest.raises(InputError) as raised:
                parse_timestamp(text)
            assert str(raised.value) == want, text
            failed += 1
    assert parsed >= 1000 and failed >= 1000


def test_default_timestamps_round_trip_in_every_year():
    assert format_timestamp(parse_timestamp("0001-01-01 00:00")) == "0001-01-01 00:00"
    last = parse_timestamp("9999-12-31 23:59")
    rng = seeded_rng("years")
    for _ in range(3000):
        year = rng.randint(1, 9999)
        minute = min(parse_timestamp(f"{year:04d}-01-01 00:00") + rng.randrange(366 * 1440), last)
        text = format_timestamp(minute)
        assert parse_timestamp(text) == minute, text
        moment = datetime(1970, 1, 1) + timedelta(minutes=minute)
        if moment.year >= 1000:
            assert text == moment.strftime(DEFAULT_TIMESTAMP_FORMAT)
        else:
            assert text.startswith(f"{moment.year:04d}-"), text


def test_custom_timestamps_round_trip_in_every_year():
    fmt = "%d/%m/%Y %H:%M:%S"
    early = "07/06/0005 09:00:00"
    assert format_timestamp(parse_timestamp(early, fmt), fmt) == early
    last = parse_timestamp("31/12/9999 23:59:00", fmt)
    rng = seeded_rng("custom years")
    for year in range(1, 10000):
        start = parse_timestamp(f"01/01/{year:04d} 00:00:00", fmt)
        minute = min(start + rng.randrange(366 * 1440), last)
        text = format_timestamp(minute, fmt)
        assert parse_timestamp(text, fmt) == minute, text
        moment = datetime(1970, 1, 1) + timedelta(minutes=minute)
        assert text == f"{moment:%d/%m}/{moment.year:04d} {moment:%H:%M:%S}"
    # an escaped percent sign keeps the Y after it literal
    assert format_timestamp(0, "%%Y %Y %%%Y") == "%Y 1970 %1970"


# --- log CSV ------------------------------------------------------------------


def test_fixture_stream_matches_the_programmatic_one():
    log = read_log_csv(str(FIXTURES / "claims_stream.csv"), CLAIMS_FORMAT)
    assert isinstance(log, UncorrelatedLog)
    assert log.events == make_demo_stream().events


def test_fixture_correlated_log_carries_the_ground_truth():
    log = read_log_csv(str(FIXTURES / "claims_correlated.csv"), CLAIMS_FORMAT)
    assert isinstance(log, EventLog)
    assert log.assignment == DEMO_TRUTH
    assert log.base.events == make_demo_stream().events


def test_log_round_trip_correlated_and_not(tmp_path):
    stream = make_demo_stream()
    truth = correlate(stream, DEMO_TRUTH)
    path = tmp_path / "truth.csv"
    write_log_csv(truth, str(path))
    back = read_log_csv(str(path))
    assert isinstance(back, EventLog)
    assert back.base.events == stream.events
    assert back.assignment == truth.assignment

    bare = tmp_path / "bare.csv"
    write_log_csv(stream, str(bare))
    back_stream = read_log_csv(str(bare))
    assert isinstance(back_stream, UncorrelatedLog)
    assert back_stream.events == stream.events


def test_integer_looking_attributes_come_back_as_ints(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(
        "activity,timestamp,Amount,Note\n"
        "A,2020-01-01 00:00,100,first\n"
        "B,2020-01-01 00:30,-3,\n"
    )
    log = read_log_csv(str(path))
    assert log.events[0].attributes == {"Amount": 100, "Note": "first"}
    # empty cells vanish instead of becoming empty strings
    assert log.events[1].attributes == {"Amount": -3}


def test_integer_spellings_survive_a_correlate_round_trip(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(
        "activity,timestamp,K\n"
        "A,2020-01-01 00:00,007\n"
        "B,2020-01-01 00:30,7\n"
        "C,2020-01-01 01:00,-0\n"
        "D,2020-01-01 01:30,100\n"
        "E,2020-01-01 02:00,-3\n"
    )
    stream = read_log_csv(str(path))
    # only the spelling str() gives an int becomes one; the rest keep their text
    assert [e.attributes["K"] for e in stream.events] == ["007", 7, "-0", 100, -3]
    out = tmp_path / "out.csv"
    write_log_csv(correlate(stream, {e.index: "c1" for e in stream.events}), str(out))
    with open(out, newline="", encoding="utf-8") as handle:
        assert [row["K"] for row in csv.DictReader(handle)] == ["007", "7", "-0", "100", "-3"]
    # the rules still read 007 as 7
    rules = parse_rules("e[i].K == e[i-1].K")
    first, second = stream.events[:2]
    assert score(rules, second, Case("c1", (first,))) == 1
    assert case_verdicts(rules, (first, second)) == (1, 0)


def test_same_minute_rows_keep_their_file_order(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(
        "case_id,activity,timestamp,Note\n"
        "c1,C,2020-01-01 00:30,late\n"
        "c2,B,2020-01-01 00:00,x\n"
        "c1,A,2020-01-01 00:00,x\n"
        "c3,D,2020-01-01 00:30,\n"
        "c2,E,2020-01-01 00:00,x\n"
    )
    log = read_log_csv(str(path))
    # rows sort by minute; equal minutes and equal attributes never reorder rows
    assert [e.activity for e in log.base.events] == ["B", "A", "E", "C", "D"]
    assert [e.index for e in log.base.events] == [1, 2, 3, 4, 5]
    assert [e.attributes for e in log.base.events[2:]] == [{"Note": "x"}, {"Note": "late"}, {}]
    assert log.assignment == {1: "c2", 2: "c1", 3: "c2", 4: "c1", 5: "c3"}


def test_partial_case_column_is_an_error(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(
        "case_id,activity,timestamp\nc1,A,2020-01-01 00:00\n,B,2020-01-01 00:30\n"
    )
    with pytest.raises(InputError):
        read_log_csv(str(path))


def test_fully_empty_case_column_means_uncorrelated(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(
        "case_id,activity,timestamp\n,A,2020-01-01 00:00\n,B,2020-01-01 00:30\n"
    )
    log = read_log_csv(str(path))
    assert isinstance(log, UncorrelatedLog)


def test_missing_required_columns_are_reported(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("activity,when\nA,2020-01-01 00:00\n")
    with pytest.raises(InputError):
        read_log_csv(str(path))


def test_bad_rows_name_their_line(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(
        "activity,timestamp\nA,2020-01-01 00:00\nB,not-a-time\n"
    )
    with pytest.raises(InputError) as info:
        read_log_csv(str(path))
    assert ":3:" in str(info.value)  # errors carry file:row locations


def test_bad_rows_name_their_line_past_blank_lines(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("activity,timestamp\nA,2020-01-01 00:00\n\n\nB,bad\n")
    with pytest.raises(InputError, match=f"^{re.escape(str(path))}:5: bad timestamp 'bad'"):
        read_log_csv(str(path))


def test_the_log_reader_reads_as_the_reference_reads(tmp_path):
    path = tmp_path / "log.csv"
    outcomes = Counter()
    for trial in range(600):
        text, fmt, last_line = random_log_csv(seeded_rng("log csv", trial))
        path.write_text(text, encoding="utf-8", newline="")
        try:
            want = read_log_csv_reference(str(path), fmt)
        except InputError as exc:
            # the reference counts rows; the reader names the line a row ends on
            message = re.sub(
                r"^(.*?):(\d+): ", lambda m: f"{m[1]}:{last_line[int(m[2])]}: ", str(exc)
            )
            with pytest.raises(InputError) as raised:
                read_log_csv(str(path), fmt)
            assert str(raised.value) == message, text
            outcomes[re.sub(r"^.*?: (\w+ \w+).*", r"\1", message)] += 1
            continue
        got = read_log_csv(str(path), fmt)
        assert type(got) is type(want), text
        if isinstance(want, EventLog):
            assert got.base.events == want.base.events, text
            assert got.base.attribute_names == want.base.attribute_names, text
            assert got.assignment == want.assignment, text
        else:
            assert got.events == want.events, text
            assert got.attribute_names == want.attribute_names, text
        outcomes[type(want).__name__, fmt] += 1
    # both formats read to both kinds of log, and each refusal comes up
    assert len(outcomes) == 8 and min(outcomes.values()) >= 20, outcomes


def test_attribute_columns_must_not_shadow_bound_columns(tmp_path):
    from caseweave import build_uncorrelated_log

    stream = build_uncorrelated_log([("A", 0, {"timestamp": "x"})])
    with pytest.raises(InputError):
        write_log_csv(stream, str(tmp_path / "log.csv"))


# --- PNML ---------------------------------------------------------------------


def test_pnml_fixture_matches_the_programmatic_loop_net():
    net = read_pnml(str(FIXTURES / "flow_net.pnml"))
    wanted = make_loop_net()
    assert set(net.places) == set(wanted.places)
    assert {(t.tid, t.label) for t in net.transitions} == {
        (t.tid, t.label) for t in wanted.transitions
    }
    assert set(net.arcs) == set(wanted.arcs)
    assert net.transition("t5").silent
    assert net.transition("t6").silent
    assert net.transition("t9").silent


def test_pnml_reader_rejects_broken_files(tmp_path):
    empty = tmp_path / "empty.pnml"
    empty.write_text("<pnml></pnml>")
    with pytest.raises(InputError):
        read_pnml(str(empty))
    no_id = tmp_path / "noid.pnml"
    no_id.write_text("<pnml><net><place/><transition id='t'/></net></pnml>")
    with pytest.raises(InputError):
        read_pnml(str(no_id))
    garbage = tmp_path / "garbage.pnml"
    garbage.write_text("not xml <")
    with pytest.raises(InputError):
        read_pnml(str(garbage))


def test_the_net_and_the_pnml_reader_refuse_a_marking_budget_below_1():
    flow_net = str(FIXTURES / "flow_net.pnml")
    for bad in (0, -5):
        message = f"marking_budget must be at least 1, got {bad}"
        with pytest.raises(InputError, match=message):
            WorkflowNet(["p"], [Transition("t", "A")], [("p", "t")], marking_budget=bad)
        with pytest.raises(InputError, match=message):
            read_pnml(flow_net, marking_budget=bad)
    assert read_pnml(flow_net, marking_budget=1).marking_budget == 1
    assert read_pnml(flow_net).marking_budget == 10_000


def test_inline_pnml_behaves_like_the_demo_net(tmp_path):
    path = tmp_path / "demo.pnml"
    path.write_text(DEMO_PNML)
    net = read_pnml(str(path))
    from caseweave import align_trace, validate_net

    assert validate_net(net, "A").ok
    assert align_trace(net, ("A", "B", "C")).cost == 0


def read_pnml_text(tmp_path, text: str):
    path = tmp_path / "net.pnml"
    path.write_text(text)
    return read_pnml(str(path))


def test_pnml_reads_unit_inscriptions_and_one_source_token(tmp_path):
    explicit = (
        DEMO_PNML.replace('<place id="q1"/>', '<place id="q1"><initialMarking><text>1</text>'
                          "</initialMarking></place>")
        .replace('<place id="q2"/>', '<place id="q2"><initialMarking><text>0</text>'
                 "</initialMarking></place>")
        .replace('target="t1"/>', 'target="t1"><inscription><text>1</text></inscription></arc>')
    )
    assert explicit.count("<text>") == DEMO_PNML.count("<text>") + 3
    net = read_pnml_text(tmp_path, explicit)
    assert net.initial is net.node({"q1": 1})
    assert net.arcs == read_pnml_text(tmp_path, DEMO_PNML).arcs


@pytest.mark.parametrize(
    "old, new, named",
    [
        ('target="t1"/>', 'target="t1"><inscription><text>2</text></inscription></arc>', "arc a1"),
        ('target="q2"/>', 'target="q2"><inscription><text>x</text></inscription></arc>', "arc a2"),
        ('<place id="q1"/>', '<place id="q1"><initialMarking><text>2</text></initialMarking>'
         "</place>", "place q1"),
        ('<place id="q3"/>', '<place id="q3"><initialMarking><text>1</text></initialMarking>'
         "</place>", "place q3"),
        # two parallel arcs would be one arc of weight 2, not two of weight 1
        ('<arc id="a9"', '<arc id="a11" source="t1" target="q2"/><arc id="a9"', "arc a11"),
        ('target="t1"/>', 'target="t1"><inscription><text>' + "9" * 5000
         + "</text></inscription></arc>", r"net\.pnml: integer of 5000 characters"),
    ],
)
def test_pnml_rejects_weights_and_markings_it_would_misread(tmp_path, old, new, named):
    assert old in DEMO_PNML
    with pytest.raises(InputError, match=named):
        read_pnml_text(tmp_path, DEMO_PNML.replace(old, new, 1))


# --- rule files and reports ----------------------------------------------------


def test_rules_file_round_trip(tmp_path, demo_rules):
    path = tmp_path / "rules.txt"
    write_rules_file(demo_rules, str(path))
    assert read_rules_file(str(path)) == demo_rules
    fixture = read_rules_file(str(FIXTURES / "claim_rules.txt"))
    assert fixture == parse_rules(DEMO_RULES_TEXT)


def test_iteration_trace_file(tmp_path, demo_net, demo_rules):
    result = anneal(
        make_demo_stream(),
        demo_net,
        demo_rules,
        AnnealerConfig(population=2, s_max=2, seed=1),
    )
    path = tmp_path / "trace.csv"
    write_iteration_trace(result.records, str(path))
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == [
        "s_curr", "tau_curr", "slot", "fa", "fr", "ft",
        "accepted", "global_best_fa", "global_best_fr", "global_best_ft",
    ]
    assert len(rows) == 1 + 4
    keys = [(int(r[0]), int(r[2])) for r in rows[1:]]
    assert keys == sorted(keys)
    for row, record in zip(rows[1:], result.records):
        assert row[6] in ("0", "1")
        assert float(row[1]) == record.tau_curr  # repr round-trips exactly
        assert float(row[5]) == record.ft


def test_iteration_trace_cells_are_exact(tmp_path, demo_net, demo_rules):
    result = anneal(
        make_demo_stream(),
        demo_net,
        demo_rules,
        AnnealerConfig(population=3, s_max=3, seed=4),
    )
    path = tmp_path / "trace.csv"
    write_iteration_trace(result.records, str(path))
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    ordered = sorted(result.records, key=lambda r: (r.s_curr, r.slot))
    assert len(rows) == 1 + len(ordered)
    for row, r in zip(rows[1:], ordered):
        assert row == [
            str(r.s_curr), repr(r.tau_curr), str(r.slot), str(r.fa), repr(r.fr), repr(r.ft),
            "1" if r.accepted else "0",
            str(r.global_best_fa), repr(r.global_best_fr), repr(r.global_best_ft),
        ]


def test_report_files(tmp_path, paired_logs):
    original, generated = paired_logs
    report = evaluate(original, generated)
    text_path = tmp_path / "report.txt"
    write_report(report, str(text_path), "text")
    assert text_path.read_text() == report.to_text()
    csv_path = tmp_path / "report.csv"
    write_report(report, str(csv_path), "csv")
    with open(csv_path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == list(MeasureReport.FIELDS)
    assert float(rows[1][1]) == report.l2l_freq
    with pytest.raises(InputError):
        write_report(report, str(tmp_path / "report.x"), "yaml")


# --- command line ---------------------------------------------------------------


@pytest.fixture
def workspace(tmp_path):
    stream_csv = tmp_path / "stream.csv"
    write_log_csv(make_demo_stream(), str(stream_csv))
    rules_txt = tmp_path / "rules.txt"
    rules_txt.write_text(DEMO_RULES_TEXT)
    demo_pnml = tmp_path / "demo.pnml"
    demo_pnml.write_text(DEMO_PNML)
    return tmp_path


def test_cli_correlate_round_trip(workspace, capsys):
    out = workspace / "correlated.csv"
    trace = workspace / "trace.csv"
    code = main([
        "correlate",
        "--log", str(workspace / "stream.csv"),
        "--model", str(workspace / "demo.pnml"),
        "--rules", str(workspace / "rules.txt"),
        "--out", str(out),
        "--trace-out", str(trace),
        "--population", "2",
        "--levels", "2",
        "--seed", "3",
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "fa=1" in printed
    log = read_log_csv(str(out))
    assert isinstance(log, EventLog)
    from conftest import DEMO_X

    assert {i: log.assignment[i] for i in range(1, 8)} == {
        i: DEMO_X[i] for i in range(1, 8)
    }
    assert trace.exists()


def test_cli_correlate_warns_on_precorrelated_input(workspace, capsys):
    correlated = workspace / "already.csv"
    write_log_csv(correlate(make_demo_stream(), DEMO_TRUTH), str(correlated))
    out = workspace / "redone.csv"
    code = main([
        "correlate",
        "--log", str(correlated),
        "--model", str(workspace / "demo.pnml"),
        "--out", str(out),
        "--population", "1",
        "--levels", "1",
    ])
    assert code == 0
    assert "already has case ids" in capsys.readouterr().err


def test_cli_simulate_then_evaluate(workspace, capsys):
    sim = workspace / "sim.csv"
    code = main([
        "simulate",
        "--model", str(workspace / "demo.pnml"),
        "--cases", "6",
        "--seed", "2",
        "--duration", "A=10",
        "--duration", "B=20:5",
        "--inter-arrival", "1/4",
        "--out", str(sim),
    ])
    assert code == 0
    log = read_log_csv(str(sim))
    assert isinstance(log, EventLog)
    assert len(log.cases) == 6
    code = main(["evaluate", "--original", str(sim), "--generated", str(sim)])
    assert code == 0
    out = capsys.readouterr().out
    assert "l2l_case: 1.000000" in out
    assert "smape_et: 0.000000" in out


def test_cli_simulate_strip_produces_a_stream(workspace):
    sim = workspace / "sim_stream.csv"
    code = main([
        "simulate",
        "--model", str(workspace / "demo.pnml"),
        "--cases", "3",
        "--strip",
        "--out", str(sim),
    ])
    assert code == 0
    assert isinstance(read_log_csv(str(sim)), UncorrelatedLog)


def test_cli_evaluate_rejects_streams(workspace, capsys):
    code = main([
        "evaluate",
        "--original", str(workspace / "stream.csv"),
        "--generated", str(workspace / "stream.csv"),
    ])
    assert code == 1
    assert "case column" in capsys.readouterr().err


def test_cli_check_rules(workspace, capsys):
    assert main(["check-rules", "--rules", str(workspace / "rules.txt")]) == 0
    assert "5 rules parsed" in capsys.readouterr().out
    bad = workspace / "bad_rules.txt"
    bad.write_text("e[i].A == e[i-1].B\n")
    assert main(["check-rules", "--rules", str(bad)]) == 1


def test_cli_strip(workspace):
    correlated = workspace / "truth.csv"
    write_log_csv(correlate(make_demo_stream(), DEMO_TRUTH), str(correlated))
    out = workspace / "stripped.csv"
    assert main(["strip", "--log", str(correlated), "--out", str(out)]) == 0
    assert isinstance(read_log_csv(str(out)), UncorrelatedLog)


def test_cli_help_renders_for_every_command(capsys):
    # the timestamp pattern contains % signs that argparse must not expand
    for command in ["correlate", "evaluate", "simulate", "check-rules", "strip"]:
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: caseweave {command}")


def test_cli_exit_codes(workspace, capsys):
    # usage problems and missing files exit 1
    assert main(["correlate", "--log", "x.csv"]) == 1
    assert main(["bogus-command"]) == 1
    assert main([
        "correlate",
        "--log", str(workspace / "missing.csv"),
        "--model", str(workspace / "demo.pnml"),
        "--out", str(workspace / "o.csv"),
    ]) == 1
    # a budget below 1 is bad input, not an exhausted search
    assert main([
        "correlate",
        "--log", str(workspace / "stream.csv"),
        "--model", str(workspace / "demo.pnml"),
        "--out", str(workspace / "o.csv"),
        "--marking-budget", "0",
    ]) == 1
    assert "at least 1" in capsys.readouterr().err
    # an exhausted search budget exits 2
    code = main([
        "correlate",
        "--log", str(workspace / "stream.csv"),
        "--model", str(workspace / "demo.pnml"),
        "--out", str(workspace / "o.csv"),
        "--state-budget", "1",
    ])
    assert code == 2
    assert "budget" in capsys.readouterr().err
    # so does a silent closure past --marking-budget while decoding.  After A, a
    # silent AND-split into three one-step silent branches joins silently into
    # the sink, and C goes there at once: the reachability check meets the sink
    # within 4 markings, while the closure after A holds 10.
    places = ["i", "p", "o", "b1", "b2", "b3", "c1", "c2", "c3"]
    transitions = [f"<transition id='{t}'><name><text>{t}</text></name></transition>" for t in "AC"]
    transitions += [f"<transition id='{t}'/>" for t in ["split", "join", "s1", "s2", "s3"]]
    arcs = [("i", "A"), ("A", "p"), ("p", "C"), ("C", "o"), ("p", "split"), ("join", "o")]
    for n in "123":
        arcs += [("split", f"b{n}"), (f"b{n}", f"s{n}"), (f"s{n}", f"c{n}"), (f"c{n}", "join")]
    wide = workspace / "wide.pnml"
    wide.write_text(
        "<pnml><net>"
        + "".join(f"<place id='{p}'/>" for p in places)
        + "".join(transitions)
        + "".join(f"<arc id='a{n}' source='{s}' target='{t}'/>" for n, (s, t) in enumerate(arcs))
        + "</net></pnml>"
    )
    stream = workspace / "ac.csv"
    write_log_csv(build_uncorrelated_log([("A", 0, None), ("C", 5, None)]), str(stream))
    argv = ["correlate", "--log", str(stream), "--model", str(wide),
            "--out", str(workspace / "o.csv"), "--marking-budget"]
    assert main([*argv, "9"]) == 2
    assert "search budget exhausted: silent closure exceeded 9 markings" in capsys.readouterr().err
    assert main([*argv, "10"]) == 0


@pytest.mark.parametrize(
    "content, refusal",
    [
        (b"activity,timestamp,activity\nA,2020-01-01 00:00,B\n", ":1: column 'activity' is repeated"),
        (b"activity,timestamp,K\nA,2020-01-01 00:00,x\r\n\nB,2020-01-01 00:30,\xff\n",
         ":4: not UTF-8: byte 0xff"),
        (b"activity,timestamp,K\nA,2020-01-01 00:00,1\nB,2020-01-01 00:30," + b"9" * 5000,
         ":3: integer of 5000 characters is too long"),
    ],
    ids=["repeated column", "not utf-8", "5000 digits"],
)
def test_cli_refuses_logs_it_would_misread(workspace, capsys, content, refusal):
    log = workspace / "odd.csv"
    log.write_bytes(content)
    argv = ["--log", str(log), "--out", str(workspace / "o.csv")]
    assert main(["correlate", *argv, "--model", str(workspace / "demo.pnml")]) == 1
    assert main(["strip", *argv]) == 1
    err = capsys.readouterr().err
    assert err.count(f"caseweave: {log}{refusal}") == 2, err


_MUTANT_TEXT = ' ,"\n\r\t-_aZ09é٣'
# the one refusal of a single damaged row that names no line: its case cell went blank
_WHOLE_FILE = "case column is only partially filled"


def mutant_log(rng, path) -> tuple[str, int | None, bytes]:
    """A mutation of the log CSV at ``path``: its kind, the line it damaged, and its bytes.

    Up to three data cells get random text, up to 6,000 digits, or a timestamp
    year from 1 to 9999; or a byte that is not UTF-8 goes in anywhere; or one
    column is dropped, repeated, moved or emptied in every row.  The line is
    the one that holds the bad byte, or that ends the one row whose cells were
    drawn, as the csv module counts lines; it is None for any other mutant.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        header, *rows = csv.reader(handle)
    kind = rng.choice(["text", "digits", "year", "bytes", "drop", "repeat", "reorder", "blank"])
    drawn: set[int] = set()  # the rows whose cells were drawn
    if kind == "blank":
        at = rng.randrange(len(header))
        for row in rows:
            row[at] = ""
    elif kind in ("text", "digits", "year"):
        for _ in range(rng.randint(1, 3)):
            index = rng.randrange(len(rows))
            drawn.add(index)
            row = rows[index]
            at = rng.randrange(len(row))
            if kind == "year":  # the first four digits of either format are the year
                at = header.index("timestamp")
                row[at] = re.sub(r"\d{4}", f"{rng.randint(1, 9999):04d}", row[at], count=1)
            elif kind == "text":
                row[at] = "".join(rng.choices(_MUTANT_TEXT, k=rng.randint(0, 6)))
            else:
                row[at] = "".join(rng.choices("0123456789", k=rng.randint(1, 6000)))
    elif kind != "bytes":
        order = list(range(len(header)))
        if kind == "drop":
            order.pop(rng.randrange(len(order)))
        elif kind == "repeat":
            order.insert(rng.randrange(len(order) + 1), rng.choice(order))
        else:
            order.insert(rng.randrange(len(order)), order.pop())
        header, rows = [header[at] for at in order], [[row[at] for at in order] for row in rows]
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    data = out.getvalue().encode("utf-8")
    line = None
    if kind == "bytes":
        at = rng.randrange(len(data) + 1)
        data = data[:at] + bytes([rng.randint(0x80, 0xFF)]) + data[at:]
        line = len(re.split(rb"\r\n|\r|\n", data[:at]))
    elif len(drawn) == 1:
        reader = csv.reader(io.StringIO(out.getvalue(), newline=""))
        for _record in range(min(drawn) + 2):  # the header, then the rows up to the drawn one
            next(reader)
        line = reader.line_num
    return kind, line, data


def rows_less_the_case_column(path) -> list:
    """A log file's rows as sorted (column, cell) pairs; activity and timestamp read trimmed."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    return sorted(
        sorted((name, cell.strip() if name in ("activity", "timestamp") else cell)
               for name, cell in row.items() if name != "case_id")
        for row in rows
    )


def empty_attribute_columns(path) -> set[str]:
    """The attribute columns of a log file that no row fills."""
    with open(path, newline="", encoding="utf-8") as handle:
        header, *rows = csv.reader(handle)
    return {name for at, name in enumerate(header)
            if name not in ("case_id", "activity", "timestamp") and not any(
                at < len(row) and row[at] for row in rows)}


def test_cli_reads_log_mutants_back_or_refuses_them_by_name(tmp_path, capsys):
    truth = tmp_path / "truth.csv"
    write_log_csv(correlate(make_demo_stream(), DEMO_TRUTH), str(truth))
    correlate_argv = ["correlate", "--model", str(FIXTURES / "flow_net.pnml"),
                      "--population", "1", "--levels", "1"]
    bases = [  # the stream is correlated, each correlated log stripped
        (FIXTURES / "claims_stream.csv", CLAIMS_FORMAT, correlate_argv),
        (FIXTURES / "claims_correlated.csv", CLAIMS_FORMAT, ["strip"]),
        (truth, DEFAULT_TIMESTAMP_FORMAT, ["strip"]),
    ]
    mutant, out = tmp_path / "mutant.csv", tmp_path / "out.csv"
    outcomes = Counter()
    emptied = lined = 0
    for trial in range(400):
        path, fmt, command = bases[trial % 3]
        kind, line, data = mutant_log(seeded_rng("log mutants", trial), path)
        mutant.write_bytes(data)
        code = main([*command, "--log", str(mutant), "--out", str(out), "--timestamp-format", fmt])
        err = capsys.readouterr().err
        assert code in (0, 1), (trial, data)
        if code == 1:
            assert err.startswith(f"caseweave: {mutant}"), (trial, err)
            # a refusal of one damaged row names its line, unless it is about the whole file
            if line is not None and not err.startswith(f"caseweave: {mutant}: {_WHOLE_FILE}"):
                assert err.startswith(f"caseweave: {mutant}:{line}: "), (trial, line, err)
                lined += 1
        else:
            assert rows_less_the_case_column(out) == rows_less_the_case_column(mutant), (
                trial, data
            )
            emptied += kind == "blank" and bool(empty_attribute_columns(mutant))
        outcomes[kind, code] += 1
    kinds = {"text", "digits", "year", "bytes", "drop", "repeat", "reorder", "blank"}
    # each kind comes up; a bad byte and a repeated column are always refused, the rest not
    assert {kind for kind, _ in outcomes} == kinds, outcomes
    assert {kind for kind, code in outcomes if code == 0} == kinds - {"bytes", "repeat"}, outcomes
    assert emptied > 0  # an attribute column with no filled cell was written back
    assert lined > 0, outcomes


def test_cli_check_rules_refusals_name_the_file_and_line(workspace, capsys):
    rules = workspace / "long.txt"
    long = "9" * 5000
    for line, column in [(f"IF e[i].Amount > {long} THEN 1 <= duration <= 2", 18),
                         (f'IF e[i].Act == "B" THEN 30 <= duration <= {long}', 43)]:
        rules.write_text(f"e[i].Type == e[i-1].Type\n{line}\n")
        assert main(["check-rules", "--rules", str(rules)]) == 1
        err = capsys.readouterr().err
        assert f"caseweave: {rules}: line 2, column {column}: integer of 5000 characters" in err
    rules.write_bytes(b'e[i].Type == e[i-1].Type\nIF e[i].Act == "\xe9" THEN 1 <= duration <= 2\n')
    assert main(["check-rules", "--rules", str(rules)]) == 1
    assert f"caseweave: {rules}:2: not UTF-8: byte 0xe9" in capsys.readouterr().err


def test_cli_rejects_a_bad_tau_init_before_reading_the_net(workspace, capsys):
    argv = ["correlate", "--log", str(workspace / "stream.csv"),
            "--model", str(workspace / "missing.pnml"), "--out", str(workspace / "o.csv")]
    for tau_init in ["0", "-5", "nan", "inf"]:
        assert main(argv + ["--tau-init", tau_init]) == 1
        err = capsys.readouterr().err
        assert "tau_init" in err and "missing.pnml" not in err, tau_init


def test_cli_workers_accepts_only_one(workspace, capsys):
    argv = ["correlate", "--log", str(workspace / "stream.csv"),
            "--model", str(workspace / "demo.pnml"), "--out", str(workspace / "o.csv"),
            "--population", "1", "--levels", "1"]
    assert main(argv + ["--workers", "2"]) == 1
    assert "--workers" in capsys.readouterr().err
    assert main(argv + ["--workers", "1"]) == 0


def test_cli_marking_budget_reaches_the_net_check(tmp_path, capsys):
    # A, then a silent AND-split into 14 one-activity branches: 2^14 markings
    # between the split and the join, past the default budget of 10 000.
    branches = [f"B{n}" for n in range(1, 15)]
    places = ["source", "after_a", "sink"]
    transitions = ['<transition id="a"><name><text>A</text></name></transition>',
                   '<transition id="split"/>', '<transition id="join"/>']
    arcs = [("source", "a"), ("a", "after_a"), ("after_a", "split"), ("join", "sink")]
    for label in branches:
        places += [f"{label}_in", f"{label}_out"]
        transitions.append(
            f'<transition id="{label}"><name><text>{label}</text></name></transition>'
        )
        arcs += [("split", f"{label}_in"), (f"{label}_in", label),
                 (label, f"{label}_out"), (f"{label}_out", "join")]
    pnml = tmp_path / "wide.pnml"
    pnml.write_text(
        '<pnml><net id="wide" type="ptnet">'
        + "".join(f'<place id="{p}"/>' for p in places)
        + "".join(transitions)
        + "".join(f'<arc id="arc{n}" source="{s}" target="{t}"/>' for n, (s, t) in enumerate(arcs))
        + "</net></pnml>"
    )
    stream = tmp_path / "stream.csv"
    records = [("A", 0, None)] + [(label, n, None) for n, label in enumerate(branches, 1)]
    write_log_csv(build_uncorrelated_log(records), str(stream))
    argv = ["correlate", "--log", str(stream), "--model", str(pnml),
            "--out", str(tmp_path / "o.csv"), "--population", "1", "--levels", "1"]
    assert main(argv) == 1
    assert "exceeded the marking budget" in capsys.readouterr().err
    assert main(argv + ["--marking-budget", "20000"]) == 0


def test_cli_rejects_malformed_nets(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.pnml"
    bad.write_text(
        "<pnml><net><place id='p1'/><place id='p2'/><place id='p3'/>"
        "<transition id='t1'><name><text>A</text></name></transition>"
        "<arc id='a1' source='p1' target='t1'/>"
        "<arc id='a2' source='t1' target='p2'/></net></pnml>"
    )
    code = main([
        "simulate", "--model", str(bad), "--cases", "2", "--out", str(tmp_path / "o.csv"),
    ])
    assert code == 1
    # correlate also checks that the start activity cannot recur within a case, as
    # the decoder opens a case at each one; <A, B, A, C> is one case of the cycle net
    cycle = FIXTURES / "start_on_cycle.pnml"
    stream = tmp_path / "abac.csv"
    write_log_csv(build_uncorrelated_log([(a, n, None) for n, a in enumerate("ABAC")]), str(stream))
    out = ["--out", str(tmp_path / "o.csv")]
    for model, problem in [
        # a net that fails the structural checks has no start activity to check
        (bad, "expected one source place, found ['p1', 'p3']"),
        (cycle, "start transition ta lies on a cycle"),
        (FIXTURES / "two_starts.pnml", "expected exactly one start activity, found ['A', 'B']"),
    ]:
        capsys.readouterr()
        assert main(["correlate", "--model", str(model), "--log", str(stream), *out]) == 1
        assert capsys.readouterr().err.startswith(f"caseweave: {model}: {problem}")
    # simulate opens each case itself, so the cycle net simulates
    assert main(["simulate", "--model", str(cycle), "--cases", "2", *out]) == 0
