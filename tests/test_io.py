"""CSV/PNML/rule-file round trips and the command line."""

import csv
from datetime import datetime, timedelta

import pytest

from caseweave import (
    AnnealerConfig,
    Case,
    EventLog,
    InputError,
    LogFileSchema,
    UncorrelatedLog,
    build_uncorrelated_log,
    correlate,
    e_sat,
    format_timestamp,
    parse_rules,
    parse_timestamp,
    read_log_csv,
    read_pnml,
    read_rules_file,
    vio,
    write_iteration_trace,
    write_log_csv,
    write_report,
    write_rules_file,
)
from caseweave.annealer import run as anneal
from caseweave.cli import main
from caseweave.logio import DEFAULT_TIMESTAMP_FORMAT
from caseweave.measures import MeasureReport, evaluate

from conftest import (
    DEMO_RULES_TEXT,
    DEMO_TRUTH,
    FIXTURES,
    make_demo_net,
    make_demo_stream,
    make_loop_net,
    seeded_rng,
)

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


# --- log CSV ------------------------------------------------------------------


def test_fixture_stream_matches_the_programmatic_one():
    schema = LogFileSchema(timestamp_format=CLAIMS_FORMAT)
    log = read_log_csv(str(FIXTURES / "claims_stream.csv"), schema)
    assert isinstance(log, UncorrelatedLog)
    assert log.events == make_demo_stream().events


def test_fixture_correlated_log_carries_the_ground_truth():
    schema = LogFileSchema(timestamp_format=CLAIMS_FORMAT)
    log = read_log_csv(str(FIXTURES / "claims_correlated.csv"), schema)
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
    rule = parse_rules("e[i].K == e[i-1].K").rules[0]
    first, second = stream.events[:2]
    assert e_sat(rule, second, Case("c1", (first,))) == 1
    assert not vio(rule, Case("c1", (first, second)))


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
