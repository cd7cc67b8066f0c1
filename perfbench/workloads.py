"""Workload definitions, input generation, the two CLI operations, and their checks.

Every input is made here from the workload seed: the simulator plays the
benchmark's own PNML net, the benchmark decorates case attributes onto the
events, and the stream, truth and net reach the program only as files.  The
operations then run the real user path in-process, ``caseweave correlate``
and ``caseweave evaluate`` through ``cli.main``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path

import caseweave.cli
import caseweave.logio
import caseweave.model
import caseweave.simulate

INPUTS = Path(__file__).resolve().parent / "inputs"

POPULATION = 5
LEVELS = 10


@dataclass(frozen=True)
class Workload:
    name: str
    net: str  # PNML file under inputs/
    cases: int
    inter_arrival: float
    rules: str | None  # rule file under inputs/; its attributes get decorated
    # Evaluate only the first N events of the stream; None evaluates all of it.
    evaluate_events: int | None


WORKLOADS = {
    w.name: w
    for w in (
        # Many cases in flight and rule-scored ties: the decoder scan,
        # rules.score and rule_cost carry the run; alignment is all cache hits.
        Workload("loop-crowded-rules", "loop.pnml", 120, 0.125, "case_rules.txt", None),
        # Few open cases in a long stream: the scan over closed cases,
        # replay_prefix and the energy rebuilds.  The whole-log evaluate is
        # quadratic in cases, so it sees a prefix of the stream.
        Workload("loop-sparse-long", "loop.pnml", 250, 1.0, None, 1000),
        # Concurrency makes many deviating interleavings: cold A* alignment.
        Workload("parallel-wide", "parallel_wide.pnml", 30, 0.25, None, None),
    )
}


def case_attributes(case_id: str) -> dict[str, str]:
    serial = int(case_id[1:])
    return {"Region": f"r{serial % 5}", "Batch": f"b{serial % 7}"}


@dataclass(frozen=True)
class Inputs:
    stream: Path
    truth: Path
    net: Path
    rules: Path | None


def make_inputs(workload: Workload, seed: int, work: Path) -> Inputs:
    """Simulate, decorate and write the input files; deterministic per seed."""
    net_path = INPUTS / workload.net
    net = caseweave.logio.read_pnml(str(net_path))
    config = caseweave.simulate.SimulationConfig(
        cases=workload.cases, inter_arrival=workload.inter_arrival, seed=seed
    )
    truth = caseweave.simulate.simulate_log(net, config)
    if workload.rules is not None:
        records = [
            (e.activity, e.timestamp, case_attributes(truth.assignment[e.index]))
            for e in truth.base.events
        ]
        stream = caseweave.model.build_uncorrelated_log(records)
        truth = caseweave.model.correlate(stream, dict(truth.assignment))
    inputs = Inputs(
        stream=work / "stream.csv",
        truth=work / "truth.csv",
        net=net_path,
        rules=INPUTS / workload.rules if workload.rules is not None else None,
    )
    caseweave.logio.write_log_csv(truth.base, str(inputs.stream))
    caseweave.logio.write_log_csv(truth, str(inputs.truth))
    return inputs


class CheckFailed(Exception):
    """An operation's output is wrong."""


def cli(argv: list[str]) -> int:
    """``caseweave <argv>`` in-process, its chatter kept off our stdout."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        # looked up at call time, so a traced run goes through the wrapper
        return caseweave.cli.main(argv)


def correlate_argv(inputs: Inputs, seed: int, out: Path, trace: Path) -> list[str]:
    argv = [
        "correlate", "--log", str(inputs.stream), "--model", str(inputs.net),
        "--out", str(out), "--trace-out", str(trace),
        "--population", str(POPULATION), "--levels", str(LEVELS),
        "--seed", str(seed), "--workers", "1",
    ]
    if inputs.rules is not None:
        argv += ["--rules", str(inputs.rules)]
    return argv


def evaluate_argv(original: Path, generated: Path, report: Path) -> list[str]:
    return [
        "evaluate", "--original", str(original), "--generated", str(generated),
        "--out", str(report), "--format", "csv",
    ]


def read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def cases_of(case_ids: list[str]) -> dict[str, list[int]]:
    """Case id -> 0-based stream positions, in stream order."""
    cases: dict[str, list[int]] = {}
    for position, case_id in enumerate(case_ids):
        cases.setdefault(case_id, []).append(position)
    return cases


@dataclass(frozen=True)
class CorrelateOutput:
    digest: str
    case_ids: list[str]
    best_fa: int
    accepted: int
    rejected: int


def _sig9(text: str) -> str:
    return format(float(text), ".9g")


def check_correlate(inputs: Inputs, out: Path, trace: Path) -> CorrelateOutput:
    """Partition and monotonicity checks; digest of assignment plus records."""
    stream_header, stream_rows = read_rows(inputs.stream)
    header, rows = read_rows(out)
    if header[0] != "case_id" or header[1:] != stream_header:
        raise CheckFailed(f"{out.name}: header {header} does not extend {stream_header}")
    if len(rows) != len(stream_rows):
        raise CheckFailed(f"{out.name}: {len(rows)} rows for {len(stream_rows)} events")
    for number, (row, event) in enumerate(zip(rows, stream_rows), start=1):
        if row[1:] != event:
            raise CheckFailed(f"{out.name}: row {number} is not stream event {number}")
        if not row[0]:
            raise CheckFailed(f"{out.name}: event {number} has no case")
    case_ids = [row[0] for row in rows]

    trace_header, records = read_rows(trace)
    col = {name: k for k, name in enumerate(trace_header)}
    if len(records) != POPULATION * LEVELS:
        raise CheckFailed(f"{trace.name}: {len(records)} records, expected {POPULATION * LEVELS}")
    best = None
    for record in records:
        current = tuple(
            float(record[col[f"global_best_{e}"]]) for e in ("fa", "fr", "ft")
        )
        if best is not None and current > best:
            raise CheckFailed(f"{trace.name}: global best worsened from {best} to {current}")
        best = current

    digest = hashlib.sha256()
    digest.update("\n".join(case_ids).encode())
    for record in records:
        fields = (
            record[col["s_curr"]], record[col["slot"]], record[col["fa"]],
            record[col["accepted"]], _sig9(record[col["fr"]]), _sig9(record[col["ft"]]),
        )
        digest.update(("\n" + ",".join(fields)).encode())
    accepted = sum(int(record[col["accepted"]]) for record in records)
    return CorrelateOutput(
        digest=digest.hexdigest(),
        case_ids=case_ids,
        best_fa=int(records[-1][col["global_best_fa"]]),
        accepted=accepted,
        rejected=len(records) - accepted,
    )


def truth_case_ids(inputs: Inputs) -> list[str]:
    _header, rows = read_rows(inputs.truth)
    return [row[0] for row in rows]


def l2l_case(truth: list[str], best: list[str]) -> float:
    """Exact-case recall, computed apart from the program's measures."""
    found = {tuple(p) for p in cases_of(best).values()}
    original = cases_of(truth).values()
    return sum(tuple(p) in found for p in original) / len(original)


def trace_variants(case_ids: list[str], activities: list[str]) -> int:
    return len({tuple(activities[p] for p in positions) for positions in cases_of(case_ids).values()})


def write_window(source: Path, target: Path, events: int | None) -> Path:
    """The first ``events`` rows of a correlated CSV, or the file itself."""
    if events is None:
        return source
    header, rows = read_rows(source)
    with open(target, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows[:events])
    return target


def check_report(report: Path, truth: Path, best: Path) -> dict[str, float]:
    """The report's l2l measures lie in [0, 1] and its l2l_case matches ours."""
    header, rows = read_rows(report)
    if len(rows) != 1:
        raise CheckFailed(f"{report.name}: expected one row, found {len(rows)}")
    values = {name: float(text) for name, text in zip(header, rows[0])}
    for name, value in values.items():
        if value < 0.0 or (value > 1.0 and name.startswith("l2l")):
            raise CheckFailed(f"{report.name}: {name} = {value} out of range")
    _h, truth_rows = read_rows(truth)
    _h, best_rows = read_rows(best)
    direct = l2l_case([r[0] for r in truth_rows], [r[0] for r in best_rows])
    if abs(values["l2l_case"] - direct) > 1e-12:
        raise CheckFailed(f"{report.name}: l2l_case {values['l2l_case']} != direct {direct}")
    return values


def files_digest(inputs: Inputs) -> str:
    """SHA-256 of the stream and truth files the set-up wrote."""
    digest = hashlib.sha256(inputs.stream.read_bytes())
    digest.update(inputs.truth.read_bytes())
    return digest.hexdigest()

