"""File formats: event log CSV, PNML nets, rule files, run traces, reports.

CSV logs bind three columns (case id optional, activity, timestamp); every
other column is an event attribute.  Timestamps are minutes since
1970-01-01T00:00 internally; parsing uses a configurable strptime format and
rounds sub-minute remainders half up.
"""

from __future__ import annotations

import csv
import re
from dataclasses import astuple, dataclass, fields
from datetime import datetime, timedelta
from typing import Sequence
from xml.etree import ElementTree

from .annealer import IterationRecord
from .measures import MeasureReport
from .model import EventLog, InputError, Scalar, UncorrelatedLog, build_uncorrelated_log, correlate
from .rules import RuleSet, parse_int, parse_rules, pretty_rules
from .wfnet import Transition, WorkflowNet

DEFAULT_TIMESTAMP_FORMAT = "%Y-%m-%d %H:%M"

_EPOCH = datetime(1970, 1, 1)


@dataclass(frozen=True)
class LogFileSchema:
    """Column binding for log CSV files; unlisted columns become attributes."""

    case_column: str = "case_id"
    activity_column: str = "activity"
    timestamp_column: str = "timestamp"
    timestamp_format: str = DEFAULT_TIMESTAMP_FORMAT


# DEFAULT_TIMESTAMP_FORMAT's fixed-width spelling, in ASCII digits (``\d`` takes others too).
_DEFAULT_TIMESTAMP_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2} [0-9]{2}:[0-9]{2}")


def parse_timestamp(text: str, fmt: str = DEFAULT_TIMESTAMP_FORMAT) -> int:
    """Wall-clock text to integer minutes; seconds of 30+ round up.

    Text in the default format's fixed width is read by slicing; anything
    else, an impossible date included, goes through ``strptime``.
    """
    stripped = text.strip()
    moment = None
    if fmt == DEFAULT_TIMESTAMP_FORMAT and _DEFAULT_TIMESTAMP_RE.fullmatch(stripped):
        try:
            moment = datetime(
                int(stripped[:4]), int(stripped[5:7]), int(stripped[8:10]),
                int(stripped[11:13]), int(stripped[14:]),
            )
        except ValueError:
            pass  # strptime raises with its own message
    if moment is None:
        try:
            moment = datetime.strptime(stripped, fmt)
        except ValueError as exc:
            raise InputError(f"bad timestamp {text!r}: {exc}") from exc
    delta = moment - _EPOCH
    seconds = delta.days * 86400 + delta.seconds
    minutes, remainder = divmod(seconds, 60)
    return minutes + (1 if remainder >= 30 else 0)


def format_timestamp(minutes: int, fmt: str = DEFAULT_TIMESTAMP_FORMAT) -> str:
    return (_EPOCH + timedelta(minutes=minutes)).strftime(fmt)


def _parse_attribute(text: str) -> Scalar:
    number = parse_int(text.strip())
    return text if number is None else number


def read_log_csv(path: str, schema: LogFileSchema | None = None) -> UncorrelatedLog | EventLog:
    """Read a log; the case column decides correlated vs uncorrelated.

    A case column that exists but is only partially filled is an error; a fully
    empty one reads as uncorrelated.
    """
    schema = schema or LogFileSchema()
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        for required in (schema.activity_column, schema.timestamp_column):
            if required not in header:
                raise InputError(f"{path}: missing column {required!r}")
        has_case_column = schema.case_column in header
        attribute_columns = [
            name
            for name in header
            if name
            not in (schema.case_column, schema.activity_column, schema.timestamp_column)
        ]
        staged: list[tuple[int, int, str, dict[str, Scalar], str]] = []
        for row_no, row in enumerate(reader, start=2):
            activity = (row.get(schema.activity_column) or "").strip()
            if not activity:
                raise InputError(f"{path}:{row_no}: missing activity")
            raw_ts = (row.get(schema.timestamp_column) or "").strip()
            if not raw_ts:
                raise InputError(f"{path}:{row_no}: missing timestamp")
            try:
                timestamp = parse_timestamp(raw_ts, schema.timestamp_format)
            except InputError as exc:
                raise InputError(f"{path}:{row_no}: {exc}") from exc
            attributes = {
                name: _parse_attribute(row[name])
                for name in attribute_columns
                if row.get(name) not in (None, "")
            }
            case_id = (row.get(schema.case_column) or "").strip() if has_case_column else ""
            staged.append((timestamp, row_no, activity, attributes, case_id))
    if not staged:
        raise InputError(f"{path}: empty log")
    filled = sum(1 for item in staged if item[4])
    if has_case_column and 0 < filled < len(staged):
        raise InputError(f"{path}: case column is only partially filled ({filled}/{len(staged)})")
    staged.sort()  # the row numbers are unique, so no tuple is compared past its row number
    stream = build_uncorrelated_log([(act, ts, attrs) for ts, _no, act, attrs, _cid in staged])
    if not has_case_column or filled == 0:
        return stream
    assignment = {index: item[4] for index, item in enumerate(staged, start=1)}
    return correlate(stream, assignment)


def write_log_csv(
    log: EventLog | UncorrelatedLog, path: str, schema: LogFileSchema | None = None
) -> None:
    """Write a log; round-trips with :func:`read_log_csv` under the same schema."""
    schema = schema or LogFileSchema()
    correlated = isinstance(log, EventLog)
    stream = log.base if correlated else log
    attribute_columns = sorted({name for e in stream.events for name in e.attributes})
    reserved = {schema.case_column, schema.activity_column, schema.timestamp_column}
    clash = reserved & set(attribute_columns)
    if clash:
        raise InputError(f"attribute names collide with bound columns: {sorted(clash)}")
    header = ([schema.case_column] if correlated else []) + [
        schema.activity_column,
        schema.timestamp_column,
        *attribute_columns,
    ]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for event in stream.events:
            row = []
            if correlated:
                row.append(log.assignment[event.index])
            row.append(event.activity)
            row.append(format_timestamp(event.timestamp, schema.timestamp_format))
            row.extend(str(event.attributes.get(name, "")) for name in attribute_columns)
            writer.writerow(row)


def _local_name(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _child_text(element: ElementTree.Element, child: str) -> str | None:
    """The stripped ``<text>`` of ``element``'s ``child`` element (the last one), if any."""
    text = None
    for sub in element:
        if _local_name(sub.tag) == child:
            for grandchild in sub:
                if _local_name(grandchild.tag) == "text":
                    text = (grandchild.text or "").strip()
    return text


def read_pnml(path: str) -> WorkflowNet:
    """Read the place/transition/arc core of a PNML file.

    A transition with an empty or missing name is silent.  Namespaces and page
    nesting are tolerated.  An arc inscription other than 1, a second arc
    between the same two nodes, or an initial marking other than one token on
    the source place would be misread and raises InputError.  Other elements
    are ignored.
    """
    try:
        root = ElementTree.parse(path).getroot()
    except ElementTree.ParseError as exc:
        raise InputError(f"{path}: not well-formed XML: {exc}") from exc
    places: list[str] = []
    transitions: list[Transition] = []
    arcs: dict[tuple[str, str], None] = {}  # an ordered set
    marked: dict[str, str] = {}  # place -> initial marking text, for nonzero markings
    found_net = False
    for element in root.iter():
        name = _local_name(element.tag)
        if name == "net":
            found_net = True
        elif name == "place":
            pid = element.get("id")
            if not pid:
                raise InputError(f"{path}: place without id")
            places.append(pid)
            marking = _child_text(element, "initialMarking")
            if marking is not None and parse_int(marking) != 0:
                marked[pid] = marking
        elif name == "transition":
            tid = element.get("id")
            if not tid:
                raise InputError(f"{path}: transition without id")
            transitions.append(Transition(tid=tid, label=_child_text(element, "name") or None))
        elif name == "arc":
            source, target = element.get("source"), element.get("target")
            if not source or not target:
                raise InputError(f"{path}: arc without source/target")
            arc = element.get("id") or f"{source}->{target}"
            weight = _child_text(element, "inscription")
            if weight is not None and parse_int(weight) != 1:
                raise InputError(f"{path}: arc {arc} has inscription {weight!r}, expected 1")
            if (source, target) in arcs:
                raise InputError(f"{path}: arc {arc} repeats an arc from {source} to {target}")
            arcs[source, target] = None
    if not found_net:
        raise InputError(f"{path}: no <net> element")
    if not places or not transitions:
        raise InputError(f"{path}: net needs at least one place and one transition")
    net = WorkflowNet(places=places, transitions=transitions, arcs=arcs)
    for pid, marking in marked.items():
        if net._sources != (pid,) or parse_int(marking) != 1:
            raise InputError(
                f"{path}: place {pid} has initial marking {marking!r};"
                " only one token on the source place is supported"
            )
    return net


def read_rules_file(path: str) -> RuleSet:
    with open(path, encoding="utf-8") as handle:
        return parse_rules(handle.read())


def write_rules_file(ruleset: RuleSet, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(pretty_rules(ruleset))


def write_iteration_trace(records: Sequence[IterationRecord], path: str) -> None:
    """One CSV row per population slot per iteration, sorted by (s_curr, slot).

    The columns are :class:`IterationRecord`'s fields in order; floats are
    written with ``repr``, ints and bools as integers.
    """
    ordered = sorted(records, key=lambda r: (r.s_curr, r.slot))
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([f.name for f in fields(IterationRecord)])
        for r in ordered:
            writer.writerow([repr(v) if isinstance(v, float) else int(v) for v in astuple(r)])


def write_report(report: MeasureReport, path: str, fmt: str = "text") -> None:
    """Write a measure report as a key:value block or a one-row CSV."""
    if fmt == "text":
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(report.to_text())
        return
    if fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(report.FIELDS)
            writer.writerow([repr(getattr(report, name)) for name in report.FIELDS])
        return
    raise InputError(f"unknown report format {fmt!r}")
