"""File formats: event log CSV, PNML nets, rule files, run traces, reports.

CSV logs bind three fixed columns (``case_id``, optional, then ``activity`` and
``timestamp``); every other column is an event attribute.  Timestamps are
minutes since 1970-01-01T00:00 internally; parsing uses a configurable strptime
format and rounds sub-minute remainders half up.  Writing puts every ``%Y`` year
in four digits, so years 1 to 9999 read back in any format.

The default format skips ``strptime`` and ``strftime``: a row's date goes
through one of two per-day memos (day text to its first minute, day number
to its text), and its hour and minute are plain arithmetic.  Both memos are
bounded and keyed by the day alone, so a log costs one date conversion per
distinct day.  The reader looks cells up by the header's column indices and
parses each distinct attribute text once per file.
"""

from __future__ import annotations

import csv
import functools
import re
from dataclasses import astuple, fields
from datetime import date, datetime, timedelta
from typing import Iterator, Sequence
from xml.etree import ElementTree

from .annealer import IterationRecord
from .measures import MeasureReport
from .model import EventLog, InputError, Scalar, UncorrelatedLog, _number_events, correlate
from .rules import RuleSet, parse_int, parse_rules, pretty_rules
from .wfnet import DEFAULT_MARKING_BUDGET, Transition, WorkflowNet

DEFAULT_TIMESTAMP_FORMAT = "%Y-%m-%d %H:%M"

# The bound columns of a log CSV; every other column is an event attribute.
CASE_COLUMN = "case_id"
ACTIVITY_COLUMN = "activity"
TIMESTAMP_COLUMN = "timestamp"
_BOUND = (CASE_COLUMN, ACTIVITY_COLUMN, TIMESTAMP_COLUMN)

_EPOCH = datetime(1970, 1, 1)


# DEFAULT_TIMESTAMP_FORMAT's fixed-width spelling, in ASCII digits (``\d`` takes others too).
_DEFAULT_TIMESTAMP_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2} [0-9]{2}:[0-9]{2}")

_EPOCH_DAY = _EPOCH.date()


@functools.lru_cache(maxsize=1024)
def _day_start(day: str) -> int | None:
    """Minutes from the epoch to the start of ``YYYY-MM-DD``, or None for no such day."""
    try:
        return (date(int(day[:4]), int(day[5:7]), int(day[8:])) - _EPOCH_DAY).days * 1440
    except ValueError:
        return None


@functools.lru_cache(maxsize=1024)
def _day_text(days: int) -> str:
    """The day ``days`` after the epoch as ``YYYY-MM-DD``, its year in four digits."""
    day = _EPOCH_DAY + timedelta(days=days)
    return f"{day.year:04d}-{day.month:02d}-{day.day:02d}"


def parse_timestamp(text: str, fmt: str = DEFAULT_TIMESTAMP_FORMAT) -> int:
    """Wall-clock text to integer minutes; seconds of 30+ round up.

    Text in the default format's fixed width is read by slicing, its day
    through the day memo; anything else, an impossible date or time included,
    goes through ``strptime``.
    """
    stripped = text.strip()
    if fmt == DEFAULT_TIMESTAMP_FORMAT and _DEFAULT_TIMESTAMP_RE.fullmatch(stripped):
        day = _day_start(stripped[:10])
        hour, minute = int(stripped[11:13]), int(stripped[14:])
        if day is not None and hour < 24 and minute < 60:
            return day + 60 * hour + minute
    try:
        moment = datetime.strptime(stripped, fmt)
    except ValueError as exc:  # strptime's message names what is wrong
        raise InputError(f"bad timestamp {text!r}: {exc}") from exc
    delta = moment - _EPOCH
    seconds = delta.days * 86400 + delta.seconds
    minutes, remainder = divmod(seconds, 60)
    return minutes + (1 if remainder >= 30 else 0)


# A %Y directive, or an escaped % that keeps a following Y literal.
_YEAR_OR_PERCENT = re.compile(r"%[%Y]")


def format_timestamp(minutes: int, fmt: str = DEFAULT_TIMESTAMP_FORMAT) -> str:
    """Integer minutes to wall-clock text; ``%Y`` writes the year in four digits."""
    if fmt == DEFAULT_TIMESTAMP_FORMAT:
        days, minute = divmod(minutes, 1440)
        hour, minute = divmod(minute, 60)
        return f"{_day_text(days)} {hour:02d}:{minute:02d}"
    moment = _EPOCH + timedelta(minutes=minutes)
    year = f"{moment.year:04d}"  # strftime writes year 5 as 5, which strptime's %Y refuses
    return moment.strftime(_YEAR_OR_PERCENT.sub(lambda m: year if m[0] == "%Y" else "%%", fmt))


def _parse_attribute(text: str) -> Scalar:
    """An int where the cell is how ``str`` writes it, else the cell's text.

    Another integer spelling (``007``, ``-0``, `` 7``) keeps its text, so a
    read and write leaves it as it was; the rules still read ``007`` as 7.
    """
    number = parse_int(text)
    return number if number is not None and str(number) == text else text


def _not_utf8(path: str) -> InputError:
    """The refusal of a file that is not UTF-8, naming the line of its first bad byte."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        # \n, \r and \r\n each end a line, as csv counts them
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        return InputError(f"{path}:{line}: not UTF-8: byte {data[exc.start]:#04x}, {exc.reason}")
    return InputError(f"{path}: not UTF-8")  # the file changed since it was read


def read_log_csv(
    path: str, timestamp_format: str = DEFAULT_TIMESTAMP_FORMAT
) -> UncorrelatedLog | EventLog:
    """Read a log; the case column decides correlated vs uncorrelated.

    Cells are found by their column's place in the header.  Blank rows are
    skipped, a short row reads as empty cells and extra cells are ignored.
    A case column that exists but is only partially filled is an error; a
    fully empty one reads as uncorrelated.  An empty attribute cell reads as
    a missing attribute; the stream keeps the header's attribute columns as
    its ``attribute_names``, so a column with no filled cell is written back.
    A repeated column name, a byte that is not UTF-8 and a bad row raise
    InputError naming the file and line.
    """
    staged: list[tuple[int, int, str, dict[str, Scalar], str]] = []
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, [])
            for required in (ACTIVITY_COLUMN, TIMESTAMP_COLUMN):
                if required not in header:
                    raise InputError(f"{path}: missing column {required!r}")
            column = {name: at for at, name in enumerate(header)}
            if len(column) < len(header):
                repeated = next(name for at, name in enumerate(header) if column[name] != at)
                raise InputError(f"{path}:{reader.line_num}: column {repeated!r} is repeated")
            activity_at = column[ACTIVITY_COLUMN]
            timestamp_at = column[TIMESTAMP_COLUMN]
            case_at = column.get(CASE_COLUMN)
            attribute_at = [(name, at) for name, at in column.items() if name not in _BOUND]
            width = len(header)
            parsed: dict[str, Scalar] = {}  # each distinct attribute text, parsed once
            try:
                for row in reader:
                    if not row:
                        continue
                    if len(row) < width:
                        row += [""] * (width - len(row))
                    activity = row[activity_at].strip()
                    if not activity:
                        raise InputError("missing activity")
                    raw_ts = row[timestamp_at].strip()
                    if not raw_ts:
                        raise InputError("missing timestamp")
                    timestamp = parse_timestamp(raw_ts, timestamp_format)
                    attributes = {}
                    for name, at in attribute_at:
                        cell = row[at]
                        if cell:
                            value = parsed.get(cell)
                            if value is None:
                                value = parsed[cell] = _parse_attribute(cell)
                            attributes[name] = value
                    case_id = row[case_at].strip() if case_at is not None else ""
                    staged.append((timestamp, reader.line_num, activity, attributes, case_id))
            except InputError as exc:
                raise InputError(f"{path}:{reader.line_num}: {exc}") from exc
    except csv.Error as exc:
        raise InputError(f"{path}:{reader.line_num}: {exc}") from exc
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    if not staged:
        raise InputError(f"{path}: empty log")
    filled = sum(1 for item in staged if item[4])
    if 0 < filled < len(staged):
        raise InputError(f"{path}: case column is only partially filled ({filled}/{len(staged)})")
    staged.sort()  # the line numbers are unique, so no tuple is compared past its line number
    stream = _number_events(staged, tuple(name for name, _at in attribute_at))
    if filled == 0:
        return stream
    assignment = {index: item[4] for index, item in enumerate(staged, start=1)}
    return correlate(stream, assignment)


def write_log_csv(
    log: EventLog | UncorrelatedLog, path: str, timestamp_format: str = DEFAULT_TIMESTAMP_FORMAT
) -> None:
    """Write a log; round-trips with :func:`read_log_csv` under the same timestamp format.

    The attribute columns are the stream's ``attribute_names`` and every
    attribute an event holds, sorted.
    """
    correlated = isinstance(log, EventLog)
    stream = log.base if correlated else log
    attribute_columns = sorted(
        {*stream.attribute_names, *(name for e in stream.events for name in e.attributes)}
    )
    clash = set(_BOUND) & set(attribute_columns)
    if clash:
        raise InputError(f"attribute names collide with bound columns: {sorted(clash)}")
    header = ([CASE_COLUMN] if correlated else []) + [
        ACTIVITY_COLUMN,
        TIMESTAMP_COLUMN,
        *attribute_columns,
    ]

    def rows() -> Iterator[list[str]]:
        for event in stream.events:
            row = [event.activity, format_timestamp(event.timestamp, timestamp_format)]
            if correlated:
                row.insert(0, log.assignment[event.index])
            if attribute_columns:
                attributes = event.attributes
                row += [str(attributes.get(name, "")) for name in attribute_columns]
            yield row

    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows())


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


def read_pnml(path: str, marking_budget: int = DEFAULT_MARKING_BUDGET) -> WorkflowNet:
    """Read the place/transition/arc core of a PNML file into a net with ``marking_budget``.

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

    def count(text: str) -> int | None:
        try:
            return parse_int(text)
        except InputError as exc:
            raise InputError(f"{path}: {exc}") from None

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
            if marking is not None and count(marking) != 0:
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
            if weight is not None and count(weight) != 1:
                raise InputError(f"{path}: arc {arc} has inscription {weight!r}, expected 1")
            if (source, target) in arcs:
                raise InputError(f"{path}: arc {arc} repeats an arc from {source} to {target}")
            arcs[source, target] = None
    if not found_net:
        raise InputError(f"{path}: no <net> element")
    if not places or not transitions:
        raise InputError(f"{path}: net needs at least one place and one transition")
    net = WorkflowNet(places, transitions, arcs, marking_budget)
    for pid, marking in marked.items():
        if net._sources != (pid,) or count(marking) != 1:
            raise InputError(
                f"{path}: place {pid} has initial marking {marking!r};"
                " only one token on the source place is supported"
            )
    return net


def read_rules_file(path: str) -> RuleSet:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    try:
        return parse_rules(text)
    except InputError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


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
