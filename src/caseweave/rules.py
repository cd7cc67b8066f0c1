"""Correlation constraint DSL: parsing, printing, and evaluation.

Three rule shapes, one per line, ``#`` starts a comment:

    e[i].Attr == e[i-1].Attr
    IF <cond> AND <cond> ... THEN <boolean tree over consequences>
    IF <cond> AND <cond> ... THEN <min> <= duration <= <max>

Conditions compare ``e[i]`` or ``e[j]`` attributes against constants.
Consequences compare ``e[j]`` against a constant or ``e[i]`` against ``e[j]``
attribute-to-attribute, combined with AND/OR and parentheses.  ``e[j]`` is the
closest earlier event whose conditions hold; rules that never mention ``e[j]``
in their conditions read it as the immediate predecessor.  ``IfThenRule.uses_j``
is derived from the conditions, so the two cannot disagree.  Duration rules
bound the minutes between ``e[i]`` and its predecessor.

Attribute names resolve against the event payload; ``Act`` is the activity and
``Ts`` the timestamp.  A comparison with a missing attribute is unsatisfied,
never an error, and nothing records it: evaluation returns counts only.  Both
sides parsing as integers compare numerically, anything else compares as
strings.

Evaluation answers two questions.  How many rules does an event keep if it is
appended to a candidate case?  ``score_each`` answers it for every candidate at
once, and the decoder breaks ties with the count.  What share of the rules a
case triggers does it violate?  ``case_verdicts`` answers it from one walk per
rule, or from a memo of earlier walks, and ``rule_cost`` averages the shares
into the energy ``fr``, summed exactly and rounded once.  Both read a rule on an
event after the earlier events of its case in two sides.  The event side reads
the event alone: whether the ``e[i]`` conditions hold, and a plain rule's own
operand.  The anchor side then reads the case: the rule does not apply (no
earlier event meets the ``e[j]`` conditions), applies at a first event with no
predecessor to read, or its consequence holds or fails against the anchor.  An
event keeps a rule where the consequence holds; a case triggers a rule where
some event applies, and violates it where one fails.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Sequence, Union

from .model import Case, Event, EventLog, InputError, Scalar

class RuleSyntaxError(InputError):
    """Rule text that does not parse; message carries line and column."""


@dataclass(frozen=True)
class Comparison:
    """One comparison: ``subject`` is "i" or "j"; constant or i-vs-j form.

    ``rhs_attr`` set means the right side is ``e[j].rhs_attr`` (and subject is
    "i"); otherwise ``value`` is the constant right side.
    """

    subject: str
    attr: str
    op: str
    value: Scalar | None = None
    rhs_attr: str | None = None


@dataclass(frozen=True)
class And:
    items: tuple["Expr", ...]


@dataclass(frozen=True)
class Or:
    items: tuple["Expr", ...]


Expr = Union[Comparison, And, Or]


@dataclass(frozen=True)
class EqRule:
    """Attribute must match the immediate predecessor's."""

    label: str
    attribute: str


@dataclass(frozen=True)
class IfThenRule:
    label: str
    conditions: tuple[Comparison, ...]
    consequence: Expr

    @functools.cached_property
    def uses_j(self) -> bool:
        """Whether a condition reads ``e[j]``; else ``e[j]`` is the immediate predecessor."""
        return any(c.subject == "j" for c in self.conditions)


@dataclass(frozen=True)
class EventTimeRule:
    label: str
    conditions: tuple[Comparison, ...]
    dur_min: int
    dur_max: int


Rule = Union[EqRule, IfThenRule, EventTimeRule]


@dataclass(frozen=True)
class RuleSet:
    rules: tuple[Rule, ...]

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)


# ---------------------------------------------------------------------------
# Tokenizer and parser


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t]+)
    | (?P<eref>e\[i-1\]|e\[i\]|e\[j\])
    | (?P<op><=|>=|==|!=|<|>)
    | (?P<int>-?\d+)
    | (?P<string>"[^"\n]*")
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<dot>\.)
    | (?P<lparen>\()
    | (?P<rparen>\))
    """,
    re.VERBOSE,
)

_KEYWORDS = {"IF", "THEN", "AND", "OR", "duration"}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize_line(text: str, line_no: int) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        if text[pos] == "#":
            break
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise RuleSyntaxError(f"line {line_no}, column {pos + 1}: unexpected {text[pos]!r}")
        kind = m.lastgroup or ""
        if kind != "ws":
            token_text = m.group()
            if kind == "name" and token_text in _KEYWORDS:
                kind = "kw"
            tokens.append(_Token(kind, token_text, line_no, pos + 1))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], line_no: int) -> None:
        self.tokens = tokens
        self.line_no = line_no
        self.pos = 0

    def _err(self, message: str) -> RuleSyntaxError:
        col = self.tokens[self.pos].col if self.pos < len(self.tokens) else (
            self.tokens[-1].col + len(self.tokens[-1].text) if self.tokens else 1
        )
        return RuleSyntaxError(f"line {self.line_no}, column {col}: {message}")

    def peek(self, kind: str | None = None, text: str | None = None) -> _Token | None:
        if self.pos >= len(self.tokens):
            return None
        tok = self.tokens[self.pos]
        if kind is not None and tok.kind != kind:
            return None
        if text is not None and tok.text != text:
            return None
        return tok

    def take(self, kind: str, text: str | None = None, what: str = "") -> _Token:
        tok = self.peek(kind, text)
        if tok is None:
            raise self._err(f"expected {what or text or kind}")
        self.pos += 1
        return tok

    def number(self, tok: _Token) -> int:
        try:
            return parse_int(tok.text)  # type: ignore[return-value]  # an int token matches
        except InputError as exc:
            raise RuleSyntaxError(f"line {tok.line}, column {tok.col}: {exc}") from None

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    # attr: bare identifier or quoted string
    def parse_attr(self) -> str:
        tok = self.peek("name") or self.peek("string")
        if tok is None:
            raise self._err("expected an attribute name")
        self.pos += 1
        return tok.text[1:-1] if tok.kind == "string" else tok.text

    def parse_const(self) -> Scalar:
        tok = self.peek("string") or self.peek("int") or self.peek("name")
        if tok is None:
            raise self._err("expected a constant")
        self.pos += 1
        if tok.kind == "string":
            return tok.text[1:-1]
        if tok.kind == "int":
            return self.number(tok)
        return tok.text  # bare word constant reads as a string

    def parse_rule(self, label: str) -> Rule:
        if self.peek("kw", "IF"):
            return self.parse_if_rule(label)
        return self.parse_eq_rule(label)

    def parse_eq_rule(self, label: str) -> EqRule:
        lead = self.take("eref", what="e[i]")
        if lead.text != "e[i]":
            raise self._err("plain attribute rules start with e[i]")
        self.take("dot", what=".")
        attr = self.parse_attr()
        self.take("op", "==", what="==")
        rhs = self.take("eref", what="e[i-1]")
        if rhs.text != "e[i-1]":
            raise self._err("plain attribute rules compare against e[i-1]")
        self.take("dot", what=".")
        rhs_attr = self.parse_attr()
        if rhs_attr != attr:
            raise self._err(f"attribute mismatch: {attr} vs {rhs_attr}")
        if not self.at_end():
            raise self._err("unexpected trailing input")
        return EqRule(label=label, attribute=attr)

    def parse_if_rule(self, label: str) -> Rule:
        self.take("kw", "IF")
        conditions = [self.parse_condition()]
        while self.peek("kw", "AND"):
            self.pos += 1
            conditions.append(self.parse_condition())
        self.take("kw", "THEN", what="THEN")
        if self.peek("int") is not None:
            rule = self.parse_duration_tail(label, tuple(conditions))
        else:
            rule = IfThenRule(label, tuple(conditions), self.parse_or())
        if not self.at_end():
            raise self._err("unexpected trailing input")
        return rule

    def parse_condition(self) -> Comparison:
        ref = self.take("eref", what="e[i] or e[j]")
        if ref.text == "e[i-1]":
            raise self._err("conditions may reference e[i] or e[j] only")
        subject = "i" if ref.text == "e[i]" else "j"
        self.take("dot", what=".")
        attr = self.parse_attr()
        op = self.take("op", what="a comparison operator").text
        value = self.parse_const()
        return Comparison(subject=subject, attr=attr, op=op, value=value)

    def parse_duration_tail(self, label: str, conditions: tuple[Comparison, ...]) -> EventTimeRule:
        if any(c.subject == "j" for c in conditions):
            raise self._err("duration rules may not constrain e[j]")
        lo = self.number(self.take("int"))
        self.take("op", "<=", what="<=")
        self.take("kw", "duration", what="duration")
        self.take("op", "<=", what="<=")
        hi = self.number(self.take("int"))
        if lo > hi:
            raise self._err(f"empty duration range [{lo}, {hi}]")
        return EventTimeRule(label=label, conditions=conditions, dur_min=lo, dur_max=hi)

    # consequence grammar: OR of ANDs of atoms, parentheses regroup
    def parse_or(self) -> Expr:
        items = [self.parse_and()]
        while self.peek("kw", "OR"):
            self.pos += 1
            items.append(self.parse_and())
        return items[0] if len(items) == 1 else Or(tuple(items))

    def parse_and(self) -> Expr:
        items = [self.parse_atom()]
        while self.peek("kw", "AND"):
            self.pos += 1
            items.append(self.parse_atom())
        return items[0] if len(items) == 1 else And(tuple(items))

    def parse_atom(self) -> Expr:
        if self.peek("lparen"):
            self.pos += 1
            inner = self.parse_or()
            self.take("rparen", what=")")
            return inner
        ref = self.take("eref", what="e[i] or e[j]")
        if ref.text == "e[i-1]":
            raise self._err("consequences may reference e[i] or e[j] only")
        self.take("dot", what=".")
        attr = self.parse_attr()
        op = self.take("op", what="a comparison operator").text
        if ref.text == "e[i]":
            rhs = self.take("eref", what="e[j]")
            if rhs.text != "e[j]":
                raise self._err("attribute-to-attribute consequences compare e[i] with e[j]")
            self.take("dot", what=".")
            rhs_attr = self.parse_attr()
            return Comparison(subject="i", attr=attr, op=op, rhs_attr=rhs_attr)
        value = self.parse_const()
        return Comparison(subject="j", attr=attr, op=op, value=value)


def parse_rules(text: str) -> RuleSet:
    """Parse rule text; labels are C1, C2, ... in line order."""
    rules: list[Rule] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(raw, line_no)
        if not tokens:
            continue
        parser = _Parser(tokens, line_no)
        rules.append(parser.parse_rule(f"C{len(rules) + 1}"))
    return RuleSet(rules=tuple(rules))


# ---------------------------------------------------------------------------
# Pretty printing (canonical form; parse(pretty(rs)) == rs)


_BARE_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


def _fmt_attr(attr: str) -> str:
    return attr if _BARE_NAME.fullmatch(attr) and attr not in _KEYWORDS else f'"{attr}"'


def _fmt_const(value: Scalar) -> str:
    return str(value) if isinstance(value, int) else f'"{value}"'


def _fmt_comparison(c: Comparison) -> str:
    lhs = f"e[{c.subject}].{_fmt_attr(c.attr)}"
    if c.rhs_attr is not None:
        return f"{lhs} {c.op} e[j].{_fmt_attr(c.rhs_attr)}"
    return f"{lhs} {c.op} {_fmt_const(c.value)}"


def _fmt_expr(expr: Expr, parent: str = "or") -> str:
    if isinstance(expr, Comparison):
        return _fmt_comparison(expr)
    if isinstance(expr, And):
        return " AND ".join(_fmt_expr(item, "and") for item in expr.items)
    body = " OR ".join(_fmt_expr(item, "or") for item in expr.items)
    return f"({body})" if parent == "and" else body


def pretty_rules(ruleset: RuleSet) -> str:
    lines = []
    for rule in ruleset.rules:
        if isinstance(rule, EqRule):
            attr = _fmt_attr(rule.attribute)
            lines.append(f"e[i].{attr} == e[i-1].{attr}")
        elif isinstance(rule, EventTimeRule):
            conds = " AND ".join(_fmt_comparison(c) for c in rule.conditions)
            lines.append(f"IF {conds} THEN {rule.dur_min} <= duration <= {rule.dur_max}")
        else:
            conds = " AND ".join(_fmt_comparison(c) for c in rule.conditions)
            lines.append(f"IF {conds} THEN {_fmt_expr(rule.consequence)}")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Evaluation


_INT_RE = re.compile(r"-?\d+$")


def parse_int(text: str) -> int | None:
    """The integer ``text`` spells (an optional minus, then digits only), or None.

    Digits past the interpreter's limit for converting text to int raise
    InputError.
    """
    if not _INT_RE.fullmatch(text):
        return None
    try:
        return int(text)
    except ValueError:  # text the pattern matched fails only on its length
        raise InputError(f"integer of {len(text)} characters is too long to read") from None


# Memoised: a stream repeats few attribute values across many comparisons.
_str_as_int = functools.lru_cache(maxsize=4096)(parse_int)


def _as_int(value: Scalar) -> int | None:
    if isinstance(value, str):
        return _str_as_int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    return None


def _compare(lhs: Scalar | None, op: str, rhs: Scalar | None) -> bool:
    """Missing operands are never satisfied; ints beat lexicographic order."""
    if lhs is None or rhs is None:
        return False
    li, ri = _as_int(lhs), _as_int(rhs)
    a, b = (li, ri) if li is not None and ri is not None else (str(lhs), str(rhs))
    if op == "==":
        return a == b
    if op == "!=":
        return a != b
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    return a >= b


def _attr_value(event: Event, name: str) -> Scalar | None:
    if name == "Act":
        return event.activity
    if name == "Ts":
        return event.timestamp
    return event.attributes.get(name)


def _conds_hold(conditions: tuple[Comparison, ...], subject: str, event: Event) -> bool:
    return all(
        _compare(_attr_value(event, c.attr), c.op, c.value)
        for c in conditions
        if c.subject == subject
    )


def _eval_expr(expr: Expr, e_i: Event, e_j: Event) -> bool:
    if isinstance(expr, Comparison):
        if expr.rhs_attr is not None:
            return _compare(_attr_value(e_i, expr.attr), expr.op, _attr_value(e_j, expr.rhs_attr))
        return _compare(_attr_value(e_j, expr.attr), expr.op, expr.value)
    if isinstance(expr, And):
        return all(_eval_expr(item, e_i, e_j) for item in expr.items)
    return any(_eval_expr(item, e_i, e_j) for item in expr.items)


# Verdict of a rule that applies at the first event of a case but reads its missing
# predecessor: the rule triggers, and is neither kept nor broken.
_UNANCHORED = object()


def _read_event(rule: Rule, event: Event) -> tuple[bool, object]:
    """Event side: whether the rule applies to ``event``, and a plain rule's own operand."""
    if isinstance(rule, EqRule):
        return True, _attr_value(event, rule.attribute)
    return _conds_hold(rule.conditions, "i", event), None


def _read_anchor(
    rule: Rule, event: Event, operand: object, events: Sequence[Event], k: int
) -> object:
    """Anchor side: the verdict of a rule that applies to ``event`` read after ``events[:k]``."""
    if isinstance(rule, IfThenRule) and rule.uses_j:
        for m in range(k - 1, -1, -1):  # the closest earlier event meeting e[j]
            if _conds_hold(rule.conditions, "j", events[m]):
                anchor = events[m]
                break
        else:
            return None
    elif k:
        anchor = events[k - 1]
    else:
        return _UNANCHORED
    if isinstance(rule, EqRule):
        return _compare(operand, "==", _attr_value(anchor, rule.attribute))
    if isinstance(rule, EventTimeRule):
        return rule.dur_min <= event.timestamp - anchor.timestamp <= rule.dur_max
    return _eval_expr(rule.consequence, event, anchor)


def _walk(rule: Rule, events: tuple[Event, ...]) -> tuple[bool, bool]:
    """(triggered, violated) from one pass over a case, stopping at the first violation."""
    triggered = False
    for k, event in enumerate(events):
        applies, operand = _read_event(rule, event)
        if not applies:
            continue
        verdict = _read_anchor(rule, event, operand, events, k)
        if verdict is False:
            return True, True
        triggered = triggered or verdict is not None
    return triggered, False


def score_each(
    rules: RuleSet, event: Event, histories: Sequence[Sequence[Event]]
) -> list[int]:
    """``score`` of ``event`` after each history, reading the event once per rule.

    The event is read as the tentative last event of each history.  A rule whose
    conditions do not apply scores 0, not 1: vacuous truth earns nothing, and
    neither does a comparison with a missing attribute.  The scores are all it
    returns, and it changes nothing.
    """
    scores = [0] * len(histories)
    for rule in rules:
        applies, operand = _read_event(rule, event)
        if applies:
            for n, events in enumerate(histories):
                if _read_anchor(rule, event, operand, events, len(events)) is True:
                    scores[n] += 1
    return scores


def score(rules: RuleSet, event: Event, case: Case) -> int:
    """Number of rules the tentative assignment of ``event`` to ``case`` satisfies."""
    return score_each(rules, event, (case.events,))[0]


def case_verdicts(
    rules: RuleSet, events: Sequence[Event],
    memo: dict[tuple[int, ...], tuple[int, int]] | None = None,
) -> tuple[int, int]:
    """One case's (triggered, violated) rule counts, from one walk per rule.

    ``memo`` maps a case's event indices to its counts, so one memo serves one
    stream under one rule set.  The counts are all a walk yields, so a memo hit
    answers exactly as the walk it saves.
    """
    if not rules.rules:
        return (0, 0)
    key = tuple([e.index for e in events])
    counts = None if memo is None else memo.get(key)
    if counts is None:
        walks = [_walk(rule, events) for rule in rules]
        counts = (sum(f for f, _ in walks), sum(b for _, b in walks))
        if memo is not None:
            memo[key] = counts
    return counts


def violation_scale(rules: RuleSet) -> int:
    """lcm(1..|rules|): times this, every case's violated/triggered share is an integer."""
    return math.lcm(*range(1, len(rules.rules) + 1))


def violation_share(counts: tuple[int, int], scale: int) -> int:
    """A case's violated/triggered share times ``scale``, exactly; 0 if it triggers nothing."""
    triggered, violated = counts
    return violated * scale // triggered if triggered else 0


def mean_violation(total: int, scale: int, cases: int) -> float:
    """The mean of ``cases`` shares whose scaled sum is ``total``, rounded to a float once."""
    return total / (scale * cases) if cases else 0.0


def rule_cost(
    log: EventLog, rules: RuleSet,
    memo: dict[tuple[int, ...], tuple[int, int]] | None = None,
) -> float:
    """Mean over cases of (violated triggered rules / triggered rules).

    Cases that trigger nothing contribute 0.  Always within [0, 1].  The mean
    is summed exactly and rounded once.  ``memo`` is :func:`case_verdicts`'s.
    """
    if not rules.rules or not log.cases:
        return 0.0
    scale = violation_scale(rules)
    total = sum(
        violation_share(case_verdicts(rules, case.events, memo), scale) for case in log.cases
    )
    return mean_violation(total, scale, len(log.cases))
