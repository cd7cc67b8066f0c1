"""In-memory tracer that wraps caseweave's public functions from outside.

The tracer replaces a function by a wrapper at every place a caller looks it
up: each ``caseweave`` module attribute bound to the function object, or the
class attribute for a method.  Nothing inside the package changes, and the
wrappers draw from no RNG, so a traced run decodes exactly like an untraced
one.

Two kinds of boundary:

* hot boundaries see up to millions of calls per run; only per-name
  aggregates (calls, total time, self time, and an optional per-call sample
  sum) are kept;
* coarse boundaries see a handful of calls per operation; each call also
  leaves a full span (id, name, start, end, parent span id).

Self time is a call's duration minus the time spent in wrapped callees.  The
stack has a root frame, so the time spent inside any top-level wrapped call is
known, and ``wall - root_time`` is the time outside every span.
"""

from __future__ import annotations

import itertools
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Boundary:
    """One function to wrap.

    ``module`` and ``qualname`` locate the definition (``Class.method`` for a
    method).  ``sample`` maps the call's arguments to a number that is summed
    per name, for counters the timings alone do not give.
    """

    name: str
    module: str
    qualname: str
    coarse: bool = False
    sample: Callable[..., float] | None = None


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None


class Aggregate:
    __slots__ = ("calls", "total_s", "self_s", "sample_sum")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.sample_sum = 0.0


class Tracer:
    """Holds aggregates and spans in memory until the caller reads them."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.aggregates: dict[str, Aggregate] = {}
        self.spans: list[Span] = []
        # Each frame is [time spent in wrapped callees, id of the enclosing span].
        self._stack: list[list[Any]] = [[0.0, None]]
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []

    @property
    def root_time(self) -> float:
        """Total duration of the top-level wrapped calls."""
        return self._stack[0][0]

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        coarse: bool = False,
        sample: Callable[..., float] | None = None,
    ) -> Callable[..., Any]:
        agg = self.aggregates.setdefault(name, Aggregate())
        stack, clock, spans, ids = self._stack, self.clock, self.spans, self._ids

        def traced(*args: Any, **kwargs: Any) -> Any:
            if sample is not None:
                agg.sample_sum += sample(*args, **kwargs)
            parent = stack[-1]
            span_id = next(ids) if coarse else parent[1]
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[0] += duration
                agg.calls += 1
                agg.total_s += duration
                agg.self_s += duration - frame[0]
                if coarse:
                    spans.append(Span(span_id, name, start, end, parent[1]))

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def install(self, boundaries: list[Boundary]) -> None:
        """Patch every boundary; :meth:`uninstall` restores the originals."""
        modules = [
            m
            for n, m in list(sys.modules.items())
            if m is not None and (n == "caseweave" or n.startswith("caseweave."))
        ]
        for b in boundaries:
            owner: object = sys.modules[f"caseweave.{b.module}"]
            *classes, attr = b.qualname.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = vars(owner)[attr]
            wrapper = self.wrap(original, b.name, b.coarse, b.sample)
            if classes:
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner: object, attr: str, original: object, wrapper: object) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()


def _score_is_empty(rules: Any, *_args: Any, **_kwargs: Any) -> float:
    return float(not rules.rules)


def _cases_scanned(decoder: Any, event: Any) -> float:
    # step() opens a case for a start event without a scan; for any other
    # event it walks every case opened so far, closed ones included.
    if event.activity == decoder.start_activity:
        return 0.0
    return float(len(decoder.order))


def _suffix_events(_decoder: Any, stream: Any, _assignment: Any, cut: int) -> float:
    # replay_prefix loads events 1..cut-1; the neighbour re-decodes the rest.
    return float(len(stream) - cut + 1)


# The layers are caseweave's modules; names are <layer>.<boundary>.
BOUNDARIES: list[Boundary] = [
    Boundary("cli.main", "cli", "main", coarse=True),
    Boundary("logio.read_log_csv", "logio", "read_log_csv", coarse=True),
    Boundary("logio.write_log_csv", "logio", "write_log_csv", coarse=True),
    Boundary("logio.read_pnml", "logio", "read_pnml", coarse=True),
    Boundary("logio.read_rules_file", "logio", "read_rules_file", coarse=True),
    Boundary("logio.write_iteration_trace", "logio", "write_iteration_trace", coarse=True),
    Boundary("logio.write_report", "logio", "write_report", coarse=True),
    Boundary("simulate.simulate_log", "simulate", "simulate_log", coarse=True),
    Boundary("model.correlate", "model", "correlate", coarse=True),
    Boundary("annealer.run", "annealer", "run", coarse=True),
    Boundary("annealer.initial_individual", "annealer", "initial_individual", coarse=True),
    Boundary("annealer.neighbor", "annealer", "neighbor", coarse=True),
    Boundary(
        "annealer.replay_prefix", "annealer", "replay_prefix", coarse=True,
        sample=_suffix_events,
    ),
    Boundary("annealer.evaluate_individual", "annealer", "evaluate_individual", coarse=True),
    Boundary("annealer.time_variance", "annealer", "time_variance", coarse=True),
    Boundary("annealer.decoder_step", "annealer", "StreamDecoder.step", sample=_cases_scanned),
    Boundary("wfnet.enabled_activities", "wfnet", "enabled_activities"),
    Boundary("wfnet.advance", "wfnet", "advance"),
    Boundary("wfnet.is_final", "wfnet", "is_final"),
    Boundary("wfnet.log_alignment_cost", "wfnet", "log_alignment_cost", coarse=True),
    Boundary("wfnet.get_or_compute", "wfnet", "AlignmentCache.get_or_compute"),
    Boundary("wfnet.align_trace", "wfnet", "align_trace"),
    Boundary("rules.score", "rules", "score", sample=_score_is_empty),
    Boundary("rules.rule_cost", "rules", "rule_cost", coarse=True),
    Boundary("measures.evaluate", "measures", "evaluate", coarse=True),
    Boundary("measures.l2l_trace", "measures", "l2l_trace", coarse=True),
    Boundary("measures.l2l_freq", "measures", "l2l_freq", coarse=True),
    Boundary("measures.l2l_first", "measures", "l2l_first", coarse=True),
    Boundary("measures.l2l_2gram", "measures", "l2l_2gram", coarse=True),
    Boundary("measures.l2l_3gram", "measures", "l2l_3gram", coarse=True),
    Boundary("measures.l2l_case", "measures", "l2l_case", coarse=True),
    Boundary("measures.smape_et", "measures", "smape_et", coarse=True),
    Boundary("measures.smape_ct", "measures", "smape_ct", coarse=True),
    Boundary("measures.edit_distance", "measures", "edit_distance_ins_del"),
]

LAYERS = ("cli", "logio", "simulate", "model", "wfnet", "annealer", "rules", "measures")
