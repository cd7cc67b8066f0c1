"""Command line front end.

Subcommands: correlate, evaluate, simulate, check-rules, strip.  Exit codes:
0 success, 1 bad input or usage, 2 search budget exhausted.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .annealer import AnnealerConfig, run
from .logio import (
    DEFAULT_TIMESTAMP_FORMAT,
    read_log_csv,
    read_pnml,
    read_rules_file,
    write_iteration_trace,
    write_log_csv,
    write_report,
)
from .measures import evaluate
from .model import EventLog, InputError, UncorrelatedLog, strip_case_ids
from .rules import RuleSet
from .simulate import SimulationConfig, simulate_log
from .wfnet import DEFAULT_MARKING_BUDGET, BudgetExceeded, infer_start_activity, validate_net


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; keep 2 for budget exhaustion instead.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fraction(text: str) -> float:
    try:
        value = float(Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    return value


def _duration_spec(text: str) -> tuple[str, int, int]:
    """ACTIVITY=MEAN or ACTIVITY=MEAN:JITTER."""
    activity, sep, rest = text.partition("=")
    if not sep or not activity:
        raise argparse.ArgumentTypeError(f"expected ACTIVITY=MEAN[:JITTER], got {text!r}")
    mean_text, _sep, jitter_text = rest.partition(":")
    try:
        mean = int(mean_text)
        jitter = int(jitter_text) if jitter_text else 0
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad duration numbers in {text!r}") from exc
    return activity, mean, jitter


def _require_correlated(log: EventLog | UncorrelatedLog, path: str) -> EventLog:
    if not isinstance(log, EventLog):
        raise InputError(f"{path}: expected a correlated log with a case column")
    return log


def _load_net(path: str, marking_budget: int = DEFAULT_MARKING_BUDGET, start: bool = False):
    """Read and check a net; with ``start``, its start activity must lie on no cycle.

    The start check runs only on a net that passes the structural checks, as
    only such a net has the one source place the start activity is inferred from.
    """
    net = read_pnml(path, marking_budget)
    report = validate_net(net)
    if report.ok and start:
        try:
            start_activity = infer_start_activity(net)
        except InputError as exc:
            raise InputError(f"{path}: {exc}") from None
        report = validate_net(net, start_activity)
    if not report.ok:
        raise InputError(f"{path}: " + "; ".join(report.problems))
    return net


def _cmd_correlate(args: argparse.Namespace) -> int:
    log = read_log_csv(args.log, args.timestamp_format)
    if isinstance(log, EventLog):
        print(f"note: {args.log} already has case ids; they are ignored", file=sys.stderr)
        stream = strip_case_ids(log)
    else:
        stream = log
    config = AnnealerConfig(
        tau_init=args.tau_init,
        s_max=args.levels,
        population=args.population,
        seed=args.seed,
        state_budget=args.state_budget,
    )
    config.validate()  # before the net is read
    # the decoder opens a case at every start-activity event, so it may not recur in a case
    net = _load_net(args.model, args.marking_budget, start=True)
    rules = read_rules_file(args.rules) if args.rules else RuleSet(rules=())
    result = run(stream, net, rules, config)
    write_log_csv(result.best.log, args.out, args.timestamp_format)
    if args.trace_out:
        write_iteration_trace(result.records, args.trace_out)
    best = result.best
    print(
        f"correlated {len(stream)} events into {len(best.log.cases)} cases"
        f" (fa={best.fa}, fr={best.fr:.6f}, ft={best.ft:.6f}) -> {args.out}"
    )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    fmt = args.timestamp_format
    original = _require_correlated(read_log_csv(args.original, fmt), args.original)
    generated = _require_correlated(read_log_csv(args.generated, fmt), args.generated)
    report = evaluate(original, generated)
    sys.stdout.write(report.to_text())
    if args.out:
        write_report(report, args.out, args.format)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    net = _load_net(args.model)
    config = SimulationConfig(
        cases=args.cases,
        inter_arrival=args.inter_arrival,
        seed=args.seed,
        durations={activity: (mean, jitter) for activity, mean, jitter in args.duration},
    )
    log = simulate_log(net, config)
    write_log_csv(strip_case_ids(log) if args.strip else log, args.out, args.timestamp_format)
    kind = "uncorrelated" if args.strip else "correlated"
    print(f"simulated {len(log)} events in {len(log.cases)} cases ({kind}) -> {args.out}")
    return 0


def _cmd_check_rules(args: argparse.Namespace) -> int:
    rules = read_rules_file(args.rules)
    print(f"{len(rules)} rules parsed: {', '.join(r.label for r in rules)}")
    return 0


def _cmd_strip(args: argparse.Namespace) -> int:
    log = _require_correlated(read_log_csv(args.log, args.timestamp_format), args.log)
    write_log_csv(strip_case_ids(log), args.out, args.timestamp_format)
    print(f"stripped case ids from {len(log)} events -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="caseweave",
        description="Correlate event streams into cases, score the result, simulate test logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_timestamp_format(p: argparse.ArgumentParser) -> None:
        # argparse %-formats help strings, so the pattern must escape itself
        shown = repr(DEFAULT_TIMESTAMP_FORMAT).replace("%", "%%")
        p.add_argument(
            "--timestamp-format",
            default=DEFAULT_TIMESTAMP_FORMAT,
            help=f"strptime pattern for CSV timestamps (default {shown})",
        )

    defaults = AnnealerConfig()
    p = sub.add_parser("correlate", parents=[], help="assign case ids to an event stream")
    p.add_argument("--log", required=True, help="input CSV event stream")
    p.add_argument("--model", required=True, help="workflow net as PNML")
    p.add_argument("--rules", help="correlation rule file (optional)")
    p.add_argument("--out", required=True, help="output CSV with case ids")
    p.add_argument("--trace-out", help="iteration trace CSV")
    p.add_argument("--tau-init", type=float, default=defaults.tau_init)
    p.add_argument("--levels", type=int, default=defaults.s_max, help="annealing levels")
    p.add_argument("--population", type=int, default=defaults.population)
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--workers", type=int, choices=(1,), default=1,
                   help="kept for existing command lines; correlation runs on one thread")
    p.add_argument("--marking-budget", type=int, default=DEFAULT_MARKING_BUDGET,
                   help="max markings per silent-closure search and in the model's"
                   " reachability check")
    p.add_argument("--state-budget", type=int, default=defaults.state_budget,
                   help="max states per alignment search; a trace that replays on the"
                   " model costs 0 without a search")
    add_timestamp_format(p)
    p.set_defaults(func=_cmd_correlate)

    p = sub.add_parser("evaluate", help="compare a generated correlation against the original")
    p.add_argument("--original", required=True)
    p.add_argument("--generated", required=True)
    p.add_argument("--out", help="write the report to this file as well")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    add_timestamp_format(p)
    p.set_defaults(func=_cmd_evaluate)

    sim_defaults = SimulationConfig()
    p = sub.add_parser("simulate", help="generate a log by simulating a workflow net")
    p.add_argument("--model", required=True)
    p.add_argument("--cases", type=int, required=True)
    p.add_argument(
        "--inter-arrival",
        type=_fraction,
        default=sim_defaults.inter_arrival,
        help="release gap as a fraction of the mean cycle time, e.g. 0.25 or 1/4",
    )
    p.add_argument("--seed", type=int, default=sim_defaults.seed)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--duration",
        action="append",
        type=_duration_spec,
        default=[],
        metavar="ACT=MEAN[:JITTER]",
        help="duration model per activity, repeatable",
    )
    p.add_argument("--strip", action="store_true", help="drop case ids from the output")
    add_timestamp_format(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("check-rules", help="parse a rule file and report")
    p.add_argument("--rules", required=True)
    p.set_defaults(func=_cmd_check_rules)

    p = sub.add_parser("strip", help="remove case ids from a correlated CSV")
    p.add_argument("--log", required=True)
    p.add_argument("--out", required=True)
    add_timestamp_format(p)
    p.set_defaults(func=_cmd_strip)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"caseweave: search budget exhausted: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"caseweave: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"caseweave: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
