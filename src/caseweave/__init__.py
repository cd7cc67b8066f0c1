"""caseweave: correlate uncorrelated event streams into cases.

The pipeline: load an event stream and a workflow net, optionally a rule file,
run the annealing correlator, then score the produced case structure against a
reference log or feed it onward.  A simulator generates ground-truth logs for
benchmarking.
"""

from .annealer import (
    AnnealerConfig,
    AnnealerResult,
    Individual,
    IterationRecord,
    StreamDecoder,
    acceptance_prob,
    cooling,
    delta_cost,
    duration_means,
    evaluate_individual,
    initial_individual,
    neighbor,
    run,
    select_next,
    time_variance,
)
from .logio import (
    format_timestamp,
    parse_timestamp,
    read_log_csv,
    read_pnml,
    read_rules_file,
    write_iteration_trace,
    write_log_csv,
    write_report,
    write_rules_file,
)
from .measures import (
    MeasureReport,
    edit_distance_ins_del,
    evaluate,
    l2l_2gram,
    l2l_3gram,
    l2l_case,
    l2l_first,
    l2l_freq,
    l2l_trace,
    min_matching_cost,
    smape_ct,
    smape_et,
)
from .model import (
    Case,
    Event,
    EventLog,
    InputError,
    UncorrelatedLog,
    build_uncorrelated_log,
    correlate,
    cycle_time,
    elapsed_time,
    strip_case_ids,
)
from .rules import (
    RuleSet,
    RuleSyntaxError,
    parse_rules,
    pretty_rules,
    rule_cost,
    score,
    score_each,
)
from .simulate import SimulationConfig, estimate_cycle_time, simulate_case, simulate_log
from .wfnet import (
    Alignment,
    AlignmentCache,
    BudgetExceeded,
    Move,
    Transition,
    ValidationReport,
    WorkflowNet,
    advance,
    align_trace,
    enabled_activities,
    infer_start_activity,
    is_final,
    log_alignment_cost,
    validate_net,
)

__version__ = "0.1.0"
