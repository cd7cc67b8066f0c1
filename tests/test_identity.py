"""Identity pins: the same seed gives the same correlation and the same measures.

Each pinned input is one benchmark shape simulated at one seed from the nets
and the rule file under ``fixtures/``: a loop net crowded with rule-scored
cases, the same net sparse and long, and a wide AND-split.  ``annealer.run``
correlates it with that seed.  The digest of the best assignment and the
iteration records (floats at 9 significant digits, so a drift in the last
float bits does not move it) and the ``float.hex`` of all eight measures of
the truth against the best must equal ``fixtures/identity.json``.  A run with
``debug_recompute`` must give the same records and the same best assignment.

A change that moves a pin on purpose regenerates the file with

    PYTHONPATH=src python tests/test_identity.py > tests/fixtures/identity.json
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import astuple
from pathlib import Path
from typing import NamedTuple

import pytest

from caseweave import AnnealerConfig, build_uncorrelated_log, correlate, evaluate, simulate_log
from caseweave.annealer import AnnealerResult, run as anneal
from caseweave.logio import read_pnml, read_rules_file
from caseweave.rules import RuleSet
from caseweave.simulate import SimulationConfig

FIXTURES = Path(__file__).parent / "fixtures"
PINS = FIXTURES / "identity.json"

MEASURES = (
    "l2l_trace", "l2l_freq", "l2l_first", "l2l_2gram", "l2l_3gram", "l2l_case", "smape_et", "smape_ct",
)


class Shape(NamedTuple):
    net: str
    cases: int
    inter_arrival: float
    rules: str | None  # a rule file over the Region and Batch case attributes


SHAPES = {
    "loop-crowded-rules": Shape("loop.pnml", 120, 0.125, "case_rules.txt"),
    "loop-sparse-long": Shape("loop.pnml", 250, 1.0, None),
    "parallel-wide": Shape("parallel_wide.pnml", 30, 0.25, None),
}
SEEDS = (24, 25, 26, 27)
INPUTS = [(shape, seed) for shape in SHAPES for seed in SEEDS]


def case_attributes(case_id: str) -> dict[str, str]:
    serial = int(case_id[1:])
    return {"Region": f"r{serial % 5}", "Batch": f"b{serial % 7}"}


@functools.cache
def correlated(shape_name: str, seed: int, debug_recompute: bool = False):
    """The truth of one pinned input, and ``annealer.run`` over its stream."""
    shape = SHAPES[shape_name]
    net = read_pnml(str(FIXTURES / shape.net))
    config = SimulationConfig(cases=shape.cases, inter_arrival=shape.inter_arrival, seed=seed)
    truth = simulate_log(net, config)
    rules = RuleSet(rules=())
    if shape.rules is not None:
        rules = read_rules_file(str(FIXTURES / shape.rules))
        stream = build_uncorrelated_log(
            (e.activity, e.timestamp, case_attributes(truth.assignment[e.index]))
            for e in truth.base.events
        )
        truth = correlate(stream, dict(truth.assignment))
    config = AnnealerConfig(population=5, s_max=10, seed=seed, debug_recompute=debug_recompute)
    return truth, anneal(truth.base, net, rules, config)


def _field(value: object) -> str:
    if isinstance(value, float):
        return format(value, ".9g")
    return str(int(value))


def digest(result: AnnealerResult) -> str:
    """SHA-256 of the best assignment in stream order and of every iteration record."""
    log = result.best.log
    text = "\n".join(log.assignment[e.index] for e in log.base.events)
    for record in result.records:
        text += "\n" + ",".join(_field(value) for value in astuple(record))
    return hashlib.sha256(text.encode()).hexdigest()


def pins_of(shape_name: str, seed: int) -> dict[str, object]:
    truth, result = correlated(shape_name, seed)
    report = evaluate(truth, result.best.log)
    return {
        "digest": digest(result),
        "measures": {name: getattr(report, name).hex() for name in MEASURES},
    }


@functools.cache
def pinned() -> dict[str, dict[str, object]]:
    return json.loads(PINS.read_text())


def key(shape_name: str, seed: int) -> str:
    return f"{shape_name}/{seed}"


def test_every_input_is_pinned():
    assert sorted(pinned()) == sorted(key(shape, seed) for shape, seed in INPUTS)


@pytest.mark.parametrize("shape_name, seed", INPUTS)
def test_the_same_seed_gives_the_pinned_correlation_and_measures(shape_name, seed):
    assert pins_of(shape_name, seed) == pinned()[key(shape_name, seed)]


@pytest.mark.parametrize("shape_name, seed", INPUTS)
def test_recomputed_energies_give_the_same_run(shape_name, seed):
    _truth, plain = correlated(shape_name, seed)
    _truth, checked = correlated(shape_name, seed, debug_recompute=True)
    assert checked.records == plain.records
    assert checked.best.log.assignment == plain.best.log.assignment


if __name__ == "__main__":
    print(json.dumps({key(shape, seed): pins_of(shape, seed) for shape, seed in INPUTS}, indent=2))
