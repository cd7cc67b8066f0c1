"""End-to-end benchmark of ``caseweave correlate`` and ``caseweave evaluate``.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload loop-crowded-rules --seed 1 --seconds 40 --trace 0

With ``--trace 0`` it repeats set-up, correlate and evaluate over inputs made
from the seed for ``--seconds`` seconds with tracing off, and reports the
end-to-end metrics, scaled to a fixed host speed.  With ``--trace 1`` it
reports the per-layer metrics of traced passes over the first input instead.
The last line of stdout is one JSON object.  Exit code 2, with no result,
means the program could not be loaded from this checkout's ``src``.
README.md lists the workloads, the metrics and what each layer metric should
move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


def load_program() -> None:
    """Import caseweave from this checkout's sources, and from nowhere else."""
    if not (SRC / "caseweave" / "__init__.py").is_file():
        raise ImportError(f"no caseweave sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import caseweave

    if SRC not in Path(caseweave.__file__).resolve().parents:
        raise ImportError(f"caseweave was imported from {caseweave.__file__}, not {SRC}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="caseweave end-to-end benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_program()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import measure
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    run = measure.Run(workload, args.seed)
    work = WORK / f"{workload.name}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        kind = measure.traced if args.trace else measure.end_to_end
        metrics = kind(run, args.seconds, measure.fresh(work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    for (kind, sub_seed), digest in run.firsts.items():
        if kind == "digest":
            print(f"sub-seed {sub_seed} digest {digest}")
    print(json.dumps({
        "correct": not run.errors and bool(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
