"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tdrive_threshold --seed 1 \\
        --seconds 16 --trace 0

The program is imported from the checkout's own ``src/``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric
with ``--trace 0``, every per-layer metric with ``--trace 1``.  The
lines before it print the same metrics for people, with the tail
percentile, sample counts, ``failed_frac`` and the unscaled wall-clock
read figures.  Times are scaled to a reference machine speed (see
``speed.py``).  A traced run also
writes its spans to ``.perfbench/traces/<workload>-seed<n>.jsonl``.

Metric names and units come from ``BENCHMARK.json`` at the checkout
root.  Exit codes: 0 on a finished run (``correct`` says whether every
answer checked out), 1 when a coverage guard fails, 2 when the checkout
holds no program to run, 3 when the measured metrics and
``BENCHMARK.json`` disagree.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="loop length per run, which sets the workload's op count "
        "(default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import speed
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r} "
            f"(choose from {', '.join(workloads.WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    seconds = args.seconds or benchmark["run_seconds"]
    seed = args.seed
    if seed is None:
        with open(os.path.join(HERE, "workloads.json")) as fh:
            seed = json.load(fh)["seeds"]["default"]

    state_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(state_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=state_dir)
    try:
        report = workloads.run_workload(
            args.workload,
            seed,
            seconds,
            bool(args.trace),
            workdir,
        )
    except workloads.GuardError as exc:
        print(f"coverage guard failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    notes = report["notes"]
    print(
        f"workload {args.workload}  seed {seed}  trace {args.trace}  "
        f"ops {notes['ops']}  set-ups {notes['setups']}"
    )
    print(
        f"  reads: {notes['read_samples']} samples, tail p{notes['read_tail_pct']:g} "
        f"with {notes['read_samples_beyond_tail']} beyond; writes: "
        f"{notes['write_samples']} samples, tail p{notes['write_tail_pct']:g} "
        f"with {notes['write_samples_beyond_tail']} beyond"
    )
    print(
        f"  failed_frac {notes['failed_frac']:.6f} "
        f"({report['failed']} of {report['attempted']} operations)"
    )
    wall = notes["wall"]
    print(
        f"  unscaled wall clock: read_p50_ms {wall['read_p50_ms']:.6g}, "
        f"read_qps {wall['read_qps']:.6g}; speed probe median "
        f"{wall['probe_ms']:.4f} ms against the reference "
        f"{speed.REFERENCE_PROBE_S * 1e3:g} ms"
    )
    for error in notes["errors"]:
        print(f"  failure: {error}")
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    values = report["per_layer" if args.trace else "end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        print(
            "error: measured metrics differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ {m['name'] for m in declared})}",
            file=sys.stderr,
        )
        return 3
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
    }
    for name, metric in metrics.items():
        print(f"  {name:38s} {metric['value']:.6g} {metric['unit']}")
    print(f"  counts {json.dumps(report['counts'], sort_keys=True)}")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
