"""Print one sha256 per benchmark workload over the answers of its jobs.

Two checkouts whose answers are bit-identical print the same lines, so a
change meant to keep every answer is checked by running this script in
both and comparing the output:

    python tools/answer_digest.py [--seeds 401 402 403] [--quick]

It solves every job of perfbench/workloads.py's four workloads (corpus
seed 1, one corpus per run seed; --quick takes their toy-size corpora),
and the K-spread rows of tests/test_scale.py: uniform n = 2000, seed 3,
the budget of K = 1024, each K in 16, 64, 256 and 1024 in both modes, at
eps = 1/4. Each job adds to its workload's digest:

- from solve_with_details: the sorted ids, the profit, the rung that
  answered (answer), split_count, split_queries, small_passes, large_rows
  and small_rows (None where the rung has none);
- from solve_at_accuracy at eps and at eps/8, with the estimate the solve
  uses: the sorted ids, the profit, sorted(partition.discarded), the
  (index, size) list of the large classes and of the small classes, and
  the number of fillers.

Each line reads: the workload, its number of jobs, the digest. The
K-spread rows print as the line "k-spread", after the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from kknapsack.combiner import solve_at_accuracy, solve_with_details  # noqa: E402
from kknapsack.generator import generate_instance  # noqa: E402
from kknapsack.instance_model import Instance, Mode  # noqa: E402
from kknapsack.preprocessing import candidate_view, half_approx_opt  # noqa: E402
import workloads  # noqa: E402

DETAIL_KEYS = ("split_count", "split_queries", "small_passes", "large_rows", "small_rows")


def answers(inst: Instance, eps: Fraction) -> list:
    """The records one job adds to its digest."""
    sol, det = solve_with_details(inst, eps)
    out = [sorted(sol.selected), sol.total_profit, det["answer"], *(det.get(k) for k in DETAIL_KEYS)]
    view = candidate_view(inst)
    estimate = half_approx_opt(inst, view)
    for eps_int in (eps, eps / 8):
        if estimate.value <= 0:  # a trivial instance: the pipeline does not run
            out.append("trivial")
            continue
        sol, det = solve_at_accuracy(inst, eps, eps_int, estimate, view)
        part = det["partition"]
        classes = [[(c.index, c.size) for c in cs] for cs in (part.large_classes, part.small_classes)]
        out.append([sorted(sol.selected), sol.total_profit, sorted(part.discarded)])
        out.append([*classes, len(part.filler_rows)])
    return out


def _plain(value):
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"cannot digest {type(value).__name__}")


def digest(jobs) -> str:
    h = hashlib.sha256()
    for inst, eps in jobs:
        h.update(json.dumps(answers(inst, eps), default=_plain).encode())
        h.update(b"\n")
    return h.hexdigest()


def k_spread_jobs() -> list:
    base = generate_instance("uniform", 2000, 1024, seed=3)
    return [
        (Instance(base.items, base.budget, k, mode), Fraction(1, 4))
        for k in (16, 64, 256, 1024)
        for mode in (Mode.AT_MOST, Mode.EXACT)
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[401, 402, 403], help="run seeds")
    ap.add_argument("--quick", action="store_true", help="the workloads' toy-size corpora")
    args = ap.parse_args(argv)
    for name in workloads.WORKLOADS:
        jobs = [
            (job.instance, job.eps)
            for seed in args.seeds
            for job in workloads.build_corpus(name, seed, workloads.DEFAULT_CORPUS_SEED, args.quick)
        ]
        print(f"{name} {len(jobs)} {digest(jobs)}", flush=True)
    jobs = k_spread_jobs()
    print(f"k-spread {len(jobs)} {digest(jobs)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
