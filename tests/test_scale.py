"""Exactly-K mode at scale, each row solved in a child process of its own.

A row builds one seeded instance, solves it in exactly-K mode and, on the
same items, in at-most mode, and reports the selection, the solve times and
the child's peak RSS. The child's address space is capped with
resource.setrlimit(RLIMIT_AS) in that child only, so a regression fails the
row instead of exhausting the machine's memory.

The uniform rows share their items and budget (the budget of the K = 1024
instance, so that every K is feasible) and vary K only, as criterion C10
does for at-most mode: the exactly-K median wall time may vary by less than
2x across K. Every row asserts exactly K items within budget, a peak RSS
under 300 MB and a median wall time within 2x of at-most mode. The rows
small enough for kknapsack.oracles.exact_dp also assert the (1 - eps)
guarantee against the exact optimum.
"""

import json
import os
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from kknapsack.generator import generate_instance
from kknapsack.instance_model import Instance, Mode
from kknapsack.oracles import exact_dp

SRC = Path(__file__).resolve().parent.parent / "src"
ADDRESS_SPACE_CAP = 2 << 30
RSS_LIMIT_MB = 300
REPS = 5
EPS = Fraction(1, 4)
UNIFORM_KS = (16, 64, 256, 1024)

CHILD = r"""
import json, resource, sys, time
from fractions import Fraction
from kknapsack import Instance, Mode, evaluate_solution, solve
from kknapsack.generator import generate_instance

spec = json.loads(sys.argv[1])
base = generate_instance(spec["family"], spec["n"], spec["budget_k"], seed=spec["seed"])
eps = Fraction(spec["eps"])
times = {}
for mode in (Mode.AT_MOST, Mode.EXACT):
    inst = Instance(items=base.items, budget=base.budget, cardinality=spec["k"], mode=mode)
    times[mode.value] = []
    for _ in range(spec["reps"]):
        start = time.perf_counter()
        sol = solve(inst, eps)
        times[mode.value].append(time.perf_counter() - start)
report = evaluate_solution(inst, sol)  # the last exactly-K solve
print(json.dumps({
    "times": times,
    "ids": sorted(sol.selected),
    "profit": str(report.total_profit),
    "feasible": report.feasible,
    "count": report.count,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}))
"""


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


def run_row(family, n, k, seed, budget_k=None, reps=REPS) -> dict:
    spec = {"family": family, "n": n, "k": k, "seed": seed, "eps": str(EPS),
            "budget_k": budget_k or k, "reps": reps}
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(spec)],
        env=env, capture_output=True, text=True, timeout=300,
        preexec_fn=_cap_address_space,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["spec"] = spec
    return out


def check_row(out):
    spec = out["spec"]
    assert out["feasible"] and out["count"] == spec["k"] == len(out["ids"])
    assert out["peak_rss_mb"] < RSS_LIMIT_MB, out["peak_rss_mb"]
    exact = statistics.median(out["times"]["exact"])
    at_most = statistics.median(out["times"]["at_most"])
    assert exact < 2 * at_most, (exact, at_most)


@pytest.fixture(scope="module")
def uniform_rows():
    return {
        k: run_row("uniform", 2000, k, seed=3, budget_k=max(UNIFORM_KS))
        for k in UNIFORM_KS
    }


@pytest.mark.parametrize("k", UNIFORM_KS)
def test_uniform_exactly_k_row(uniform_rows, k):
    check_row(uniform_rows[k])


def test_uniform_exactly_k_time_independent_of_k(uniform_rows):
    medians = {k: statistics.median(out["times"]["exact"]) for k, out in uniform_rows.items()}
    spread = max(medians.values()) / min(medians.values())
    assert spread < 2.0, medians


def test_subset_sum_exactly_k_row():
    # Every profit equals its weight: the small side's keys tie throughout.
    check_row(run_row("subset-sum", 2000, 64, seed=3))


@pytest.mark.parametrize(
    "family, n, k, seed",
    [
        ("uniform", 200, 20, 3),
        ("uniform", 500, 40, 3),
        ("correlated", 300, 12, 1),
        ("subset-sum", 300, 30, 3),
    ],
)
def test_exactly_k_guarantee_against_exact_dp(family, n, k, seed):
    out = run_row(family, n, k, seed, reps=1)
    assert out["feasible"] and out["count"] == k
    inst = generate_instance(family, n, k, seed=seed)
    opt = exact_dp(Instance(items=inst.items, budget=inst.budget, cardinality=k, mode=Mode.EXACT)).value
    assert Fraction(out["profit"]) >= (1 - EPS) * opt
