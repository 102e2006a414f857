"""Solves at scale, each case in a child process of its own: exactly-K rows
and two at-most rows.

An exactly-K case builds one seeded item set and solves it, for each of
its K, in exactly-K mode and, on the same items, in at-most mode; it reports every
row's selection and solve times and the child's peak RSS. The child's
address space is capped with resource.setrlimit(RLIMIT_AS) in that child
only, so a regression fails the case instead of exhausting the machine's
memory.

The uniform rows share their items and budget (the budget of the K = 1024
instance, so that every K is feasible) and vary K only, as criterion C10
does for at-most mode: the exactly-K median wall time may vary by less than
2x across K. They run in one child, and each repetition times every K once,
so a change in the host's speed during the run reaches every K alike. Every
row asserts exactly K items within budget, a peak RSS of its child under
300 MB and a median wall time within 2x of at-most mode. The rows small
enough for kknapsack.oracles.exact_dp also assert the (1 - eps) guarantee
against the exact optimum.

Each at-most row solves once in a child of its own and asserts a feasible
answer, a certified ratio of at least 1 - eps, a peak RSS under 200 MB and
a wall time under 3 s. Uniform n = 1e5, K = 256, eps = 1/2 measures the n
term of the paper's bound, paid once per solve by every layer that reads
the items; uniform n = 20000, K = 1024, eps = 1/5 a small pool whose
classes run deep.
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
insts = {
    (k, mode.value): Instance(items=base.items, budget=base.budget, cardinality=k, mode=mode)
    for k in spec["ks"]
    for mode in (Mode.AT_MOST, Mode.EXACT)
}
times = {key: [] for key in insts}
last = {}
for _ in range(spec["reps"]):  # each repetition solves every row once
    for key, inst in insts.items():
        start = time.perf_counter()
        last[key] = solve(inst, eps)
        times[key].append(time.perf_counter() - start)
rows = {}
for k in spec["ks"]:
    key = (k, Mode.EXACT.value)
    sol = last[key]  # the last exactly-K solve
    report = evaluate_solution(insts[key], sol)
    rows[k] = {
        "times": {mode: times[(k, mode)] for mode in ("at_most", "exact")},
        "ids": sorted(sol.selected),
        "profit": str(report.total_profit),
        "feasible": report.feasible,
        "count": report.count,
    }
print(json.dumps({
    "rows": rows,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}))
"""


AT_MOST_CHILD = r"""
import json, resource, sys, time
from fractions import Fraction
from kknapsack import evaluate_solution, solve_with_details
from kknapsack.generator import generate_instance

spec = json.loads(sys.argv[1])
inst = generate_instance(spec["family"], spec["n"], spec["k"], seed=spec["seed"])
start = time.perf_counter()
sol, details = solve_with_details(inst, Fraction(spec["eps"]))
wall_s = time.perf_counter() - start
print(json.dumps({
    "wall_s": wall_s,
    "feasible": evaluate_solution(inst, sol).feasible,
    "certified_ratio": str(details["certified_ratio"]),
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}))
"""


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


def _run_child(script: str, spec: dict) -> dict:
    """Run script with spec in a child whose address space is capped; the
    JSON object on its last line of output."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(spec)],
        env=env, capture_output=True, text=True, timeout=300,
        preexec_fn=_cap_address_space,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_rows(family, n, ks, seed, budget_k=None, reps=REPS) -> dict:
    """Solve the rows k in ks on one item set in one child; k -> row result,
    each carrying its spec and the child's peak RSS."""
    spec = {"family": family, "n": n, "ks": list(ks), "seed": seed, "eps": str(EPS),
            "budget_k": budget_k or max(ks), "reps": reps}
    out = _run_child(CHILD, spec)
    rows = {}
    for k in ks:
        row = out["rows"][str(k)]
        row.update(spec=dict(spec, k=k), peak_rss_mb=out["peak_rss_mb"])
        rows[k] = row
    return rows


def run_row(family, n, k, seed, budget_k=None, reps=REPS) -> dict:
    return run_rows(family, n, [k], seed, budget_k, reps)[k]


def check_row(out):
    spec = out["spec"]
    assert out["feasible"] and out["count"] == spec["k"] == len(out["ids"])
    assert out["peak_rss_mb"] < RSS_LIMIT_MB, out["peak_rss_mb"]
    exact = statistics.median(out["times"]["exact"])
    at_most = statistics.median(out["times"]["at_most"])
    assert exact < 2 * at_most, (exact, at_most)


@pytest.fixture(scope="module")
def uniform_rows():
    return run_rows("uniform", 2000, UNIFORM_KS, seed=3)


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


def check_at_most_row(n, k, eps):
    out = _run_child(AT_MOST_CHILD, {"family": "uniform", "n": n, "k": k, "seed": 1, "eps": str(eps)})
    assert out["feasible"]
    assert Fraction(out["certified_ratio"]) >= 1 - eps, out
    assert out["peak_rss_mb"] < 200, out
    assert out["wall_s"] < 3.0, out


def test_uniform_at_most_n_1e5():
    check_at_most_row(100_000, 256, Fraction(1, 2))


def test_uniform_at_most_k_1024():
    # A small pool of about 9000 units that reaches deep small classes.
    check_at_most_row(20_000, 1024, Fraction(1, 5))
