"""Smoke tests: the benchmark harness runs its toy-size corpora end to end,
and its tracer wraps the program's layers, so an API change in the program
cannot silently break either."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("midscale-mix", "large-fold", "wide-n", "exact-k")


def test_quick_run_solves_every_workload_correctly(tmp_path):
    # Without --trace the harness writes nothing; its last stdout line is
    # the JSON summary of every workload.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--quick"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(summary) == sorted(WORKLOADS)
    for name, res in summary.items():
        assert res["correct"] is True, name
        assert res["failed"] == 0, name
        assert res["attempted"] > 0, name


def test_trace_wraps_every_layer_of_a_large_k_solve(tmp_path, monkeypatch):
    # The quick run above is untraced. Here the benchmark's tracer wraps one
    # solve with K = 20 > 1/eps_int = 16 and a small pool of 50 items, which
    # the paper would answer with its upsilon2 ladder.
    monkeypatch.chdir(tmp_path)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from fractions import Fraction
    from time import perf_counter

    import kknapsack
    import spans
    from kknapsack.generator import generate_instance

    inst = generate_instance("correlated", 300, 20, seed=2)
    tracer = spans.Tracer()
    tracer.solve_id = 0
    tracer.install()
    try:
        wrapped = list(tracer._saved)
        names = {attr for _, attr, _ in wrapped}
        assert {"solver_for_partition", "register_query_weights", "phi_dag", "eval_detail"} <= names
        for owner, attr, original in wrapped:
            assert getattr(owner, attr) is not original, attr
        start = perf_counter()
        _, det = kknapsack.solve_with_details(inst, Fraction(1, 2))
        traced_s = perf_counter() - start
    finally:
        tracer.uninstall()
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original, attr

    assert inst.cardinality * det["internal_eps"] > 1 and det["small_pool"] == 50
    metrics = tracer.layer_metrics(traced_s, traced_s, 1)
    assert metrics["small.float_pools"] == 0
    assert metrics["small.exact_pools"] >= 1
    assert metrics["small.queries"] > 0
    assert metrics["combiner.splits"] > 0
    assert list(tmp_path.iterdir()) == []


def test_traced_quick_run_folds_one_round_per_exact_k_solve(monkeypatch):
    # Exactly-K solves run the at-most pipeline once, on the grid of the
    # internal accuracy eps/8: z * ceil(1/eps_int) rows, with z = min(K, ceil(1/eps_int)).
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import math
    import workloads

    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--quick", "--trace", "1",
         "--workload", "exact-k"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0
    grids = set()
    for job in workloads.build_corpus("exact-k", 1, workloads.DEFAULT_CORPUS_SEED, True):
        inv = math.ceil(8 / job.eps)
        grids.add(min(job.instance.cardinality, inv) * inv)
    assert len(grids) == 1
    metrics = summary["metrics"]
    assert metrics["exactk.rounds"]["value"] == 1
    assert metrics["exactk.grid_m"]["value"] == grids.pop()
