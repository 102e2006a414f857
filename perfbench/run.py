"""Solve benchmark for kknapsack: four seeded workloads, independent checks.

Run from the root of a checkout:

  python3 perfbench/run.py --workload large-fold --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py                 # every workload, one after another
  python3 perfbench/run.py --quick         # every workload at toy size
  python3 perfbench/run.py --self-test     # the checker flags corrupted answers

Each workload runs in a child process of its own (child.py). This process
then rebuilds the same instances, computes references apart from the solver
(checks.py) and checks every answer. A solve that raises or fails a check
counts as failed. With `--trace 0` the end-to-end metrics are reported, with
`--trace 1` the per-layer ones (spans.py). The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = {
    "solves_per_s": "solves/s",
    "solve_s_p50": "s",
    "solve_s_p90": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "value_over_lp": "ratio",
}
SETUP_PROBES = 4  # extra set-up-only children; setup_s is the median of 1 + these
# Median time of child.reference_loop on the machine of the reference
# figures. Every reported time is scaled by REFERENCE_NOMINAL_S / (the
# reference loop time measured next to it), so that it reads as seconds at
# that machine speed while the host's own speed drifts (see the README).
REFERENCE_NOMINAL_S = 0.17
CHILD_TIMEOUT_S = 165
PROBE_TIMEOUT_S = 30
# Instances small enough to cross-check the benchmark's DP against
# kknapsack.oracles.exact_dp, which loops over items and slots in Python.
ORACLE_CROSSCHECK_WORK = 20_000
ORACLE_CROSSCHECKS = 3


def _child(args, workload: str, setup_only: bool) -> dict:
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--src", str(SRC), "--workload", workload,
        "--seed", str(args.seed), "--corpus-seed", str(args.corpus_seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.quick:
        cmd.append("--quick")
    if setup_only:
        cmd.append("--setup-only")
    elif args.trace:
        spans_out = HERE / "out" / f"spans-{workload}-seed{args.seed}.json"
        cmd += ["--spans-out", str(spans_out)]
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    timeout = PROBE_TIMEOUT_S if setup_only else CHILD_TIMEOUT_S
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} child exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _references(jobs, faults: list[str]) -> dict:
    """Reference per distinct instance, plus the cross-checks of the
    benchmark's own DP: against kknapsack.oracles.exact_dp on a few small
    instances, and against the Lagrangian bound everywhere."""
    import checks
    from kknapsack import Mode
    from kknapsack.oracles import exact_dp

    refs = {}
    crosschecked = 0
    for job in jobs:
        inst = job.instance
        if id(inst) in refs:
            continue
        exact = inst.mode is Mode.EXACT
        ref = checks.reference_for(inst, exact)
        refs[id(inst)] = ref
        if ref.opt is None:
            continue
        if ref.opt > ref.upper:
            faults.append(f"{job.label}: DP optimum {ref.opt} above the bound {ref.upper}")
        work = len(inst.items) * (inst.cardinality + 1)
        if crosschecked < ORACLE_CROSSCHECKS and work <= ORACLE_CROSSCHECK_WORK:
            crosschecked += 1
            oracle = exact_dp(inst).value
            if oracle != ref.opt:
                faults.append(f"{job.label}: DP {ref.opt} != oracles.exact_dp {oracle}")
    return refs


def run_workload(args, workload: str) -> dict:
    import checks
    import workloads
    from kknapsack import Mode

    result = _child(args, workload, setup_only=False)
    children = [result]
    if not args.trace:
        children += [_child(args, workload, setup_only=True) for _ in range(SETUP_PROBES)]
    setups = [c["setup_s"] * REFERENCE_NOMINAL_S / c["setup_ref_s"] for c in children]
    ref_s = result["ref_s"]
    for s in result["solves"]:
        segment_ref = (ref_s[s["segment"]] + ref_s[s["segment"] + 1]) / 2
        s["scaled_s"] = s["time_s"] * REFERENCE_NOMINAL_S / segment_ref

    jobs = workloads.build_corpus(workload, args.seed, args.corpus_seed, args.quick)
    faults: list[str] = []  # the benchmark's own references disagree
    notes: list[str] = []  # failed solves
    refs = _references(jobs, faults)
    verdicts: dict = {}
    failed = 0
    ok_solves = []
    for s in result["solves"]:
        job = jobs[s["job"]]
        if "error" in s:
            problems = [s["error"]]
        else:
            key = (s["job"], tuple(s["ids"]), s["profit"], s["weight"], s["count"])
            if key not in verdicts:
                exact = job.instance.mode is Mode.EXACT
                verdicts[key] = checks.check_answer(job.instance, exact, job.eps, refs[id(job.instance)], s)
            problems = verdicts[key]
        if problems:
            failed += 1
            notes.append(f"{job.label} eps={job.eps}: {'; '.join(problems)}")
        else:
            ok_solves.append(s)

    if args.trace:
        import spans

        speed = REFERENCE_NOMINAL_S / statistics.mean(ref_s)
        units = spans.LAYER_METRICS
        metrics = {
            name: value * speed if units[name] == "s" else value
            for name, value in result["layers"].items()
        }
    else:
        timed = [s for s in result["solves"] if "error" not in s and not s["traced"]]
        times = sorted(s["scaled_s"] for s in timed)
        ratios = [
            Fraction(s["profit"]) / refs[id(jobs[s["job"]].instance)].upper for s in ok_solves
        ]
        metrics = {
            "solves_per_s": len(times) / sum(times) if times else 0.0,
            "solve_s_p50": statistics.median(times) if times else 0.0,
            "solve_s_p90": _p90(times),
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
            "setup_s": statistics.median(setups),
            "value_over_lp": float(sum(ratios) / len(ratios)) if ratios else 0.0,
        }
        units = END_TO_END
    return {
        "correct": not faults,
        "attempted": len(result["solves"]),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "notes": faults + notes,
        "raw": {
            "solve_s_sum": sum(s["time_s"] for s in result["solves"]),
            "setup_s_median": statistics.median(c["setup_s"] for c in children),
            "reference_loop_s_mean": statistics.mean(ref_s),
        },
    }


def _p90(times: list[float]) -> float:
    """90th percentile; with fewer than two samples, the largest."""
    if len(times) < 2:
        return times[-1] if times else 0.0
    return statistics.quantiles(times, n=10, method="inclusive")[-1]


def self_test() -> int:
    """Show that the checker passes real answers and flags corrupted ones,
    and that the benchmark's DP agrees with kknapsack.oracles.exact_dp."""
    import checks
    from kknapsack import Instance, Item, Mode, solve_with_details
    from kknapsack.generator import generate_instance
    from kknapsack.oracles import exact_dp

    results = []

    def expect(name: str, ok: bool) -> None:
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {name}")

    for i, (dist, mode) in enumerate(
        [("uniform", Mode.AT_MOST), ("correlated", Mode.AT_MOST), ("subset-sum", Mode.AT_MOST),
         ("uniform", Mode.EXACT), ("correlated", Mode.EXACT), ("subset-sum", Mode.EXACT)]
    ):
        inst = generate_instance(dist, 40, 6, seed=11, index=i, weight_max=30, mode=mode)
        exact = mode is Mode.EXACT
        ref = checks.reference_for(inst, exact)
        expect(f"DP == oracles.exact_dp ({dist}, {mode.value})", ref.opt == exact_dp(inst).value)
        expect(f"DP <= Lagrangian bound ({dist}, {mode.value})", ref.opt <= ref.upper)
        eps = Fraction(1, 4)
        sol, _ = solve_with_details(inst, eps)
        answer = {"ids": sorted(sol.selected), "profit": str(sol.total_profit),
                  "weight": str(sol.total_weight), "count": sol.count}
        expect(f"real answer passes ({dist}, {mode.value})",
               checks.check_answer(inst, exact, eps, ref, answer) == [])
        if not exact:
            continue
        by_id = {it.id: it for it in inst.items}
        fewer = sorted(sol.selected)[1:]
        outside = [i for i in by_id if i not in sol.selected]
        more = sorted(sol.selected) + outside[:1]
        for name, ids in (("exactly-K count K-1", fewer), ("exactly-K count K+1", more)):
            bad = dict(answer, ids=ids, count=len(ids),
                       profit=str(sum(by_id[i].profit for i in ids)),
                       weight=str(sum(by_id[i].weight for i in ids)))
            problems = checks.check_answer(inst, exact, eps, ref, bad)
            expect(f"flags {name} ({dist})", any("count" in p for p in problems))

    inst = Instance(
        items=(Item(1, Fraction(9), Fraction(5)), Item(2, Fraction(8), Fraction(6)),
               Item(3, Fraction(7), Fraction(7))),
        budget=Fraction(12), cardinality=3, mode=Mode.AT_MOST,
    )
    ref = checks.reference_for(inst, exact=False)
    good = {"ids": [1, 2], "profit": "17", "weight": "11", "count": 2}
    expect("hand instance: optimum 17", ref.opt == 17 and checks.check_answer(inst, False, Fraction(1, 4), ref, good) == [])
    corrupt = {
        "item not in the input": (dict(good, ids=[1, 99]), "not in the input"),
        "budget overrun": (dict(good, ids=[1, 2, 3], profit="24", weight="18", count=3), "over budget"),
        "misreported profit": (dict(good, profit="18"), "reported"),
        "value below (1-eps)*OPT": (dict(good, ids=[3], profit="7", weight="7", count=1), "OPT"),
    }
    for name, (bad, marker) in corrupt.items():
        problems = checks.check_answer(inst, False, Fraction(1, 4), ref, bad)
        expect(f"flags {name}", any(marker in p for p in problems))
    print(f"self-test: {sum(results)}/{len(results)} passed")
    return 0 if all(results) else 1


def _print_result(workload: str, res: dict) -> None:
    print(f"{workload}: attempted {res['attempted']}, failed {res['failed']}")
    for name, m in res["metrics"].items():
        print(f"  {name:24s} {m['value']:.6g} {m['unit']}")
    raw = res["raw"]
    print(
        f"  unscaled: solves took {raw['solve_s_sum']:.6g} s, set-up {raw['setup_s_median']:.6g} s;"
        f" reference loop {raw['reference_loop_s_mean']:.6g} s (nominal {REFERENCE_NOMINAL_S} s)"
    )
    for note in res["notes"][:10]:
        print(f"  ! {note}")


def main() -> int:
    import workloads as wl_names

    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=("all",) + wl_names.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1, help="run seed: item order and ids (default 1)")
    ap.add_argument("--corpus-seed", type=int, default=wl_names.DEFAULT_CORPUS_SEED,
                    help=f"instance values (default {wl_names.DEFAULT_CORPUS_SEED})")
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run, in whole rounds (default 12, quick 0)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="toy-size corpora, one round each")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.seconds is None:
        args.seconds = 0 if args.quick else 12

    if args.self_test:
        return self_test()
    names = wl_names.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(args, name)
        _print_result(name, results[name])
    if len(names) == 1:
        res = results[names[0]]
        print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    else:
        print(json.dumps({n: {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
                          for n, r in results.items()}))
    return 0


if __name__ == "__main__":
    if not (SRC / "kknapsack" / "__init__.py").is_file():
        print(f"kknapsack sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        sys.exit(1)
