"""Solve one workload in a process of its own and print what happened.

Started by run.py, one workload at a time, so that `ru_maxrss` is this
workload's own peak. The program under test is imported from the `--src`
directory. The last line of standard output is one JSON object:

  setup_s      seconds from this script's first statement until the corpus
               is built (imports and instance generation);
  setup_ref_s  the reference loop timed right after set-up;
  peak_rss_kb  ru_maxrss of this process;
  ref_s        reference loop times, one at each segment boundary;
  solves       one record per solve: job index, traced flag, segment, wall
               time and the reported answer (or the error it raised);
  layers       per-layer metrics, on traced runs only.

A run repeats whole rounds, each solving every job of the corpus once. It
always runs one round, and starts another only if the mean round time so far
says it will end within `--seconds`. On traced runs a round solves every job
twice, once untraced and once traced, and the spans go to `--spans-out`.

The reference loop measures the machine's speed while the run goes on; see
`reference_loop`. It runs before the first solve and then whenever a segment
of SEGMENT_S seconds of solving has passed, and once more at the end, so
every solve lies between two of its timings.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

SEGMENT_S = 3.0


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python workload that shares no code with
    the program: exact rational sums and a sort, the kind of work the solver
    spends most of its time on.

    On the shared host these figures were taken on, the machine's speed
    drifts by about 15% over minutes. The time of this loop, taken next to
    each solve, tracks that drift: its correlation with the solve times of
    repeated identical work was 0.71 on midscale-mix jobs and 0.74 on
    large-fold solves. run.py divides the drift out with it.
    """
    t0 = time.perf_counter()
    rng = random.Random(0)
    values = [Fraction(rng.randint(1, 10**6), rng.randint(1, 10**4)) for _ in range(1500)]
    acc = Fraction(0)
    for _ in range(2):
        for v in values:
            acc = (acc + v) % 1000003
    values.sort()
    return time.perf_counter() - t0


def _solve_one(solve, job) -> dict:
    """Time one call; only the small answer record outlives it, so the
    solve's tables are freed before the next solve starts."""
    t0 = time.perf_counter()
    try:
        sol, _ = solve(job.instance, job.eps)
    except Exception as exc:  # a failing solve is counted, not fatal
        return {"time_s": time.perf_counter() - t0, "error": f"{type(exc).__name__}: {exc}"}
    elapsed = time.perf_counter() - t0
    return {
        "time_s": elapsed,
        "ids": sorted(sol.selected),
        "profit": str(sol.total_profit),
        "weight": str(sol.total_weight),
        "count": sol.count,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--corpus-seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args()

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import kknapsack  # noqa: F401  (timed as set-up)
    import workloads

    if src not in Path(kknapsack.__file__).resolve().parents:
        print(f"kknapsack imported from {kknapsack.__file__}, not from {src}", file=sys.stderr)
        return 2
    jobs = workloads.build_corpus(args.workload, args.seed, args.corpus_seed, args.quick)
    setup_s = time.perf_counter() - _T0
    out = {"setup_s": setup_s, "setup_ref_s": reference_loop()}
    if not args.setup_only:
        out.update(_run(jobs, args))
    print(json.dumps(out))
    return 0


def _run(jobs, args) -> dict:
    import kknapsack

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    solves = []
    ref_s = [reference_loop()]
    segment_start = start = time.perf_counter()
    rounds = 0
    while True:
        for j, job in enumerate(jobs):
            # Traced runs solve each job twice, alternating which goes first,
            # so that warm caches favour neither side of trace.overhead_s.
            order = (False,) if tracer is None else ((False, True) if j % 2 == 0 else (True, False))
            for traced in order:
                if traced:
                    tracer.solve_id = len(solves)
                    tracer.install()
                try:
                    # Looked up after install, so a traced call goes through the wrapper.
                    record = _solve_one(kknapsack.solve_with_details, job)
                finally:
                    if traced:
                        tracer.uninstall()
                solves.append({"job": j, "traced": traced, "segment": len(ref_s) - 1, **record})
                if time.perf_counter() - segment_start >= SEGMENT_S:
                    ref_s.append(reference_loop())
                    segment_start = time.perf_counter()
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > args.seconds:
            break
    if solves[-1]["segment"] == len(ref_s) - 1:
        ref_s.append(reference_loop())
    out = {
        "solves": solves,
        "ref_s": ref_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        traced = [s["time_s"] for s in solves if s["traced"]]
        untraced = [s["time_s"] for s in solves if not s["traced"]]
        out["layers"] = tracer.layer_metrics(sum(traced), sum(untraced), len(traced))
        if args.spans_out:
            path = Path(args.spans_out)
            path.parent.mkdir(parents=True, exist_ok=True)
            fields = ["name", "start", "end", "parent", "solve"]
            path.write_text(json.dumps({"fields": fields, "spans": tracer.dump()}))
    return out


if __name__ == "__main__":
    sys.exit(main())
