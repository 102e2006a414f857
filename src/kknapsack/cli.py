"""Command-line interface.

Subcommands: solve (approximate one instance), generate (seeded instance
families + manifest), verify (solve and compare against an exact oracle),
convert (JSON <-> CSV).

Exit codes: 0 success, 1 input or usage error, 2 infeasible exact-mode
instance, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from .combiner import InfeasibleInstanceError, InvalidInstanceError, solve_with_details
from .generator import DISTRIBUTIONS, generate_instance
from .instance_model import (
    Instance,
    Mode,
    load_instance,
    load_instance_csv,
    save_instance,
    save_instance_csv,
)
from .oracles import brute_force, exact_dp
from .rationals import format_rational, parse_rational

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFY = 3


class _UsageError(Exception):
    pass


def _parse_eps(text: str) -> Fraction:
    try:
        eps = parse_rational(text)
    except ValueError as exc:
        raise _UsageError(f"bad epsilon {text!r}: {exc}") from None
    if not 0 < eps < 1:
        raise _UsageError(f"epsilon must be in (0,1), got {text}")
    return eps


def _parse_mode(text):
    if text is None:
        return None
    try:
        return Mode(text)
    except ValueError:
        raise _UsageError(f"bad mode {text!r}; use at_most or exact") from None


def _load_input(args) -> Instance:
    path = Path(args.input)
    if not path.exists():
        raise _UsageError(f"input file not found: {path}")
    fmt = args.format or ("csv" if path.suffix.lower() == ".csv" else "json")
    mode = _parse_mode(getattr(args, "mode", None))
    try:
        if fmt == "csv":
            if args.budget is None or args.cardinality is None:
                raise _UsageError("CSV input needs --budget and --cardinality")
            inst = load_instance_csv(
                path,
                parse_rational(args.budget),
                args.cardinality,
                mode or Mode.AT_MOST,
            )
        else:
            inst = load_instance(path)
            if mode is not None and mode is not inst.mode:
                inst = Instance(
                    items=inst.items,
                    budget=inst.budget,
                    cardinality=inst.cardinality,
                    mode=mode,
                )
    except (ValueError, KeyError) as exc:
        raise _UsageError(f"cannot parse {path}: {exc}") from None
    return inst


def _write_text(path_or_none, text: str) -> None:
    if path_or_none:
        Path(path_or_none).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _dump_table(table) -> dict:
    grid = table.grid
    rows = []
    for q in range(grid.m + 1):
        row = []
        for k in range(grid.z + 1):
            v = table.value_at(q, k)
            row.append("inf" if not table.is_finite(q, k) else format_rational(v))
        rows.append(row)
    back = None
    if table.backptr is not None:
        back = [[int(t) for t in r] for r in table.backptr]
    return {
        "delta": format_rational(grid.delta),
        "m": grid.m,
        "z": grid.z,
        "values": rows,
        "backptr": back,
    }


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    eps = _parse_eps(args.epsilon)
    inst = _load_input(args)

    start = time.perf_counter()
    try:
        sol, details = solve_with_details(inst, eps)
    except InvalidInstanceError as exc:
        print(f"error: invalid instance: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InfeasibleInstanceError as exc:
        print(f"error: infeasible exact-mode instance: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    elapsed_ms = (time.perf_counter() - start) * 1000.0

    out = {
        "value": format_rational(sol.total_profit),
        "weight": format_rational(sol.total_weight),
        "count": sol.count,
        "items": sorted(sol.selected),
        "epsilon_user": format_rational(eps),
        "elapsed_ms": round(elapsed_ms, 3),
    }
    _write_text(args.output, json.dumps(out, indent=2) + "\n")

    if args.dump_partition:
        part = details.get("partition")
        summary = part.summary() if part is not None else {"trivial": True}
        Path(args.dump_partition).write_text(
            json.dumps(summary, indent=2) + "\n", encoding="utf-8"
        )
    if args.dump_tables:
        table = details.get("table")
        payload = _dump_table(table) if table is not None else {"trivial": True}
        Path(args.dump_tables).write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    if args.distribution not in DISTRIBUTIONS:
        raise _UsageError(
            f"bad distribution {args.distribution!r}; pick one of {DISTRIBUTIONS}"
        )
    mode = _parse_mode(args.mode) or Mode.AT_MOST
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    entries = []
    for index in range(args.count):
        inst = generate_instance(
            args.distribution,
            args.n,
            args.cardinality,
            args.seed,
            index,
            mode=mode,
            weight_max=args.weight_max,
        )
        name = f"instance_{index:04d}.json"
        save_instance(inst, out_dir / name)
        entries.append(
            {
                "file": name,
                "seed": args.seed,
                "spawn_index": index,
                "distribution": args.distribution,
                "n": args.n,
                "cardinality": args.cardinality,
                "mode": mode.value,
            }
        )
    manifest = {"seed": args.seed, "instances": entries}
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {args.count} instances + manifest.json to {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_one(path: Path, eps: Fraction, oracle_name: str) -> tuple[str, bool]:
    inst = load_instance(path)
    oracle_fn = brute_force if oracle_name == "brute" else exact_dp
    oracle = oracle_fn(inst)

    try:
        sol, _ = solve_with_details(inst, eps)
    except InfeasibleInstanceError:
        if oracle.value is None:
            return f"{path.name}: infeasible (oracle agrees) PASS", True
        return (
            f"{path.name}: solver says infeasible, oracle found value "
            f"{format_rational(oracle.value)} FAIL",
            False,
        )
    if oracle.value is None:
        return f"{path.name}: oracle says infeasible, solver found a solution FAIL", False

    ok = sol.total_profit >= (1 - eps) * oracle.value
    if inst.mode is Mode.EXACT and sol.count != inst.cardinality:
        ok = False
    ratio = 1.0 if oracle.value == 0 else float(sol.total_profit / oracle.value)
    verdict = "PASS" if ok else "FAIL"
    line = (
        f"{path.name}: oracle={format_rational(oracle.value)} "
        f"fptas={format_rational(sol.total_profit)} ratio={ratio:.6f} {verdict}"
    )
    return line, ok


def cmd_verify(args) -> int:
    eps = _parse_eps(args.epsilon)
    target = Path(args.input)
    if target.is_dir():
        files = sorted(p for p in target.glob("*.json") if p.name != "manifest.json")
    elif target.exists():
        files = [target]
    else:
        raise _UsageError(f"input not found: {target}")
    if not files:
        raise _UsageError(f"no instance files under {target}")

    failures = 0
    for path in files:
        try:
            line, ok = _verify_one(path, eps, args.oracle)
        except ValueError as exc:
            raise _UsageError(f"{path.name}: {exc}") from None
        print(line)
        if not ok:
            failures += 1
    print(f"verified {len(files)} instance(s), {failures} failure(s)")
    return EXIT_VERIFY if failures else EXIT_OK


# ---------------------------------------------------------------------------
# convert
# ---------------------------------------------------------------------------

def cmd_convert(args) -> int:
    inst = _load_input(args)
    out = Path(args.output)
    to = args.to or ("csv" if out.suffix.lower() == ".csv" else "json")
    if to == "csv":
        save_instance_csv(inst, out)
    else:
        save_instance(inst, out)
    print(f"wrote {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_input_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="instance file (JSON or CSV)")
    p.add_argument("--format", choices=["json", "csv"], default=None)
    p.add_argument("--budget", default=None, help="budget (CSV input only)")
    p.add_argument("--cardinality", type=int, default=None, help="K (CSV input only)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kknapsack",
        description="Approximation scheme for the cardinality-constrained 0-1 knapsack problem",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="approximate one instance")
    _add_input_opts(p)
    p.add_argument("--epsilon", required=True, help="relative error bound in (0,1)")
    p.add_argument("--mode", choices=[m.value for m in Mode], default=None)
    p.add_argument("--output", default=None, help="write the result JSON here")
    p.add_argument("--dump-partition", default=None, help="write the partition summary JSON here")
    p.add_argument("--dump-tables", default=None, help="write the folded weight table JSON here")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("generate", help="write seeded instance files + manifest")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--distribution", default="uniform", help=f"one of {DISTRIBUTIONS}")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cardinality", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=[m.value for m in Mode], default=None)
    p.add_argument("--weight-max", type=int, default=1000)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("verify", help="compare the solver against an exact oracle")
    p.add_argument("--input", required=True, help="instance file or directory")
    p.add_argument("--epsilon", required=True)
    p.add_argument("--oracle", choices=["brute", "dp"], default="brute")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("convert", help="convert between JSON and CSV instance files")
    _add_input_opts(p)
    p.add_argument("--mode", choices=[m.value for m in Mode], default=None)
    p.add_argument("--output", required=True)
    p.add_argument("--to", choices=["json", "csv"], default=None)
    p.set_defaults(fn=cmd_convert)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (InvalidInstanceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InfeasibleInstanceError as exc:
        print(f"error: infeasible exact-mode instance: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
