"""Top-level approximation solves.

At-most mode: round and partition the items, fold the high-profit classes
into a weight table, then sweep every split of the budget and cardinality
between the table side and the small-item relaxations -- table-side
candidates are the coarse anchor profits x (multiples of eps*opt_estimate)
crossed with the slot count k in 0..z; the small side answers the remaining
budget and slots. The winning split is materialised into actual item ids
and reported with profits recomputed exactly from the original instance.

Exact mode ("pick exactly K") reduces to at-most mode on a profit-shifted
instance where every item gains Delta = 1 + opt_estimate, which exceeds the
total profit of every feasible selection of fewer than K items: filling a
missing slot then always pays more than any profit a short selection could
collect, so the shifted optimum takes exactly K items, and a short returned
selection is repaired by swapping in the K lightest items (which provably
beat it on the shifted instance). The certification loop runs at most two
rounds: if the first internal accuracy misses the guarantee certificate
against a cheap exact lower bound, the second is set exactly where the
certificate holds by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .instance_model import (
    Instance,
    Mode,
    Solution,
    convert_exact_to_atmost,
    evaluate_solution,
    make_solution,
    validate_instance,
)
from .large_items import build_phi_L, retrieve_items
from .preprocessing import TrivialInstanceError, build_partition, half_approx_opt
from .small_items import solver_for_partition

ZERO = Fraction(0)

# Hard cap on certification rounds in exact mode; two rounds suffice by
# construction (the second accuracy is chosen to satisfy the certificate
# identically), this only turns an impossible runaway into a loud error.
MAX_EXACT_ROUNDS = 200


class InvalidInstanceError(ValueError):
    """The instance failed structural validation."""


class InfeasibleInstanceError(Exception):
    """Exact mode: no K items fit within the budget."""


@dataclass(frozen=True)
class SplitCandidate:
    """One evaluated split of budget and slots between the two sides."""

    grid_index: int
    large_slots: int
    large_weight: Fraction
    small_budget: Fraction
    small_value: Fraction
    total: Fraction


def solve(inst: Instance, eps_user, *, internal_eps=None) -> Solution:
    sol, _ = solve_with_details(inst, eps_user, internal_eps=internal_eps)
    return sol


def solve_with_details(
    inst: Instance, eps_user, *, internal_eps=None
) -> tuple[Solution, dict]:
    """Solve and return (solution, diagnostics). Diagnostics carry the
    partition, the folded table and the chosen split for debug dumps."""
    eps_user = Fraction(eps_user)
    if not 0 < eps_user < 1:
        raise ValueError(f"epsilon must be in (0,1), got {eps_user}")
    report = validate_instance(inst)
    if not report.ok:
        raise InvalidInstanceError("; ".join(report.errors))

    eps_int = Fraction(internal_eps) if internal_eps is not None else eps_user / 8
    if not 0 < eps_int < 1:
        raise ValueError(f"internal epsilon must be in (0,1), got {eps_int}")

    if inst.mode is Mode.EXACT:
        return _solve_exact(inst, eps_user, eps_int)
    return _solve_atmost(inst, eps_int, eps_user)


def _solve_atmost(
    inst: Instance, eps_int: Fraction, eps_label: Fraction
) -> tuple[Solution, dict]:
    try:
        partition = build_partition(inst, eps_int)
    except TrivialInstanceError:
        sol = make_solution(inst, (), eps_label)
        return sol, {"trivial": True, "internal_eps": eps_int}

    table = build_phi_L(partition)
    grid = table.grid
    small = solver_for_partition(partition)

    # Enumerate the feasible splits first and announce their residual budgets
    # to the small solver before querying it.
    splits: list[tuple[int, int, Fraction, Fraction]] = []
    for k in range(grid.z + 1):
        for x in grid.anchor_indices():
            if not table.is_finite(x, k):
                continue
            lw = table.value_at(x, k)
            if lw > inst.budget:
                continue
            splits.append((k, x, lw, inst.budget - lw))
    small.register_query_weights([s[3] for s in splits])

    best: Optional[SplitCandidate] = None
    for k, x, lw, omega in splits:
        sv = small.phi_dag(omega, partition.cardinality - k)
        total = grid.profit_value(x) + sv
        if best is None or total > best.total:
            best = SplitCandidate(
                grid_index=x,
                large_slots=k,
                large_weight=lw,
                small_budget=omega,
                small_value=sv,
                total=total,
            )
    assert best is not None  # (k=0, x=0) is always a feasible split

    large_ids = retrieve_items(table, best.grid_index, best.large_slots)
    small_detail = small.eval_detail(
        best.small_budget, partition.cardinality - best.large_slots
    )
    ids = frozenset(large_ids) | frozenset(small_detail.integral_ids)
    sol = make_solution(inst, ids, eps_label)

    feas = evaluate_solution(inst, sol)
    assert feas.feasible, feas.violations

    details = {
        "internal_eps": eps_int,
        "opt_estimate": partition.opt_estimate,
        "z": grid.z,
        "grid_m": grid.m,
        "table_cells": grid.cell_count,
        "split": best,
        "split_count": len(splits),
        "partition": partition,
        "table": table,
        "large_ids": tuple(sorted(large_ids)),
        "small_ids": tuple(sorted(small_detail.integral_ids)),
        "small_pool": len(small.items),
    }
    return sol, details


def _solve_exact(
    inst: Instance, eps_user: Fraction, eps_start: Fraction
) -> tuple[Solution, dict]:
    K = inst.cardinality
    fitting = sorted(
        (it for it in inst.items if it.weight <= inst.budget),
        key=lambda it: (it.weight, it.id),
    )
    if len(fitting) < K:
        raise InfeasibleInstanceError(
            f"only {len(fitting)} items fit individually, need {K}"
        )
    prefix = [ZERO]
    for it in fitting:
        prefix.append(prefix[-1] + it.weight)
    if prefix[K] > inst.budget:
        raise InfeasibleInstanceError(
            f"the {K} lightest items weigh {prefix[K]} > budget {inst.budget}"
        )

    # Best single profit completable to a feasible K-set by the K-1 lightest
    # other items. Any positive-value K-set certifies its members this way,
    # so lb0 == 0 forces the exact optimum to be 0.
    lb0 = ZERO
    lb0_ids: list[int] = [it.id for it in fitting[:K]]
    for pos, it in enumerate(fitting):
        total = prefix[K] if pos < K else prefix[K - 1] + it.weight
        if total <= inst.budget and it.profit > lb0:
            lb0 = it.profit
            if pos < K:
                lb0_ids = [x.id for x in fitting[:K]]
            else:
                lb0_ids = [x.id for x in fitting[: K - 1]] + [it.id]

    if lb0 == 0:
        ids = [it.id for it in fitting[:K]]
        sol = make_solution(inst, ids, eps_user)
        return sol, {"exact_mode": True, "lb0": ZERO, "rounds": []}

    # Delta must exceed the total profit of every feasible selection of
    # fewer than K items. opt_estimate = 2 * half_approx_opt bounds the
    # at-most-K optimum from above, hence every such selection; staying
    # close to the true optimum keeps the shifted profits small, which in
    # turn keeps the certified internal accuracy below from collapsing.
    delta = 1 + 2 * half_approx_opt(inst)
    shifted, delta = convert_exact_to_atmost(inst, delta)

    lightest_ids = [it.id for it in fitting[:K]]
    lightest_value = sum((it.profit for it in fitting[:K]), ZERO)

    # Best feasible K-set seen so far; its exact value is the lower bound
    # the certificate measures against, and it is what gets returned -- so
    # the bound never exceeds the returned value.
    best_ids = lb0_ids
    best_value = sum((inst.by_id[i].profit for i in lb0_ids), ZERO)

    eps_int = eps_start
    rounds: list[dict] = []
    for _ in range(MAX_EXACT_ROUNDS):
        sol_sh, det = _solve_atmost(shifted, eps_int, eps_user)
        ids = list(sol_sh.selected)
        value_exact = sum((inst.by_id[i].profit for i in ids), ZERO)
        repaired = False
        if len(ids) < K:
            # The K lightest items fit (prechecked) and beat any shorter
            # selection on the shifted instance: filling even one missing
            # slot gains delta, more than the short selection's entire
            # unshifted profit (<= delta - 1). Swapping them in can only
            # raise the shifted value, so the loss bound still holds.
            gain = (lightest_value + K * delta) - (value_exact + len(ids) * delta)
            assert gain > 0, (gain, len(ids))
            ids = lightest_ids
            value_exact = lightest_value
            repaired = True
        if value_exact > best_value:
            best_ids, best_value = ids, value_exact
        opt_sh_hat = det.get("opt_estimate", ZERO)
        assert opt_sh_hat > 0  # shifted profits are all >= delta >= 1
        # Guarantee chain: OPT - value_exact <= 8*eps_int*opt_sh_hat (the
        # at-most solve's loss bound survives repair and the shift), so
        # accepting when that is <= eps_user*best_value yields
        # OPT - best_value <= OPT - value_exact <= eps_user*best_value
        # <= eps_user*OPT.
        accepted = 8 * eps_int * opt_sh_hat <= eps_user * best_value
        rounds.append(
            {
                "internal_eps": eps_int,
                "count": len(ids),
                "repaired": repaired,
                "opt_estimate_shifted": opt_sh_hat,
                "accepted": accepted,
            }
        )
        if accepted:
            sol = make_solution(inst, best_ids, eps_user)
            feas = evaluate_solution(inst, sol)
            assert feas.feasible, feas.violations
            assert sol.count == K
            details = {
                "exact_mode": True,
                "lb0": lb0,
                "delta": delta,
                "rounds": rounds,
                "final": det,
            }
            return sol, details
        # Jump straight to an accuracy that certifies: at
        # eps = eps_user*best_value / (8*opt_sh_hat) the acceptance
        # inequality holds identically next round (opt_sh_hat is a
        # deterministic function of the shifted instance, so it is the same
        # number, and best_value never decreases).
        target = eps_user * best_value / (8 * opt_sh_hat)
        eps_int = min(eps_int / 2, target)
    raise RuntimeError(
        f"exact-mode certification did not converge in {MAX_EXACT_ROUNDS} rounds"
    )
