"""Answer checks that share no code with the solver.

Every reference here is computed from the input items alone:

- `dp_optimum`: the optimum by a numpy DP over (count, weight), for integer
  instances small enough to tabulate;
- `lagrangian_bound`: mu*W + lam*K + sum max(0, p - mu*w - lam), an upper
  bound on the at-most-K optimum for any mu, lam >= 0 (and so on the
  exactly-K optimum too). The multipliers are searched in float and the bound
  is then evaluated exactly in `Fraction`;
- `check_answer`: feasibility, reported sums and the (1 - eps) guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

_NEG = -(1 << 62)
# Largest DP (items x slots x budget cells) worth running; above it the
# Lagrangian bound stands in for OPT (uniform n=20000, K=256 would need ~2e10).
DP_WORK_LIMIT = 2_000_000_000


@dataclass(frozen=True)
class Reference:
    """What one instance's answers are checked against."""

    opt: Optional[Fraction]  # exact optimum, when the DP was run
    upper: Fraction  # Lagrangian upper bound on the optimum

    @property
    def target(self) -> Fraction:
        """The value an answer is measured against: OPT, else the bound."""
        return self.opt if self.opt is not None else self.upper


def _is_integral(inst) -> bool:
    return inst.budget.denominator == 1 and all(
        it.profit.denominator == 1 and it.weight.denominator == 1 for it in inst.items
    )


def dp_optimum(inst, exact: bool) -> Optional[Fraction]:
    """Best profit with at most (or exactly) K items of total weight <= W.

    Row k of the table holds, per budget b, the best profit of k items
    weighing at most b. One numpy step per item updates all rows at once:
    the right-hand side is built from the old rows before any is written.
    Returns None when no exactly-K selection fits.
    """
    W, K = int(inst.budget), inst.cardinality
    dp = np.full((K + 1, W + 1), _NEG, dtype=np.int64)
    dp[0, :] = 0
    for it in inst.items:
        w, p = int(it.weight), int(it.profit)
        if w > W:
            continue
        np.maximum(dp[1:, w:], dp[:-1, : W + 1 - w] + p, out=dp[1:, w:])
    best = int(dp[K, W]) if exact else int(dp[:, W].max())
    return None if best < _NEG // 2 else Fraction(best)


def dp_affordable(inst) -> bool:
    work = len(inst.items) * inst.cardinality * (int(inst.budget) + 1)
    return _is_integral(inst) and work <= DP_WORK_LIMIT


def _bound_at(p, w, budget, K: int, mu):
    """min over lam >= 0 of the Lagrangian at this mu: the best lam is the
    K-th largest reduced profit p - mu*w, or 0."""
    reduced = sorted((pi - mu * wi for pi, wi in zip(p, w)), reverse=True)
    lam = max(reduced[K - 1], 0) if len(reduced) >= K else 0
    return mu * budget + lam * K + sum(r - lam for r in reduced if r > lam)


def lagrangian_bound(inst) -> Fraction:
    """Upper bound on the at-most-K optimum over the items that fit."""
    fitting = [it for it in inst.items if it.weight <= inst.budget]
    if not fitting:
        return Fraction(0)
    pf = np.array([float(it.profit) for it in fitting])
    wf = np.array([float(it.weight) for it in fitting])
    budget, K = float(inst.budget), inst.cardinality

    def g(mu: float) -> float:
        reduced = pf - mu * wf
        lam = 0.0
        if len(reduced) >= K:
            lam = max(float(np.partition(reduced, len(reduced) - K)[len(reduced) - K]), 0.0)
        return mu * budget + lam * K + float(np.maximum(reduced - lam, 0.0).sum())

    # g is convex in mu; golden-section search on [0, max p/w], where the
    # right end already gives the bound max(p/w) * W.
    lo, hi = 0.0, float((pf / np.maximum(wf, 1e-300)).max())
    ratio = (5 ** 0.5 - 1) / 2
    a, b = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    ga, gb = g(a), g(b)
    for _ in range(90):
        if ga <= gb:
            hi, b, gb = b, a, ga
            a = hi - ratio * (hi - lo)
            ga = g(a)
        else:
            lo, a, ga = a, b, gb
            b = lo + ratio * (hi - lo)
            gb = g(b)
    mu = Fraction(max(lo, 0.0)).limit_denominator(1 << 24)
    return _bound_at(
        [it.profit for it in fitting], [it.weight for it in fitting], inst.budget, K, mu
    )


def reference_for(inst, exact: bool) -> Reference:
    opt = dp_optimum(inst, exact) if dp_affordable(inst) else None
    return Reference(opt=opt, upper=lagrangian_bound(inst))


def check_answer(inst, exact: bool, eps: Fraction, ref: Reference, answer: dict) -> list[str]:
    """Problems with one reported answer; an empty list means it passed.

    `answer` holds the selected `ids` and the `profit`, `weight` and `count`
    the program reported for them.
    """
    items = {it.id: (it.profit, it.weight) for it in inst.items}
    ids = answer["ids"]
    problems = []
    if len(set(ids)) != len(ids):
        problems.append("repeated item ids")
    unknown = sorted(set(ids) - items.keys())
    if unknown:
        problems.append(f"ids not in the input: {unknown[:5]}")
        return problems
    profit = sum((items[i][0] for i in set(ids)), Fraction(0))
    weight = sum((items[i][1] for i in set(ids)), Fraction(0))
    count = len(set(ids))
    if weight > inst.budget:
        problems.append(f"weight {weight} over budget {inst.budget}")
    K = inst.cardinality
    if (count != K) if exact else (count > K):
        problems.append(f"count {count} breaks the cardinality {'==' if exact else '<='} {K}")
    reported = (Fraction(answer["profit"]), Fraction(answer["weight"]), answer["count"])
    if reported != (profit, weight, count):
        problems.append(f"reported (profit, weight, count) {reported} != {(profit, weight, count)}")
    if profit < (1 - eps) * ref.target:
        which = "OPT" if ref.opt is not None else "the Lagrangian bound"
        problems.append(f"value {profit} < (1 - {eps}) * {which} {ref.target}")
    return problems
