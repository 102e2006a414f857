"""The benchmark's four workloads: which instances each one solves.

A workload's corpus is a list of jobs (instance, eps). Two seeds shape it:

- the corpus seed fixes the instance values (profits, weights, budget), drawn
  by the program's own seeded generator;
- the run seed (`--seed`) shuffles the item order and gives every item a new
  random id, so each run hands the program different input lists.

The cost of one solve depends strongly on the values: on one C02 shape
(uniform, n=157, K=19, eps=1/10) eight value seeds took from 6.3 s to 14 s.
Fresh values per run would make a run's time a draw from that spread, so the
run seed leaves the values alone. Pass another `--corpus-seed` to recheck a
claim on values that were not used while a change was written.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from kknapsack import Instance, Item, Mode
from kknapsack.generator import DISTRIBUTIONS, generate_instance

WORKLOADS = ("midscale-mix", "large-fold", "wide-n", "exact-k")
DEFAULT_CORPUS_SEED = 1


@dataclass(frozen=True)
class Job:
    label: str
    instance: Instance
    eps: Fraction


def _relabel(inst: Instance, rng: np.random.Generator) -> Instance:
    """Same items in a shuffled order, under new distinct random ids."""
    n = len(inst.items)
    order = rng.permutation(n)
    ids = rng.choice(8 * n, size=n, replace=False) + 1
    items = tuple(
        Item(id=int(ids[j]), profit=inst.items[i].profit, weight=inst.items[i].weight)
        for j, i in enumerate(order)
    )
    return Instance(
        items=items, budget=inst.budget, cardinality=inst.cardinality, mode=inst.mode
    )


def _midscale(corpus_seed: int, quick: bool) -> list[tuple[str, Instance, tuple]]:
    """C02-shaped corpus: families cycle, n in 30..200, K in 2..20,
    weight_max=40, budget capped at 1000, each instance at eps 1/10 and 3/10."""
    count, n_max = (4, 40) if quick else (50, 200)
    out = []
    for idx in range(count):
        shape = random.Random(f"midscale-{corpus_seed}-{idx}")
        dist = DISTRIBUTIONS[idx % len(DISTRIBUTIONS)]
        n = shape.randint(30, n_max)
        K = shape.randint(2, 20)
        inst = generate_instance(dist, n, K, seed=corpus_seed, index=idx, weight_max=40)
        if inst.budget > 1000:
            inst = Instance(
                items=inst.items, budget=Fraction(1000), cardinality=K, mode=Mode.AT_MOST
            )
        out.append((f"{dist}-n{n}-K{K}", inst, (Fraction(1, 10), Fraction(3, 10))))
    return out


def _large_fold(corpus_seed: int, quick: bool):
    n, K, count = (300, 16, 1) if quick else (2000, 64, 2)
    return [
        (
            f"correlated-n{n}-K{K}-i{i}",
            generate_instance("correlated", n, K, seed=corpus_seed, index=i),
            (Fraction(1, 10),),
        )
        for i in range(count)
    ]


def _wide_n(corpus_seed: int, quick: bool):
    (nu, Ku), (ns, Ks) = ((2000, 64), (200, 16)) if quick else ((20000, 256), (1000, 64))
    half = (Fraction(1, 2),)
    return [
        (f"uniform-n{nu}-K{Ku}", generate_instance("uniform", nu, Ku, seed=corpus_seed), half),
        (f"subset-sum-n{ns}-K{Ks}", generate_instance("subset-sum", ns, Ks, seed=corpus_seed), half),
    ]


def _exact_k(corpus_seed: int, quick: bool):
    n, K, count = (40, 5, 2) if quick else (200, 20, 3)
    return [
        (
            f"uniform-exact-n{n}-K{K}-i{i}",
            generate_instance("uniform", n, K, seed=corpus_seed, index=i, mode=Mode.EXACT),
            (Fraction(1, 4),),
        )
        for i in range(count)
    ]


_BUILDERS = {
    "midscale-mix": _midscale,
    "large-fold": _large_fold,
    "wide-n": _wide_n,
    "exact-k": _exact_k,
}


def build_corpus(workload: str, seed: int, corpus_seed: int, quick: bool) -> list[Job]:
    """Every job of one round, in the order they are solved."""
    base = _BUILDERS[workload](corpus_seed, quick)
    jobs = []
    for idx, (label, inst, eps_values) in enumerate(base):
        rng = np.random.default_rng((seed, WORKLOADS.index(workload), idx))
        inst = _relabel(inst, rng)
        jobs.extend(Job(label, inst, eps) for eps in eps_values)
    return jobs
