"""Seeded workload inputs for the coregular benchmark.

A workload is a list of :class:`Job`: one algebra, the options it is
analyzed with, and whether a reduction step follows.  Inputs depend only
on the workload name, the seed and the run length in seconds, so a run
repeats exactly; the program under test sees only the built algebras.

``filiform7``
    ``analyze(L(7))`` at the default bound 7.  The anchor-kernel system
    has 12012 unknowns, so ``kernel``/``linalg`` elimination dominates.
    The algebra is nilpotent: ``linalg.rational_roots`` never runs and
    ``pfaffian``/``grobner`` work is negligible.
``weights``
    Solvable ``t x| V`` with ``[v1, v_i] = w_i v_i`` for three integer
    weights of mixed sign and magnitude at most 12, analyzed at bound 3,
    then ``reduce_one_step`` along the first proper semi-invariant.  This
    is the eigenvalue path of ``invariants`` (``linalg.charpoly``,
    ``linalg.rational_roots``) with a tiny anchor kernel.  Larger weights
    such as (101, 103, -107) never finish today, so they are left out.
The weights are drawn stratified by cost, so that the total work of a
run varies little from seed to seed.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

WORKLOADS = ("filiform7", "weights")

# Passes over the inputs per run, each with fresh algebra objects; the
# benchmark counts every algebra with its best pass.
REPEATS = {"filiform7": 1, "weights": 4}
# Algebra analyses per second of --seconds, calibrated at the seed commit
# so that a run measures about --seconds; the count is fixed by the
# arguments, never by the clock, so work counts repeat exactly.
WEIGHTS_PER_SECOND = 4

MAX_WEIGHT = 12
WEIGHTS_BOUND = 3


@dataclass
class Job:
    algebra: object      # coregular.LieAlgebra
    max_degree: int | None
    reduce: bool = False


def _trial_division_cost(weights) -> int:
    """Cost proxy of one weights algebra: ``linalg.rational_roots`` finds
    the eigenvalues of ad(v1) on S^d(V), the sums of d weights, by trial
    division up to the square root of their product."""
    cost = 0
    for d in range(1, WEIGHTS_BOUND + 1):
        product = 1
        for combo in itertools.combinations_with_replacement(weights, d):
            product *= abs(sum(combo)) or 1
        cost += math.isqrt(product)
    return cost


def weight_triples(rng: random.Random, count: int) -> list[tuple[int, ...]]:
    """``count`` distinct weight triples of mixed sign, magnitudes
    1..MAX_WEIGHT, one from each of ``count`` cost strata.

    Triples equal up to order or an overall sign are one algebra; the
    classes are sorted by their trial-division cost and cut into strata
    of equal size, and ``rng`` draws one class per stratum, its order and
    its overall sign.  Every run thus gets the same spread of cost, up to
    the slowest inputs, whatever the seed.
    """
    classes = sorted(
        (_trial_division_cost((a, b, -c)), (a, b, -c))
        for a in range(1, MAX_WEIGHT + 1) for b in range(a, MAX_WEIGHT + 1)
        for c in range(1, MAX_WEIGHT + 1))
    if count > len(classes):
        raise ValueError(f"at most {len(classes)} distinct weight triples")
    out = []
    for i in range(count):
        lo = i * len(classes) // count
        hi = (i + 1) * len(classes) // count
        triple = list(classes[rng.randrange(lo, hi)][1])
        rng.shuffle(triple)
        sign = rng.choice((1, -1))
        out.append(tuple(sign * w for w in triple))
    rng.shuffle(out)
    return out


def build(api, workload: str, seed: int, seconds: int) -> list[Job]:
    """Construct (and so Jacobi-validate) every algebra of one run.

    ``api`` is the imported ``coregular`` package.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "filiform7":
        return [Job(api.filiform(7), None)]
    if workload == "weights":
        jobs = []
        count = max(1, round(WEIGHTS_PER_SECOND * seconds
                             / REPEATS[workload]))
        for ws in weight_triples(rng, count):
            brackets = {(0, i + 1): {i + 1: w} for i, w in enumerate(ws)}
            label = "weights(" + ",".join(str(w) for w in ws) + ")"
            g = api.LieAlgebra(["v1", "v2", "v3", "v4"], brackets, label=label)
            jobs.append(Job(g, WEIGHTS_BOUND, reduce=True))
        return jobs
    raise ValueError(f"unknown workload {workload!r}")
