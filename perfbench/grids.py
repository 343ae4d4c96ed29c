"""Workload definitions: models, criteria and the seeded (q, m, lambda) grid.

Every workload is a list of blocks.  A block is one model descriptor plus
the criteria, q grid and m grid a ``fpsq sweep`` over that model would
evaluate; its cells run criterion-major, then q, then m, the order
``fpsq.cli.cmd_criterion`` uses.  The seed only draws grid points and
lambda values from fixed ranges, so two seeds do the same amount of work
up to the cost of the drawn points.  ``tiny`` keeps every model family
and criterion but shrinks the grids (and, on ``discrete-large``, the
laws) for the smoke test.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

ALL_CRITERIA = ("fp", "rho_fp", "gfp", "sq", "usq", "chi2", "ld")
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Block:
    label: str
    desc: dict
    criteria: tuple
    qs: tuple
    ms: tuple

    def cells(self):
        for crit in self.criteria:
            for q in self.qs:
                for m in self.ms:
                    yield crit, q, m


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _gam_rademacher(lam: float, n: int) -> dict:
    return {"model": "gam", "lambda": lam, "prior": {"kind": "rademacher_mean", "n": n}}


def discrete_wide(rng: random.Random, tiny: bool) -> list[Block]:
    # n = 1000 has 501 sign orbits (GFP greedy path); n = 126 has 64,
    # the exact branch-and-bound limit.  The mslr model is the `mslr`
    # scenario's (n = 10^4, k = 50, SNR = 1).
    lam_a = rng.uniform(0.6, 1.0)
    lam_b = rng.uniform(1.0, 1.4)
    qs = tuple(sorted(_log_uniform(rng, 2.0, 4096.0) for _ in range(2 if tiny else 9)))
    ms = tuple(sorted(rng.sample(range(1, 65), 2 if tiny else 5)))
    return [
        Block("gam-rademacher-1000", _gam_rademacher(lam_a, 1000), ALL_CRITERIA, qs, ms),
        Block("gam-rademacher-126", _gam_rademacher(lam_b, 126), ALL_CRITERIA, qs, ms),
        Block("mslr-scenario", {"model": "mslr", "n": 10_000, "k": 50, "sigma2": 50.0},
              ALL_CRITERIA, qs, ms),
    ]


def discrete_large(rng: random.Random, tiny: bool) -> list[Block]:
    lam = rng.uniform(0.6, 1.0)
    qs = (_log_uniform(rng, 16.0, 1024.0),)
    ms = (rng.randint(1, 16),)
    scale = 10 if tiny else 1
    crits = ("fp", "rho_fp", "chi2")
    return [
        Block("gam-rademacher-4000", _gam_rademacher(lam, 4000 // scale), crits, qs, ms),
        Block("mslr-hypergeometric",
              {"model": "mslr", "n": 1_000_000 // scale, "k": 1000 // scale,
               "sigma2": 1000.0 / scale}, crits, qs, ms),
        Block("ngca-signed-sparse",
              {"model": "ngca", "mu": {"kind": "atoms", "values": [-1.0, 1.0],
                                       "probs": [0.5, 0.5]},
               "prior": {"kind": "signed_sparse", "n": 1000 // scale, "k": 200 // scale},
               "max_degree": 40}, crits, qs, ms),
        # the `slab-truncation` scenario's model
        Block("slab-scenario", {"model": "slab", "alpha": 0.1, "d": 2000 // scale,
                                "max_degree": 100}, crits, qs, ms),
    ]


def sphere_sweep(rng: random.Random, tiny: bool) -> list[Block]:
    # One small and one large q per seed keep the per-seed cost level:
    # the threshold search on the series kernel costs more at small q.
    lam = rng.uniform(0.8, 1.2)
    q_lo = _log_uniform(rng, 8.0, 32.0)
    q_hi = _log_uniform(rng, 512.0, 2048.0)
    qs = (q_lo,) if tiny else (q_lo, q_hi)
    ms = (rng.randint(1, 8),)
    return [
        Block("si-sign-sphere", {"model": "si", "link": {"kind": "sign"},
                                 "prior": {"kind": "sphere", "n": 50},
                                 "max_degree": 20 if tiny else 80},
              ALL_CRITERIA, qs, ms),
        Block("gam-sphere", {"model": "gam", "lambda": lam, "prior": {"kind": "sphere", "n": 50}},
              ALL_CRITERIA, qs, ms),
    ]


WORKLOADS = {
    "discrete-wide": discrete_wide,
    "discrete-large": discrete_large,
    "sphere-sweep": sphere_sweep,
}


def blocks(workload: str, seed: int, tiny: bool = False) -> list[Block]:
    return WORKLOADS[workload](random.Random(seed), tiny)


def cell_key(block: Block, crit: str, q: float, m: int) -> str:
    return f"{block.label}|{crit}|q={q!r}|m={m}"
