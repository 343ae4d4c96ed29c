"""Helpers only the tests use: the built-in presets as models, the check
that an oracle's error bar covers a reference value, and a seeded Monte
Carlo check of the discrete criterion sums."""

import math

import numpy as np

from fpsq.kernels import ModelSpec, build_model
from fpsq.numerics import exact_sum
from fpsq.oracles import OracleEstimate
from fpsq.scenarios import BUILTIN_MODEL_DESCRIPTORS


def builtin_models() -> dict[str, ModelSpec]:
    return {name: build_model(desc) for name, desc in BUILTIN_MODEL_DESCRIPTORS.items()}


def covers(est: OracleEstimate, reference: float) -> bool:
    return abs(est.value - reference) <= est.error_bound


def draw_atoms(law, seed: int, count: int) -> np.ndarray:
    """count seeded draws of a discrete law, as atom indices; the same
    draws for a fixed (seed, count)."""
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    return np.random.default_rng(seed).choice(len(law.values), size=count, p=law.probs)


def mc_criterion(model: ModelSpec, criterion: str, q: float | None, m: int,
                 num_pairs: int = 1_000_000, seed: int = 0) -> OracleEstimate:
    """Monte Carlo estimate of a discrete criterion sum with a 3-sigma band:
    the mean of K^m 1(kept) over num_pairs atom draws (K^m - 1 for "chi2").
    FP keeps the atoms with |<u,v>| <= delta (1 + 1e-12), rho_G-FP those with
    rho_G < r (1 - 1e-12), delta and r the thresholds at mass q^-2 of the atom
    table's overlap and rho Levels."""
    if criterion not in ("fp", "rho_fp", "chi2"):
        raise ValueError(f"unsupported Monte Carlo criterion {criterion!r}")
    law = model.law
    kept = np.ones(len(law.values), dtype=bool)
    if criterion != "chi2":
        levels = model.atom_table.overlap if criterion == "fp" else model.atom_table.rho
        if levels is None:
            raise ValueError("model exposes no Euclidean overlap")
        thr = levels.threshold(float(q) ** -2).threshold
        at = np.empty(len(kept))  # each atom's level
        at[levels.order] = np.repeat(levels.levels, np.diff(levels.starts))
        kept = at <= thr * (1.0 + 1e-12) if criterion == "fp" else at < thr * (1.0 - 1e-12)
    counts = np.bincount(draw_atoms(law, seed, num_pairs), minlength=len(kept))
    with np.errstate(over="ignore"):
        vals = np.where(kept, np.exp(m * model.log_k(law.values)), 0.0)
    if criterion == "chi2":
        vals -= 1.0
    mean = exact_sum(vals * counts) / num_pairs
    var = max(exact_sum(vals * vals * counts) / num_pairs - mean * mean, 0.0)
    return OracleEstimate(mean, 3.0 * math.sqrt(var / num_pairs), "monte-carlo")
