"""CPU time of building the models on the largest exact discrete laws.

    PYTHONPATH=src python3 tests/law_build.py [SCALE] > laws.json

Builds, one after another in one process, a model on each of a fixed list
of discrete laws: ``signed_sparse`` at (n, k) = (1000, 200), the
``discrete-large`` benchmark's law, and at (10^5, 1000); ``rademacher_mean``
at n = 10^6 (under ``gam``); ``hypergeometric`` at (10^9, 10^5).  SCALE
(default 1) divides every n and k, for a quick run.  Prints one JSON
object: per law its model and descriptor, its atom count, the CPU seconds
of ``build_model`` (``build_s``) and of the whole atom table, every part
of which a criterion builds on its first read (``atom_table_s``), then the
process's peak RSS in MB.
"""

from __future__ import annotations

import json
import resource
import sys
import time

SIGNS = {"kind": "atoms", "values": [-1.0, 1.0], "probs": [0.5, 0.5]}
# the atom table's parts built on first read (log K and K - 1 come with the table;
# log_orbit_mass, which GFP alone reads, was never part of the timed table)
PARTS = ("mirror", "mirror_dev", "orbit", "orbit_rep", "orbit_mass", "overlap", "rho", "abs_dev")


def models(scale: int) -> list[dict]:
    def signed_sparse(n: int, k: int) -> dict:
        return {"model": "ngca", "mu": SIGNS, "max_degree": 40,
                "prior": {"kind": "signed_sparse", "n": n // scale, "k": k // scale}}

    return [
        signed_sparse(1000, 200),
        signed_sparse(10**5, 1000),
        {"model": "gam", "lambda": 1.0, "prior": {"kind": "rademacher_mean", "n": 10**6 // scale}},
        {"model": "mslr", "n": 10**9 // scale, "k": 10**5 // scale, "sigma2": 10.0**5 / scale},
    ]


def law_build(scale: int) -> dict:
    from fpsq.kernels import build_model

    laws = []
    for desc in models(scale):
        t0 = time.process_time()
        model = build_model(desc)
        t1 = time.process_time()
        for part in PARTS:
            getattr(model.atom_table, part)
        laws.append({"model": desc["model"], "law": model.law.descriptor, "atoms": len(model.law.values),
                     "build_s": t1 - t0, "atom_table_s": time.process_time() - t1})
    return {
        "scale": scale,
        "laws": laws,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


if __name__ == "__main__":
    if len(sys.argv) > 2:
        sys.exit("usage: law_build.py [SCALE]")
    json.dump(law_build(int(sys.argv[1]) if len(sys.argv) == 2 else 1), sys.stdout, indent=1)
    sys.stdout.write("\n")
