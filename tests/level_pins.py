"""The sphere-law level sets of SQ, rho_G-FP and GFP, bit for bit.

For each pinned cell, the level search's threshold, achieved mass and
exactness flag and the criterion's value, the floats as ``float.hex``, so
a comparison is exact.  The cells: SQ, rho_G-FP and GFP at q in {3, 100},
m = 4, on gam (lambda = 1) on the sphere at n = 2, 3 and 50, on
``si-sign-sphere`` and on the mixture NGCA model (weights 0.3, 0.7; means
-1.4, 0.6; variances 0.5; n = 50), plus SQ at q = 1.05 on the mixture.
The recorded file ``tests/data/level_pins.json`` pins them;
``tests/test_continuous.py`` compares against it.  Regenerate with

    PYTHONPATH=src python3 tests/level_pins.py > tests/data/level_pins.json
"""

from __future__ import annotations

import json
import os
import sys

DATA_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "level_pins.json")

MIXTURE = {"model": "ngca", "prior": {"kind": "sphere", "n": 50},
           "mu": {"kind": "gaussian_mixture", "weights": [0.3, 0.7], "means": [-1.4, 0.6],
                  "vars": [0.5, 0.5]}}
MODELS = {
    **{f"gam-sphere-n{n}": {"model": "gam", "lambda": 1.0, "prior": {"kind": "sphere", "n": n}}
       for n in (2, 3, 50)},
    "si-sign-sphere": {"model": "si", "link": {"kind": "sign"}, "prior": {"kind": "sphere", "n": 50}},
    "mixture-ngca": MIXTURE,
}


def cells():
    """(model name, criterion, q, m) of every pinned cell."""
    for name in MODELS:
        for crit in ("sq", "rho_fp", "gfp"):
            for q in (3.0, 100.0):
                yield name, crit, q, 4
    yield "mixture-ngca", "sq", 1.05, 4


def level_pins() -> dict:
    """cell key -> [threshold, achieved mass, exact, value], floats as hex."""
    from fpsq.criteria import CRITERIA, Cell
    from fpsq.kernels import build_model

    models = {name: build_model(desc) for name, desc in MODELS.items()}
    out = {}
    for name, crit, q, m in cells():
        rep = CRITERIA[crit].report(models[name], Cell(q, m))
        thr = rep.threshold or rep.detail["level"]
        out[f"{name}|{crit}|q={q!r}|m={m}"] = [thr.threshold.hex(), thr.achieved_mass.hex(), thr.exact,
                                               float(rep.value).hex()]
    return out


if __name__ == "__main__":
    json.dump(level_pins(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
