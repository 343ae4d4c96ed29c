"""Helpers only the tests use: the built-in presets as models, and the
check that an oracle's error bar covers a reference value."""

from fpsq.kernels import ModelSpec, build_model
from fpsq.oracles import OracleEstimate
from fpsq.scenarios import BUILTIN_MODEL_DESCRIPTORS


def builtin_models() -> dict[str, ModelSpec]:
    return {name: build_model(desc) for name, desc in BUILTIN_MODEL_DESCRIPTORS.items()}


def covers(est: OracleEstimate, reference: float) -> bool:
    return abs(est.value - reference) <= est.error_bound
