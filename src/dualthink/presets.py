"""Named pipeline configurations for ablation studies.

:func:`ablation_presets` returns the eight canonical single-mode rows: the
fast pass alone, the full deliberation pipeline alone, and six partial
pipelines with later stages knocked out. The combined fast-plus-gate
configuration ("System 1 + System 2", which is also the engine default)
sits outside that list but is addressable through :func:`preset`.
"""

from __future__ import annotations

from .errors import ConfigError
from .types import SYSTEM2_STAGES, Agent, PipelineConfig


def _system2_only(*stages: Agent) -> PipelineConfig:
    return PipelineConfig(
        stages=frozenset(stages),
        system1_enabled=False,
        reflection_enabled=False,
        force_system2=True,
    )


_P = Agent.PLANNING
_S = Agent.SEARCH
_R = Agent.READING
_H = Agent.HYPOTHESIS
_I = Agent.INTEGRATION
_D = Agent.DECISION

#: Combined mode: quick pass plus gate, escalating into the full pipeline.
DUAL_PRESET_NAME = "System 1 + System 2"

#: Every named configuration: the eight ablation rows in report order, then
#: the combined mode.
_PRESETS: dict[str, PipelineConfig] = {
    "System 1": PipelineConfig(stages=frozenset(), reflection_enabled=False),
    "System 2 (Full)": _system2_only(*SYSTEM2_STAGES),
    "System 2 (Planning + Search + Hypothesis + Integration + Decision)": _system2_only(
        _P, _S, _H, _I, _D
    ),
    "System 2 (Planning + Search + Reading + Hypothesis + Decision)": _system2_only(
        _P, _S, _R, _H, _D
    ),
    "System 2 (Planning + Search + Hypothesis + Decision)": _system2_only(_P, _S, _H, _D),
    "System 2 (Planning + Search + Reading + Decision)": _system2_only(_P, _S, _R, _D),
    "System 2 (Planning + Search + Decision)": _system2_only(_P, _S, _D),
    "System 2 (Hypothesis + Decision)": _system2_only(_H, _D),
    DUAL_PRESET_NAME: PipelineConfig(),
}


def ablation_presets() -> list[tuple[str, PipelineConfig]]:
    """The eight canonical ablation rows, in order."""
    return [(name, config) for name, config in _PRESETS.items() if name != DUAL_PRESET_NAME]


def preset_names() -> list[str]:
    return list(_PRESETS)


def preset(name: str) -> PipelineConfig:
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(_PRESETS)}")
    return _PRESETS[name]
