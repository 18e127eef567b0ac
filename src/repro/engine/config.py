"""Engine configuration: one frozen object for every optional engine path.

:class:`EngineConfig` is the engine's single configuration surface: build
one and pass it as ``config=`` to :class:`~repro.runtime.world.GameWorld`,
the executor, the planner or any ``build_*_world`` constructor.  Named
presets (:meth:`EngineConfig.fastest`, :meth:`EngineConfig.reference`,
:meth:`EngineConfig.debug`) capture the three configurations benchmarks
and bug reports actually use, and ``REPRO_ENGINE_PRESET`` selects one from
the environment so CI can run the whole suite under e.g. the fully
compiled configuration.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, replace
from typing import Any

__all__ = ["EngineConfig", "resolve_engine_config"]

_PRESET_ENV_VAR = "REPRO_ENGINE_PRESET"


@dataclass(frozen=True)
class EngineConfig:
    """Immutable switchboard for every optional engine path.

    ``optimize``        run the logical rewrite/join-reorder passes.
    ``use_batch``       lower fusable plans onto the columnar batch operators.
    ``use_mqo``         share common subplans across the tick's query set.
    ``use_indexes``     let the physical planner pick index scans/probes.
    ``auto_index``      run the index advisor (create/evict grid indexes).
    ``use_compiled``    compile fusable pipelines into per-plan Python
                        kernels (implies the batch layout; ignored when
                        ``use_batch`` is off).
    ``use_fixpoint``    evaluate recursive Fixpoint plans semi-naive (each
                        round joins only the previous round's delta) and
                        warm-restart cached closures after insert-only
                        churn; ``False`` runs the naive reference loop over
                        the full accumulator.
    ``index_create_after`` / ``index_evict_after``
                        advisor tuning: hot streak before creating an
                        index, idle ticks before evicting one.
    """

    optimize: bool = True
    use_batch: bool = True
    use_mqo: bool = True
    use_indexes: bool = True
    auto_index: bool = True
    use_compiled: bool = False
    use_fixpoint: bool = True
    index_create_after: int = 3
    index_evict_after: int = 30

    # -- presets ---------------------------------------------------------------------------

    @classmethod
    def fastest(cls) -> "EngineConfig":
        """Every optimization on, including kernel compilation."""
        return cls(use_compiled=True)

    @classmethod
    def reference(cls) -> "EngineConfig":
        """Row-path-only semantics oracle: no batch, sharing or indexes."""
        return cls(
            use_batch=False,
            use_mqo=False,
            use_indexes=False,
            auto_index=False,
            use_compiled=False,
            use_fixpoint=False,
        )

    @classmethod
    def debug(cls) -> "EngineConfig":
        """Deterministic single-query plans: compilation, sharing and the
        self-tuning advisor off, so every query keeps its own inspectable
        operator tree."""
        return cls(use_mqo=False, auto_index=False, use_compiled=False)

    @classmethod
    def from_env(cls) -> "EngineConfig":
        """The preset named by ``REPRO_ENGINE_PRESET`` (default config if unset)."""
        preset = os.environ.get(_PRESET_ENV_VAR, "").strip().lower()
        if preset in ("", "default"):
            return cls()
        if preset == "fastest":
            return cls.fastest()
        if preset == "reference":
            return cls.reference()
        if preset == "debug":
            return cls.debug()
        raise ValueError(
            f"unknown {_PRESET_ENV_VAR}={preset!r}; "
            "expected one of: default, fastest, reference, debug"
        )

    # -- derivation ------------------------------------------------------------------------

    def replace(self, **changes: Any) -> "EngineConfig":
        """A copy with the given fields changed (frozen dataclasses can't mutate)."""
        return replace(self, **changes)

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict view for reports and benchmark metadata."""
        return asdict(self)


def resolve_engine_config(config: EngineConfig | None) -> EngineConfig:
    """*config*, or the ``REPRO_ENGINE_PRESET`` preset when it is ``None``."""
    return config if config is not None else EngineConfig.from_env()
