"""EngineConfig: the one public switchboard for engine feature paths.

Covers the consolidation contract: presets, the ``REPRO_ENGINE_PRESET``
environment hook, the rejection of the old scattered ``use_*`` keyword
arguments (``config=`` is the only way in), and the plumbing — one config
object threaded through ``GameWorld`` → ``Executor`` → ``Planner`` and
surfaced by the inspector.
"""

from __future__ import annotations

import pytest

from repro.engine import EngineConfig, Executor
from repro.engine.optimizer.planner import Planner
from repro.runtime.debug.inspector import TickInspector
from repro.runtime.world import GameWorld
from repro.workloads import (
    RTS_SOURCE,
    build_contagion_world,
    build_marketplace_world,
    build_rts_world,
    build_traffic_world,
)


class TestPresets:
    def test_defaults(self):
        config = EngineConfig()
        assert config.optimize and config.use_batch
        assert config.use_mqo and config.use_indexes and config.auto_index
        assert not config.use_compiled  # opt-in until the preset asks

    def test_fastest_enables_compilation(self):
        config = EngineConfig.fastest()
        assert config.use_compiled
        assert config.replace(use_compiled=False) == EngineConfig()

    def test_reference_is_row_path_only(self):
        config = EngineConfig.reference()
        assert not config.use_batch
        assert not config.use_mqo
        assert not config.use_indexes
        assert not config.use_compiled
        assert not config.use_fixpoint  # naive reference iteration

    def test_fixpoint_on_by_default(self):
        assert EngineConfig().use_fixpoint
        assert EngineConfig.fastest().use_fixpoint
        assert EngineConfig.debug().use_fixpoint

    def test_debug_keeps_per_query_plans(self):
        config = EngineConfig.debug()
        assert not config.use_mqo
        assert not config.auto_index
        assert not config.use_compiled
        assert config.use_batch  # still the production data layout

    def test_frozen(self):
        with pytest.raises(Exception):
            EngineConfig().use_batch = False

    def test_replace_and_as_dict_round_trip(self):
        config = EngineConfig().replace(use_compiled=True, index_create_after=7)
        assert config.use_compiled
        assert config.index_create_after == 7
        assert EngineConfig(**config.as_dict()) == config


class TestFromEnv:
    @pytest.mark.parametrize(
        ("value", "expected"),
        [
            ("", EngineConfig()),
            ("default", EngineConfig()),
            ("fastest", EngineConfig.fastest()),
            ("reference", EngineConfig.reference()),
            ("debug", EngineConfig.debug()),
            ("  FASTEST  ", EngineConfig.fastest()),  # trimmed, case-folded
        ],
    )
    def test_named_presets(self, monkeypatch, value, expected):
        monkeypatch.setenv("REPRO_ENGINE_PRESET", value)
        assert EngineConfig.from_env() == expected

    def test_unset_is_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE_PRESET", raising=False)
        assert EngineConfig.from_env() == EngineConfig()

    def test_unknown_preset_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_PRESET", "warp-speed")
        with pytest.raises(ValueError, match="warp-speed"):
            EngineConfig.from_env()

    def test_env_preset_reaches_default_constructed_world(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_PRESET", "fastest")
        world = build_rts_world(5, with_physics=False)
        assert world.config.use_compiled

    @pytest.mark.parametrize("preset", ["default", "fastest", "reference", "debug"])
    def test_env_presets_round_trip_every_flag(self, monkeypatch, preset):
        """Each preset survives env resolution and as_dict round-tripping
        with all fields intact — including ``use_fixpoint`` (regression:
        new flags must join the presets, the env hook, and the dict view)."""
        monkeypatch.setenv("REPRO_ENGINE_PRESET", preset)
        config = EngineConfig.from_env()
        assert "use_fixpoint" in config.as_dict()
        assert EngineConfig(**config.as_dict()) == config
        world = build_rts_world(5, with_physics=False)
        assert world.config == config
        assert world.executor.planner.config.use_fixpoint == config.use_fixpoint


class TestLegacyKeywordsRejected:
    @pytest.mark.parametrize(
        "construct",
        [
            lambda catalog: GameWorld(RTS_SOURCE, use_batch=False),
            lambda catalog: Executor(catalog, use_batch=False),
            lambda catalog: Planner(catalog, use_batch=False),
            lambda catalog: build_rts_world(5, use_batch=False),
            lambda catalog: build_traffic_world(5, use_batch=False),
            lambda catalog: build_marketplace_world(5, use_batch=False),
            lambda catalog: build_contagion_world(5, use_batch=False),
        ],
        ids=[
            "GameWorld",
            "Executor",
            "Planner",
            "build_rts_world",
            "build_traffic_world",
            "build_marketplace_world",
            "build_contagion_world",
        ],
    )
    def test_legacy_keyword_raises_type_error(self, unit_catalog, construct):
        with pytest.raises(TypeError, match="use_batch"):
            construct(unit_catalog)


class TestThreading:
    """One object, threaded through every layer unchanged."""

    def test_world_propagates_config_to_executor_and_planner(self):
        config = EngineConfig(use_mqo=False, auto_index=False)
        world = build_rts_world(5, with_physics=False, config=config)
        assert world.config is config
        assert world.executor.config is config
        assert world.executor.planner.config is config
        assert world.index_advisor is None  # auto_index off

    def test_advisor_tuning_comes_from_config(self):
        config = EngineConfig(index_create_after=2, index_evict_after=9)
        world = build_rts_world(5, with_physics=False, config=config)
        assert world.index_advisor is not None
        assert world.index_advisor.create_after == 2
        assert world.index_advisor.evict_after == 9

    def test_tick_counters_surface_active_config(self):
        config = EngineConfig.fastest()
        world = build_rts_world(5, with_physics=False, config=config)
        world.tick()
        counters = TickInspector(world).tick_counters()
        assert counters["engine_config"] == config.as_dict()
        assert counters["engine_config"]["use_compiled"] is True

    def test_kernel_lowering_requires_batch_path(self, unit_catalog):
        with_batch = Executor(unit_catalog, EngineConfig(use_compiled=True))
        without_batch = Executor(
            unit_catalog, EngineConfig(use_compiled=True, use_batch=False)
        )
        assert with_batch._kernel_lowering is not None
        assert without_batch._kernel_lowering is None
