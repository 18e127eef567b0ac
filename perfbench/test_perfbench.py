"""Tests of the benchmark itself, on scaled-down worlds.

Run with ``python -m pytest perfbench -q`` from the root of the checkout
(``src`` must be importable, e.g. ``PYTHONPATH=src``).  They check that the
work counts are deterministic per seed, that the output checks catch a
planted fault in every workload, and that BENCHMARK.json names exactly the
metrics the benchmark prints.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from perfbench.layers import LAYER_METRICS
from perfbench.run import Run, parse_args
from perfbench.workloads import WORKLOADS
from repro.engine.config import EngineConfig

ROOT = Path(__file__).resolve().parent.parent
#: Small enough for a test, large enough that the rts advisor builds its
#: grid index (it ignores tables under 128 rows).
SCALE = 0.15


def traced_run(workload: str, seed: int, *extra: str) -> dict:
    """One traced run (a single set-up, the minimum tick count)."""
    args = parse_args(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", "1", *extra]
    )
    return Run(args, scale=SCALE).execute()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_work_counts_repeat_for_a_seed_and_differ_across_seeds(workload):
    first = traced_run(workload, 3)
    again = traced_run(workload, 3)
    other = traced_run(workload, 4)
    assert first["correct"] and again["correct"] and other["correct"]
    assert first["record"]["work_counts"] == again["record"]["work_counts"]
    assert first["record"]["work_counts"] != other["record"]["work_counts"]
    assert set(first["metrics"]) == set(LAYER_METRICS)


def _add_damage(monkeypatch):
    from repro.runtime.effects import EffectStore

    combine = EffectStore.combine

    def planted(self):
        combined = combine(self)
        for effects in combined.values.values():
            if "damage" in effects:
                effects["damage"] += 1
                break
        return combined

    monkeypatch.setattr(EffectStore, "combine", planted)


def _mint_gold(monkeypatch):
    from repro.runtime.transactions import TransactionEngine

    compute = TransactionEngine.compute_updates

    def planted(self, state, effects):
        return [
            dataclasses.replace(u, value=u.value + 1) if u.attribute == "gold" else u
            for u in compute(self, state, effects)
        ]

    monkeypatch.setattr(TransactionEngine, "compute_updates", planted)


def _drop_logged_updates(monkeypatch):
    from repro.persistence.log import DeltaLog

    append = DeltaLog.append

    def planted(self, record):
        if record.get("k") == "c":
            for entry in record["tables"].values():
                entry.pop("d", None)
        return append(self, record)

    monkeypatch.setattr(DeltaLog, "append", planted)


def _drop_aoi_messages(monkeypatch):
    from repro.service.interest import InterestManager

    flush = InterestManager.flush

    def planted(self, tick):
        flush(self, tick)
        return []

    monkeypatch.setattr(InterestManager, "flush", planted)


def _drop_halo(monkeypatch):
    from repro.shard.worker import ShardWorker

    # Workers fork from this process, so they inherit the patched class.
    monkeypatch.setattr(ShardWorker, "_export_halo", lambda self, tick: ({}, 0))


@pytest.mark.parametrize(
    ("workload", "plant", "check"),
    [
        ("rts-melee", _add_damage, "effects_equal_brute_force"),
        ("market-rush", _mint_gold, "gold_conserved"),
        ("fog-serve", _drop_logged_updates, "wal_replay_equals_live"),
        ("fog-serve", _drop_aoi_messages, "aoi_stream_equals_box_query"),
        ("shard-strips", _drop_halo, "gather_state_equals_single"),
    ],
)
def test_a_planted_fault_fails_the_checks(monkeypatch, workload, plant, check):
    plant(monkeypatch)
    result = traced_run(workload, 5)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["record"]["checks"][check]["failed"] >= 1


def test_failed_ticks_of_every_set_up_count(monkeypatch):
    # Tick numbers restart in each of the set-up worlds; each failure counts.
    _mint_gold(monkeypatch)
    args = parse_args(["--workload", "market-rush", "--seed", "5", "--seconds", "0"])
    result = Run(args, scale=SCALE).execute()
    assert result["record"]["setups"] == 3
    assert result["failed"] == result["attempted"] == result["record"]["timed_ticks"]


def test_engine_preset_is_ignored_and_ablation_is_recorded(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE_PRESET", "reference")
    args = parse_args(["--workload", "market-rush", "--seed", "1", "--seconds", "0"])
    assert Run(args).config == EngineConfig()
    result = traced_run("market-rush", 1, "--ablate", "use_mqo=false")
    assert result["record"]["config"]["use_mqo"] is False
    assert result["record"]["ablation"] == {"use_mqo": False}
    assert result["record"]["env_preset_ignored"] == "reference"
    unknown_flag = parse_args(
        ["--workload", "rts-melee", "--seed", "1", "--seconds", "0", "--ablate", "use_all=1"]
    )
    with pytest.raises(SystemExit):
        Run(unknown_flag)


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layer == LAYER_METRICS
    args = parse_args(["--workload", "market-rush", "--seed", "1", "--seconds", "0"])
    run = Run(args, scale=SCALE)
    run.setup_seconds, run.walls = [1.0], [0.1]
    run.workload = run.new_workload()
    gated = {name: unit for name, (_, unit, _) in run.end_to_end(1.0).items()}
    assert gated == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert set(run.ungated(0, 1)) == {"tick_p50_ms", "entity_ticks_per_s", "failed_tick_ratio"}
