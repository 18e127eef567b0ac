"""The four benchmark workloads.

Each workload builds one of the shipped worlds from a seed, with the
engine configuration passed in explicitly (never read from the
environment), warms it up, and then exposes one timed ``step`` per tick.
Everything around the step -- refilling the marketplace, capturing the
state a check needs, running the checks -- happens in ``before_step`` and
``after_step`` and in ``final_checks``, outside the timed region.

* ``rts-melee``: the effect-step workload; the band self-join probing the
  advisor's grid index dominates the tick.
* ``fog-serve``: the same scripts on a sparse map with fog-of-war
  subscribers drained every tick and a WAL attached; subscriber reads and
  durable writes sit beside the query work.
* ``market-rush``: the marketplace; no band join, no index, no subscriber,
  so the transaction/update path dominates.
* ``shard-strips``: the rts scripts on two strip shards in worker
  processes; the only workload that runs exchange, halo and barrier.
"""

from __future__ import annotations

import bisect
import functools
import math
import random
import resource
import shutil
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, NamedTuple

from repro.engine.config import EngineConfig
from repro.persistence.replay import replay_tables
from repro.runtime.world import ExecutionMode, GameWorld, TickReport
from repro.service.protocol import ResultSet, row_key
from repro.shard import ShardedWorld, ShardSpec
from repro.workloads.marketplace import build_marketplace_world
from repro.workloads.rts import attach_fog_of_war, build_rts_world, unit_rows

#: Warm-up never needs more ticks than this; more means plans never settle.
MAX_WARMUP_TICKS = 20

#: Per-tick counters summed into the deterministic work counts.
SINGLE_COUNTERS = (
    "effect_assignments",
    "fused_effect_rows",
    "state_updates_applied",
    "transactions_committed",
    "transactions_aborted",
    "subscription_messages",
    "subscription_delta_rows",
    "wal_bytes",
    "wal_delta_rows",
)
SHARD_COUNTERS = (
    "exchange_bytes",
    "exchange_rows",
    "halo_rows",
    "handoff_rows",
    "subscription_messages",
    "subscription_delta_rows",
)

PHASES = ("effect", "update", "reactive", "flush", "persist", "advisor")


class Check(NamedTuple):
    """One output check of one tick."""

    tick: int
    name: str
    passed: bool
    detail: str


def _scaled(count: int, scale: float) -> int:
    return max(2, int(round(count * scale)))


def _table_states(world: GameWorld) -> dict[str, dict[int, dict[str, Any]]]:
    """Every state table as ``rowid -> row``, the form ``replay_tables`` returns."""
    return {
        name: world.catalog.table(name).snapshot()
        for generated in world.schemas.values()
        for name in generated.state_table_names()
    }


def rts_effects_by_brute_force(units: list[dict[str, Any]]) -> tuple[dict, dict]:
    """``damage`` and ``enemies_seen`` of one rts tick, from the pre-tick rows.

    Evaluates the ``engage`` and ``count_neighbours`` conditions for every
    pair whose x-coordinates can satisfy them, with the same float
    expressions as the scripts, so the result must match the engine's
    combined effects exactly.
    """
    by_x = sorted(units, key=lambda row: row["x"])
    xs = [row["x"] for row in by_x]
    damage: dict[Any, float] = defaultdict(int)
    seen: dict[Any, float] = defaultdict(int)
    for me in units:
        x, y, reach = me["x"], me["y"], me["range"]
        x_low, x_high, y_low, y_high = x - reach, x + reach, y - reach, y + reach
        for other in by_x[bisect.bisect_left(xs, x_low) : bisect.bisect_right(xs, x_high)]:
            if x_low <= other["x"] <= x_high and y_low <= other["y"] <= y_high:
                seen[me["id"]] += 1
                if other["player"] != me["player"]:
                    damage[other["id"]] += me["attack"]
    return damage, seen


class Workload:
    """One seeded world plus its timed step and its output checks."""

    name = ""
    #: Entities the world holds (the ``entity_ticks_per_s`` numerator).
    entities = 0

    def __init__(self, seed: int, config: EngineConfig, workdir: Path, scale: float = 1.0):
        self.seed = seed
        self.config = config
        self.workdir = workdir
        self.scale = scale
        self.warmup_ticks = 0

    # -- lifecycle -------------------------------------------------------------------

    def setup(self) -> None:
        """Build, spawn, attach and warm up (the span ``setup_s`` times)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release processes and files; safe to call twice."""

    # -- the tick loop ---------------------------------------------------------------

    def before_step(self, index: int) -> None:
        """Untimed work before timed tick *index*."""

    def step(self) -> tuple[Any, float]:
        """One timed tick; returns ``(report, seconds inside the tick call)``."""
        raise NotImplementedError

    def after_step(self, index: int, report: Any) -> list[Check]:
        """Untimed checks after timed tick *index*."""
        return []

    def final_checks(self) -> tuple[list[Check], int]:
        """Checks after the loop, and the number of extra ticks they ran."""
        return [], 0

    # -- counters --------------------------------------------------------------------

    def counts(self, report: Any) -> dict[str, int]:
        """Deterministic work counts of one tick."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def extras(self) -> dict[str, Any]:
        """Run facts that are not metrics (``fog-serve``'s recovery time)."""
        return {}

    def probe_layers(self) -> None:
        """Traced run only: call layers the timed ticks may not reach."""


class SingleWorldWorkload(Workload):
    """A single-process :class:`GameWorld`."""

    world: GameWorld

    def build(self) -> GameWorld:
        raise NotImplementedError

    def setup(self) -> None:
        self.world = self.build()
        self.attach()
        min_ticks = self.config.index_create_after + 1
        for ticks in range(1, MAX_WARMUP_TICKS + 1):
            self.before_step(-1)
            report, _ = self.step()
            if ticks >= min_ticks and report.plan_cache_misses == 0:
                self.warmup_ticks = ticks
                return
        raise RuntimeError(f"{self.name}: plans still missing after {MAX_WARMUP_TICKS} ticks")

    def attach(self) -> None:
        """Subscribers and logs, after the world is built."""

    def step(self) -> tuple[TickReport, float]:
        started = time.perf_counter()
        report = self.world.tick()
        return report, time.perf_counter() - started

    def counts(self, report: TickReport) -> dict[str, int]:
        return {name: getattr(report, name) for name in SINGLE_COUNTERS}


class RtsMelee(SingleWorldWorkload):
    name = "rts-melee"
    units = 1000

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.entities = _scaled(self.units, self.scale)
        self._sampled_index = self.seed % 2
        self._pre_tick_units: list[dict[str, Any]] | None = None

    def build(self) -> GameWorld:
        return build_rts_world(self.entities, seed=self.seed, config=self.config)

    def before_step(self, index: int) -> None:
        if index == self._sampled_index:
            self._pre_tick_units = self.world.objects("Unit")

    def after_step(self, index: int, report: TickReport) -> list[Check]:
        if index != self._sampled_index or self._pre_tick_units is None:
            return []
        damage, seen = rts_effects_by_brute_force(self._pre_tick_units)
        self._pre_tick_units = None
        combined = self.world.last_effects.values
        wrong = []
        for row in self.world.objects("Unit"):
            effects = combined.get(("Unit", row["id"]), {})
            for effect, expected in (("damage", damage), ("enemies_seen", seen)):
                got, want = effects.get(effect, 0), expected.get(row["id"], 0)
                if got != want:
                    wrong.append(f"unit {row['id']} {effect}={got}, brute force {want}")
        detail = f"{len(wrong)} wrong effects" + (f", first: {wrong[0]}" if wrong else "")
        return [Check(report.tick, "effects_equal_brute_force", not wrong, detail)]


class FogServe(SingleWorldWorkload):
    name = "fog-serve"
    units = 1000
    observers = 1000
    vision = 12.0
    checkpoint_interval = 50

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.entities = _scaled(self.units, self.scale)
        self.n_observers = _scaled(self.observers, self.scale)
        self.wal_dir = self.workdir / f"wal-{self.seed}-{id(self)}"
        self.recovery_s: float | None = None
        self._sampled: ResultSet = ResultSet()
        self._taken: list[list[Any]] = []

    def build(self) -> GameWorld:
        return build_rts_world(
            self.entities, world_size=300.0, seed=self.seed, config=self.config
        )

    def attach(self) -> None:
        _, self.sessions, _ = attach_fog_of_war(
            self.world, n_observers=self.n_observers, vision=self.vision, seed=self.seed
        )
        self.sample_index = self.seed % len(self.sessions)
        self.sample = self.sessions[self.sample_index]
        for message in self.sample.take():
            self._sampled.apply(message)
        for session in self.sessions:
            session.take()
        self.world.attach_wal(str(self.wal_dir), checkpoint_interval=self.checkpoint_interval)

    def step(self) -> tuple[TickReport, float]:
        started = time.perf_counter()
        report = self.world.tick()
        ticked = time.perf_counter() - started
        self._taken = [session.take() for session in self.sessions]
        return report, ticked

    def before_step(self, index: int) -> None:
        # Messages drained during warm-up belong to the sampled stream too.
        self._apply_sampled()

    def after_step(self, index: int, report: TickReport) -> list[Check]:
        self._apply_sampled()
        return []

    def _apply_sampled(self) -> None:
        if self._taken:
            for message in self._taken[self.sample_index]:
                self._sampled.apply(message)
            self._taken = []

    def final_checks(self) -> tuple[list[Check], int]:
        last_tick = self.world.tick_count - 1
        started = time.perf_counter()
        replayed = replay_tables(str(self.wal_dir))
        self.recovery_s = time.perf_counter() - started
        same = replayed.tick == last_tick and replayed.tables == _table_states(self.world)
        results = [
            Check(last_tick, "wal_replay_equals_live", same, f"replayed tick {replayed.tick}")
        ]

        observer_id = int(self.sample.name.rsplit("-", 1)[1])
        table = self.world.catalog.table(self.world.schemas["Unit"].primary_table)
        observer = table.get_by_key(observer_id)
        box = [(observer[d] - self.vision, observer[d] + self.vision) for d in ("x", "y")]
        expected = sorted(
            row_key(row)
            for row in table.rows()
            if all(low <= row[d] <= high for d, (low, high) in zip(("x", "y"), box))
        )
        got = sorted(row_key(row) for row in self._sampled.rows())
        results.append(
            Check(last_tick, "aoi_stream_equals_box_query", got == expected,
                  f"{self.sample.name}: {len(got)} streamed rows, {len(expected)} in box")
        )
        return results, 0

    def extras(self) -> dict[str, Any]:
        return {"recovery_s": self.recovery_s}

    def probe_layers(self) -> None:
        # One checkpoint every 50 commits rarely lands in a short run.
        self.world.wal.checkpoint()

    def close(self) -> None:
        if getattr(self, "world", None) is not None and self.world.wal is not None:
            self.world.detach_wal()
        shutil.rmtree(self.wal_dir, ignore_errors=True)


class MarketRush(SingleWorldWorkload):
    name = "market-rush"
    buyers = 600
    buyers_per_item = 4
    #: Each seller is restocked to a seeded 1..3 items before every tick
    #: (2 on average, ``build_marketplace_world``'s default), so which purchases
    #: commit depends on the seed while the mean commit ratio stays 1/2.
    restock = (1, 3)

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.n_buyers = _scaled(self.buyers, self.scale)
        self.entities = self.n_buyers + max(1, self.n_buyers // self.buyers_per_item)
        self._buyer_gold: dict[int, float] = {}
        self._sellers: list[int] = []
        self._restock_rng = random.Random(self.seed)
        self._before: tuple[float, float] = (0.0, 0.0)

    def build(self) -> GameWorld:
        world = build_marketplace_world(
            self.n_buyers,
            buyers_per_item=self.buyers_per_item,
            mode=ExecutionMode.COMPILED,
            seed=self.seed,
            config=self.config,
        )
        for row in world.objects("Trader"):
            if row["is_seller"]:
                self._sellers.append(row["id"])
            else:
                self._buyer_gold[row["id"]] = row["gold"]
        return world

    def before_step(self, index: int) -> None:
        """Restock sellers and refill buyer gold, so every tick trades."""
        stock_of = {seller: self._restock_rng.randint(*self.restock) for seller in self._sellers}
        gold = stock = 0.0
        for row in self.world.objects("Trader"):
            if row["id"] in stock_of:
                refill = {"stock": stock_of[row["id"]]}
            else:
                refill = {"gold": self._buyer_gold[row["id"]]}
            if any(row[field] != value for field, value in refill.items()):
                self.world.set_state("Trader", row["id"], **refill)
                row.update(refill)
            gold += row["gold"]
            stock += row["stock"]
        self._before = (gold, stock)

    def after_step(self, index: int, report: TickReport) -> list[Check]:
        rows = self.world.objects("Trader")
        gold = sum(row["gold"] for row in rows)
        stock = sum(row["stock"] for row in rows)
        negative = [row["id"] for row in rows if row["gold"] < 0 or row["stock"] < 0]
        return [
            Check(
                report.tick,
                "gold_conserved",
                math.isclose(gold, self._before[0], rel_tol=1e-12, abs_tol=1e-9),
                f"{self._before[0]} -> {gold}",
            ),
            Check(report.tick, "stock_conserved", stock == self._before[1],
                  f"{self._before[1]} -> {stock}"),
            Check(report.tick, "no_negative_balance", not negative, f"negative: {negative[:5]}"),
        ]


def shard_world_factory(config_fields: dict[str, Any]) -> GameWorld:
    """An empty 300-wide rts world; module level so workers can import it."""
    return build_rts_world(
        0, world_size=ShardStrips.world_size, config=EngineConfig(**config_fields)
    )


class ShardStrips(Workload):
    name = "shard-strips"
    units = 3000
    subscribers = 300
    n_shards = 2
    world_size = 300.0
    halo_width = 12.0
    aoi_radius = 8.0

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.entities = _scaled(self.units, self.scale)
        self.n_subscribers = _scaled(self.subscribers, self.scale)
        self.spec = ShardSpec(
            axis_column="x",
            world_min=0.0,
            world_max=self.world_size,
            halo_width=self.halo_width,
            partitioned_classes=("Unit",),
        )
        self.sharded: ShardedWorld | None = None

    def setup(self) -> None:
        rows = list(unit_rows(self.entities, world_size=self.world_size, seed=self.seed))
        rng = random.Random(self.seed)
        factory = functools.partial(shard_world_factory, self.config.as_dict())
        self.sharded = ShardedWorld(factory, self.spec, n_shards=self.n_shards)
        self.sharded.load({"Unit": rows})
        for i in range(self.n_subscribers):
            center = (rng.uniform(0.0, self.world_size), rng.uniform(0.0, self.world_size))
            self.sharded.subscribe_aoi(f"sub-{i}", "Unit", radius=self.aoi_radius, center=center)
        # Plan-cache misses happen inside the workers, out of sight: warm up
        # for as many ticks as a single-process world needs to build the
        # advisor's index and replan once.
        self.warmup_ticks = self.config.index_create_after + 2
        for _ in range(self.warmup_ticks):
            self.sharded.tick()

    def step(self) -> tuple[Any, float]:
        report = self.sharded.tick()
        return report, report.wall_seconds

    def counts(self, report: Any) -> dict[str, int]:
        counts = {name: getattr(report, name) for name in SHARD_COUNTERS}
        counts["effect_assignments"] = sum(
            worker.get("effect_assignments", 0) for worker in report.per_worker
        )
        return counts

    def final_checks(self) -> tuple[list[Check], int]:
        """Tick the fleet and a single-process world once from the same state.

        One tick, because a fresh single world's first ticks cost ~3 s at
        this size; it still crosses a halo exchange and a handoff phase.
        """
        state = self.sharded.gather_state()["Unit"]
        oracle = shard_world_factory(self.config.as_dict())
        for object_id in sorted(state):
            oracle.adopt("Unit", state[object_id])
        report = self.sharded.tick()
        oracle.tick()
        fleet = self.sharded.gather_state()["Unit"]
        single = {row["id"]: row for row in oracle.objects("Unit")}
        diverged = [i for i in single if fleet.get(i) != single[i]]
        diverged += [i for i in fleet if i not in single]
        detail = f"{len(diverged)} of {len(single)} units differ"
        return [Check(report.tick, "gather_state_equals_single", not diverged, detail)], 1

    def peak_rss_mb(self) -> float:
        """Coordinator peak plus the largest worker's peak (workers joined)."""
        self.close()
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return (own + workers) / 1024.0

    def close(self) -> None:
        if self.sharded is not None:
            self.sharded.close()
            self.sharded = None


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (RtsMelee, FogServe, MarketRush, ShardStrips)
}
