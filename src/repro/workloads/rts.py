"""Real-time-strategy workload (Warcraft-style units, Section 2.1).

The scripts exercise the query shapes the paper motivates: every unit scans
for enemies within its attack range (a spatial self-join, Figure 2),
applies damage effects, and broadcasts velocity intentions toward the
nearest concentration of enemies.  ``build_rts_world`` wires the scripts to
an update rule for health and the physics component for movement.
"""

from __future__ import annotations

import random
from typing import Iterable

from repro.engine.config import EngineConfig
from repro.runtime.physics import PhysicsComponent, PhysicsConfig
from repro.runtime.world import ExecutionMode, GameWorld
from repro.sgl.schema_gen import SchemaLayout

__all__ = ["RTS_SOURCE", "unit_rows", "build_rts_world", "attach_fog_of_war"]

RTS_SOURCE = """
class Unit {
  state:
    number player = 0;
    number x = 0;
    number y = 0;
    number health = 100;
    number range = 8;
    number attack = 1;
    number speed = 1;
  effects:
    number damage : sum;
    number vx : avg;
    number vy : avg;
    number enemies_seen : sum;
}

// Figure 2 of the paper: count the units within range of this unit.
script count_neighbours(Unit self) {
  accum number cnt with sum over Unit u from UNIT {
    if (u.x >= x - range && u.x <= x + range &&
        u.y >= y - range && u.y <= y + range) {
      cnt <- 1;
    }
  } in {
    enemies_seen <- cnt;
  }
}

// Combat: deal damage to every enemy unit in range.
script engage(Unit self) {
  accum number targets with sum over Unit u from UNIT {
    if (u.player != player &&
        u.x >= x - range && u.x <= x + range &&
        u.y >= y - range && u.y <= y + range) {
      u.damage <- attack;
      targets <- 1;
    }
  } in {
    if (targets == 0) {
      // Nobody in range: drift toward the centre of the map looking for a fight.
      vx <- (50 - x) / 50 * speed;
      vy <- (50 - y) / 50 * speed;
    }
  }
}
"""


def unit_rows(n_units: int, world_size: float = 100.0, seed: int = 17) -> Iterable[dict]:
    """Generate *n_units* random unit rows on two teams."""
    rng = random.Random(seed)
    for i in range(n_units):
        yield {
            "player": i % 2,
            "x": rng.uniform(0.0, world_size),
            "y": rng.uniform(0.0, world_size),
            "health": 100,
            "range": rng.choice([6, 8, 10]),
            "attack": rng.choice([1, 2]),
            "speed": rng.uniform(0.5, 1.5),
        }


def build_rts_world(
    n_units: int,
    mode: ExecutionMode = ExecutionMode.COMPILED,
    layout: SchemaLayout = SchemaLayout.SINGLE,
    world_size: float = 100.0,
    seed: int = 17,
    *,
    with_physics: bool = True,
    scripts: Iterable[str] | None = None,
    config: EngineConfig | None = None,
) -> GameWorld:
    """Build a ready-to-tick RTS world with *n_units* units."""
    world = GameWorld(RTS_SOURCE, mode=mode, layout=layout, config=config)
    world.add_update_rule(
        "Unit", "health", lambda state, effects: state["health"] - effects.get("damage", 0)
    )
    if with_physics:
        world.add_component(
            PhysicsComponent(
                PhysicsConfig(
                    class_name="Unit",
                    world_max_x=world_size,
                    world_max_y=world_size,
                    max_speed=2.0,
                )
            )
        )
    if scripts is not None:
        for name in world.enabled_scripts():
            world.disable_script(name)
        for name in scripts:
            world.enable_script(name)
    world.spawn_many("Unit", unit_rows(n_units, world_size, seed))
    return world


def attach_fog_of_war(
    world: GameWorld,
    n_observers: int = 8,
    vision: float = 12.0,
    seed: int = 29,
):
    """Attach "fog of war" observer streams to an RTS world.

    Each observer plays the role of one connected client following one of
    its units: an area-of-interest subscription on the ``Unit`` extent,
    centered on the observer unit and moving with it, so the client sees
    exactly the units inside its vision box — streamed as per-tick deltas
    instead of a fresh range query every tick (Section 4.1's "many
    concurrent players" serving model).

    Returns ``(manager, sessions, subscription_ids)``; drain each session
    with ``session.take()`` after ticking.
    """
    manager = world.subscriptions
    unit_ids = [row["id"] for row in world.objects("Unit")]
    if not unit_ids:
        raise ValueError("attach_fog_of_war needs a populated world")
    rng = random.Random(seed)
    observers = rng.sample(unit_ids, min(n_observers, len(unit_ids)))
    sessions = []
    subscription_ids = []
    for object_id in observers:
        session = manager.connect(f"observer-{object_id}")
        sub_id = manager.subscribe_aoi(
            session,
            "Unit",
            radius=vision,
            dims=("x", "y"),
            observer_id=object_id,
        )
        sessions.append(session)
        subscription_ids.append(sub_id)
    return manager, sessions, subscription_ids
