"""Traffic-simulation workload (Section 4.2).

"We are currently working on a project to simulate traffic networks with
millions of vehicles, and this will surely require a clustered
architecture."  This workload is that simulation scaled to laptop sizes but
with the same structure: a ring road of ``road_length`` units, vehicles
following a car-following rule (slow down when the vehicle ahead is close,
speed up otherwise).  The acting vehicle finds the nearest vehicle ahead
with an accum-loop using the ``min`` combinator.

For the distributed experiments the module also exposes plain row
generators so the cluster simulation can partition vehicles spatially
without going through a :class:`GameWorld`.
"""

from __future__ import annotations

import random
from typing import Iterable

from repro.engine.config import EngineConfig
from repro.runtime.world import ExecutionMode, GameWorld

__all__ = ["TRAFFIC_SOURCE", "vehicle_rows", "build_traffic_world"]

TRAFFIC_SOURCE = """
class Vehicle {
  state:
    number lane = 0;
    number position = 0;
    number velocity = 1;
    number max_velocity = 2;
    number lookahead = 12;
  effects:
    number target_velocity : min;
}

// Car following: match speed to the gap to the nearest vehicle ahead in
// the same lane (the accum-loop computes the smallest positive gap).
script follow(Vehicle self) {
  accum number gap with min over Vehicle v from Vehicle {
    if (v.lane == lane && v.position > position &&
        v.position <= position + lookahead) {
      gap <- v.position - position;
    }
  } in {
    if (gap == null) {
      target_velocity <- max_velocity;
    } else {
      if (gap < 4) {
        target_velocity <- 0;
      } else {
        target_velocity <- min(max_velocity, gap / 4);
      }
    }
  }
}
"""


def vehicle_rows(
    n_vehicles: int, n_lanes: int = 4, road_length: float = 1000.0, seed: int = 23
) -> Iterable[dict]:
    """Vehicles spread over lanes with jittered spacing."""
    rng = random.Random(seed)
    per_lane = max(1, n_vehicles // n_lanes)
    spacing = road_length / per_lane
    for i in range(n_vehicles):
        lane = i % n_lanes
        slot = i // n_lanes
        yield {
            "lane": lane,
            "position": min(road_length, slot * spacing + rng.uniform(0, spacing * 0.5)),
            "velocity": rng.uniform(0.5, 1.5),
            "max_velocity": rng.uniform(1.5, 2.5),
            "lookahead": 12.0,
        }


def build_traffic_world(
    n_vehicles: int,
    mode: ExecutionMode = ExecutionMode.COMPILED,
    n_lanes: int = 4,
    road_length: float = 1000.0,
    seed: int = 23,
    *,
    config: EngineConfig | None = None,
) -> GameWorld:
    """A ring-road traffic world; positions wrap around at ``road_length``."""
    world = GameWorld(TRAFFIC_SOURCE, mode=mode, config=config)
    world.add_update_rule(
        "Vehicle",
        "velocity",
        lambda state, effects: (
            state["velocity"]
            if effects.get("target_velocity") is None
            else effects["target_velocity"]
        ),
    )
    world.add_update_rule(
        "Vehicle",
        "position",
        lambda state, effects: (state["position"] + state["velocity"]) % road_length,
    )
    world.spawn_many("Vehicle", vehicle_rows(n_vehicles, n_lanes, road_length, seed))
    return world
