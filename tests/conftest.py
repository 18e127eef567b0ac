"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.engine import Catalog, Column, DataType, EngineConfig, Schema


@pytest.fixture
def unit_catalog() -> Catalog:
    """A catalog with a populated ``unit`` table of 100 units on a 100x100 map."""
    catalog = Catalog()
    schema = Schema(
        [
            Column("id", DataType.NUMBER, nullable=False),
            Column("player", DataType.NUMBER),
            Column("x", DataType.NUMBER),
            Column("y", DataType.NUMBER),
            Column("health", DataType.NUMBER),
            Column("range", DataType.NUMBER),
        ]
    )
    table = catalog.create_table("unit", schema, key="id")
    rng = random.Random(42)
    for i in range(100):
        table.insert(
            {
                "id": i,
                "player": i % 4,
                "x": rng.uniform(0, 100),
                "y": rng.uniform(0, 100),
                "health": rng.randint(1, 100),
                "range": 10,
            }
        )
    return catalog


@pytest.fixture
def env_config():
    """``env_config(**flags)``: the ``REPRO_ENGINE_PRESET`` config with
    ``flags`` overridden.  Path-parity tests build their configs this way
    so they keep running under whichever preset the suite runs with (CI's
    fastest leg adds compiled kernels to both sides of every comparison)."""

    def make(**flags) -> EngineConfig:
        return EngineConfig.from_env().replace(**flags)

    return make


SIMPLE_GAME = """
class Unit {
  state:
    number player = 0;
    number x = 0;
    number y = 0;
    number health = 100;
    number range = 5;
  effects:
    number damage : sum;
    number vx : avg;
    number vy : avg;
}

script brawl(Unit self) {
  accum number hits with sum over Unit u from UNIT {
    if (u.x >= x - range && u.x <= x + range &&
        u.y >= y - range && u.y <= y + range && u.player != player) {
      hits <- 1;
    }
  } in {
    if (hits > 0) { damage <- hits; }
  }
}
"""


@pytest.fixture
def simple_game_source() -> str:
    return SIMPLE_GAME
