"""Contagion / supply-chain disruption workload.

A road network of supply ``Site`` objects, each storing up to three
outgoing road links as state attributes.  Infected sites propagate
exposure along roads with the ``reach`` construct — a multi-source
transitive closure: every infected site seeds its own closure, but the
compiler lowers all of them into *one* :class:`~repro.engine.algebra.
Fixpoint` plan whose accumulator carries an actor column, and MQO shares
the derived edge relation across scripts.  The per-tick hop cap
(``iterate``) models shipment latency, so disruption spreads a bounded
number of hops per tick instead of closing instantly.

Churn is the point of this workload: :func:`churn_links` rewires a
fraction of road links between ticks (the supply chain re-routes), which
invalidates the closure and exercises fixpoint recomputation under
change, and :func:`infect` introduces new outbreak seeds.
"""

from __future__ import annotations

import random
from typing import Iterable

from repro.engine.config import EngineConfig
from repro.runtime.world import ExecutionMode, GameWorld

__all__ = [
    "CONTAGION_SOURCE",
    "site_rows",
    "build_contagion_world",
    "churn_links",
    "infect",
    "infected_ids",
]

#: Hops a disruption travels per tick (the ``iterate`` cap in the script).
HOPS_PER_TICK = 3

CONTAGION_SOURCE = """
class Site {
  state:
    number idx = 0;
    number link1 = 0;
    number link2 = 0;
    number link3 = 0;
    number infected = 0;
  effects:
    number exposure : max;
}

// Every infected site closes over the road network and exposes every
// site within HOPS_PER_TICK hops; exposed sites turn infected by the
// update rule, so the outbreak front advances a bounded distance per
// tick.  The road relation is derived from the link columns, so churned
// links are picked up on the next tick's closure.
script spread(Site self) {
  if (infected > 0) {
    reach Site n from self via Site cur
        on n.idx == cur.link1 || n.idx == cur.link2 || n.idx == cur.link3
        iterate 3 {
      n.exposure <- 1;
    }
  }
}
"""


def site_rows(
    n_sites: int, seed: int = 11, n_infected: int = 1, n_chords: int = 2
) -> Iterable[dict]:
    """A connected road network: a ring plus random chord links.

    Every site links to its ring successor (the trunk road) and up to
    *n_chords* random chords (0–2), giving out-degree ≤ 3.  Two chords
    make a small-diameter graph the closure floods in a few ticks; zero
    chords leave a pure ring whose diameter is ``n_sites`` — useful when
    a demo or benchmark wants many expansion rounds.
    """
    rng = random.Random(seed)
    for i in range(n_sites):
        chords = sorted(rng.sample(range(n_sites), k=min(n_chords, n_sites - 1)))
        links = [(i + 1) % n_sites]
        links += [c for c in chords if c != i and c not in links]
        links = (links + [-1, -1, -1])[:3]
        yield {
            "idx": i,
            "link1": links[0],
            "link2": links[1],
            "link3": links[2],
            "infected": 1 if i < n_infected else 0,
        }


def build_contagion_world(
    n_sites: int,
    mode: ExecutionMode = ExecutionMode.COMPILED,
    seed: int = 11,
    n_infected: int = 1,
    n_chords: int = 2,
    *,
    config: EngineConfig | None = None,
) -> GameWorld:
    """A contagion world where exposure converts to infection each tick."""
    world = GameWorld(CONTAGION_SOURCE, mode=mode, config=config)
    world.add_update_rule(
        "Site",
        "infected",
        lambda state, effects: (
            1 if effects.get("exposure") else state["infected"]
        ),
    )
    world.spawn_many("Site", site_rows(n_sites, seed, n_infected, n_chords))
    return world


def churn_links(world: GameWorld, fraction: float, rng: random.Random) -> int:
    """Rewire a *fraction* of road links in place (supply re-routing).

    Each selected site gets a fresh random target for one of its chord
    links.  Returns the number of sites rewired.
    """
    sites = world.objects("Site")
    n = len(sites)
    n_rewire = max(1, int(n * fraction))
    rewired = 0
    for site in rng.sample(sites, k=min(n_rewire, n)):
        slot = rng.choice(("link2", "link3"))
        target = rng.randrange(n)
        if target == site["idx"]:
            continue
        world.set_state("Site", site["id"], **{slot: target})
        rewired += 1
    return rewired


def infect(world: GameWorld, site_idx: int) -> None:
    """Seed a new outbreak at the site with index *site_idx*."""
    for site in world.objects("Site"):
        if site["idx"] == site_idx:
            world.set_state("Site", site["id"], infected=1)
            return
    raise ValueError(f"no site with idx {site_idx}")


def infected_ids(world: GameWorld) -> set[int]:
    """Indices of currently infected sites."""
    return {s["idx"] for s in world.objects("Site") if s["infected"]}
