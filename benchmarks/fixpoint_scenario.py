"""Shared transitive-closure scenario for the fixpoint benchmarks and CI.

A long-diameter supply graph: one spine path ``0 -> 1 -> ... -> n-1``
with a short leaf hanging off every tenth node.  The closure from node 0
needs ~``n`` expansion rounds, which is exactly the shape that separates
semi-naive from naive iteration: per round the semi-naive frontier is a
couple of rows while the naive frontier is the whole accumulator, so
total row work is O(n) vs O(n²) for the same result.

Churn is *insert-only* (new delivery leaves attached to random spine
nodes), so default executors warm-restart the cached closure from just the
new edges instead of re-closing from scratch; the from-scratch comparator
is :func:`cold_semi_naive_executor`.
Used by ``bench_fixpoint.py`` (pytest gate) and ``ci_bench.py`` (the CI
benchmark/regression pipeline), so the two always measure the same
workload.
"""

from __future__ import annotations

import random
from collections import deque

from repro.engine.algebra import Fixpoint, Join, Project, RecursiveRef, TableScan, Values
from repro.engine.catalog import Catalog
from repro.engine.config import EngineConfig
from repro.engine.executor import Executor
from repro.engine.expressions import BinaryOp, ColumnRef
from repro.engine.schema import Column, Schema
from repro.engine.table import Table

N_NODES = 1200
LEAF_EVERY = 30
CHURN_FRACTION = 0.01  # new edges per tick, as a fraction of the edge count
SEED = 7


def build_edges_catalog(n_nodes: int = N_NODES) -> tuple[Catalog, Table]:
    catalog = Catalog()
    edges = catalog.create_table("edges", Schema([Column("src"), Column("dst")]))
    rows = [{"src": i, "dst": i + 1} for i in range(n_nodes - 1)]
    rows += [
        {"src": i, "dst": n_nodes + i} for i in range(0, n_nodes, LEAF_EVERY)
    ]
    edges.insert_many(rows)
    return catalog, edges


def cold_semi_naive_executor(catalog: Catalog) -> Executor:
    """A semi-naive executor that re-closes from scratch after churn.

    Warm restarts are on in every config with ``use_fixpoint``; the
    planner's ``fixpoint_incremental`` switch (set before the first
    execute, so no plan is lowered with delta variants) turns them off for
    this comparator only.
    """
    executor = Executor(catalog, EngineConfig())
    executor.planner.physical_planner.fixpoint_incremental = False
    return executor


def closure_plan(start: int = 0) -> Fixpoint:
    """Reachable node set from *start* — set semantics, warm-restartable."""
    schema = Schema([Column("node")])
    base = Values(schema, [{"node": start}])
    step = Project(
        Join(
            RecursiveRef(schema),
            TableScan("edges"),
            BinaryOp("==", ColumnRef("node"), ColumnRef("src")),
            how="inner",
        ),
        {"node": ColumnRef("dst")},
    )
    return Fixpoint(base, step)


def churn_step(
    edges: Table, rng: random.Random, tick: int, fraction: float = CHURN_FRACTION
) -> int:
    """Insert-only churn: attach new delivery leaves to random spine nodes."""
    n_new = max(1, int(len(edges) * fraction))
    edges.insert_many(
        {
            "src": rng.randrange(N_NODES),
            "dst": 1_000_000 + tick * 100_000 + j,
        }
        for j in range(n_new)
    )
    return n_new


def bfs_reachable(edges: Table, start: int = 0) -> set:
    """Imperative reference oracle for the closure plan."""
    adjacency: dict = {}
    for row in edges.rows():
        adjacency.setdefault(row["src"], []).append(row["dst"])
    seen = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for nxt in adjacency.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen
