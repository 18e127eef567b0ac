"""Durable persistence for the game-as-database: the segmented delta log.

The engine already computes signed per-tick deltas (the table change
logs) and streams them to subscribers (the service layer); this
package makes those deltas *durable*.  A :class:`~repro.persistence.log.DeltaLog`
is an append-only sequence of checksummed records split across segment
files — the Redis-streams shape: append at the tail, trim whole segments
at the head, replay from any offset.  Two record kinds matter:

* **commit** — one per tick: every state table's netted row changes
  (rowid → old row, new row) plus the world's id counters.  The commit for
  tick *t* is the exact difference between the state at tick *t-1* and the
  state at tick *t*.
* **checkpoint** — a periodic full snapshot of every state table, so
  replay never has to walk the log from the beginning.

:mod:`~repro.persistence.segment` owns the on-disk framing (length-prefixed,
CRC-checksummed records; torn or corrupt tails are detected and cut),
:mod:`~repro.persistence.log` owns the log structure and the
:class:`~repro.persistence.log.WorldWal` writer that hooks into
``GameWorld.tick``, and :mod:`~repro.persistence.replay` reconstructs any
tick's world state by loading the nearest checkpoint and applying commits
forward — the basis of crash recovery, time-travel debugging and
restarted-node catch-up.
"""

from repro.persistence.log import DeltaLog, WalError, WorldWal
from repro.persistence.replay import (
    RecoveredState,
    ReplayError,
    net_table_changes,
    recover_world,
    replay_tables,
)

__all__ = [
    "DeltaLog",
    "WalError",
    "WorldWal",
    "RecoveredState",
    "ReplayError",
    "net_table_changes",
    "recover_world",
    "replay_tables",
]
