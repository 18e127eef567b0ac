"""Change-log consumer cursors: the edge cases the subscription service
depends on (capacity eviction mid-stream, destroy() deltas, schema
replacement/invalidation survival)."""

from __future__ import annotations

import pytest

from repro.engine import Catalog, Column, DataType, Schema
from repro.engine.table import Table
from repro.workloads.rts import build_rts_world


def make_table(key: str | None = "id") -> Table:
    schema = Schema(
        [
            Column("id", DataType.NUMBER, nullable=False),
            Column("x", DataType.NUMBER),
            Column("y", DataType.NUMBER),
        ]
    )
    return Table("unit", schema, key=key)


class TestCursorBasics:
    def test_poll_nets_insert_update_delete(self):
        table = make_table()
        r0 = table.insert({"id": 0, "x": 1, "y": 1})
        cursor = table.open_cursor()
        assert cursor.poll() == ([], [])

        r1 = table.insert({"id": 1, "x": 2, "y": 2})
        table.update(r0, {"x": 5})
        added, removed = cursor.poll()
        assert sorted(r["id"] for r in added) == [0, 1]
        assert [r["id"] for r in removed] == [0]
        assert [r["x"] for r in removed] == [1]  # pre-mutation copy

        table.delete(r1)
        added, removed = cursor.poll()
        assert added == []
        assert [r["id"] for r in removed] == [1]

    def test_insert_then_delete_nets_to_nothing(self):
        table = make_table()
        cursor = table.open_cursor()
        rid = table.insert({"id": 7, "x": 0, "y": 0})
        table.delete(rid)
        assert cursor.poll() == ([], [])

    def test_noop_update_nets_to_nothing(self):
        table = make_table()
        rid = table.insert({"id": 7, "x": 3, "y": 4})
        cursor = table.open_cursor()
        table.update(rid, {"x": 3})
        assert cursor.poll() == ([], [])

    def test_two_cursors_track_independent_positions(self):
        table = make_table()
        slow, fast = table.open_cursor(), table.open_cursor()
        table.insert({"id": 1, "x": 1, "y": 1})
        added, _ = fast.poll()
        assert len(added) == 1
        table.insert({"id": 2, "x": 2, "y": 2})
        added, _ = fast.poll()
        assert [r["id"] for r in added] == [2]
        # The slow consumer still sees both, netted, in one poll.
        added, removed = slow.poll()
        assert sorted(r["id"] for r in added) == [1, 2]
        assert removed == []


class TestCapacityEviction:
    def test_eviction_mid_stream_forces_resync(self):
        table = make_table()
        cursor = table.open_cursor(capacity=4)
        for i in range(10):  # far beyond capacity: oldest entries dropped
            table.insert({"id": i, "x": i, "y": i})
        assert cursor.poll() is None
        assert cursor.lost_deltas == 1
        # The cursor re-anchored at the current version: streaming resumes.
        table.insert({"id": 99, "x": 0, "y": 0})
        added, removed = cursor.poll()
        assert [r["id"] for r in added] == [99]
        assert removed == []

    def test_open_cursor_respects_preconfigured_capacity(self):
        table = make_table()
        table.enable_change_log(capacity=8)
        cursor = table.open_cursor()  # must not silently grow the bound
        for i in range(9):
            table.insert({"id": i, "x": i, "y": i})
        assert cursor.poll() is None

    def test_open_cursor_can_grow_capacity(self):
        table = make_table()
        table.enable_change_log(capacity=4)
        cursor = table.open_cursor(capacity=64)
        for i in range(10):
            table.insert({"id": i, "x": i, "y": i})
        added, removed = cursor.poll()
        assert len(added) == 10 and removed == []


class TestDestroyDeltas:
    def test_world_destroy_reaches_cursor_consumers(self):
        world = build_rts_world(10, with_physics=False)
        table = world.catalog.table(world.schemas["Unit"].primary_table)
        cursor = table.open_cursor()
        world.destroy("Unit", 3)
        added, removed = cursor.poll()
        assert added == []
        assert [r["id"] for r in removed] == [3]

    def test_destroy_during_tick_sequence(self):
        world = build_rts_world(10, with_physics=False)
        table = world.catalog.table(world.schemas["Unit"].primary_table)
        cursor = table.open_cursor()
        world.tick()
        cursor.poll()
        world.destroy("Unit", 5)
        world.tick()
        added, removed = cursor.poll()
        assert 5 not in {r["id"] for r in added}
        assert 5 in {r["id"] for r in removed}


class TestSchemaReplacement:
    def test_cursor_survives_schema_replacement(self):
        table = make_table()
        cursor = table.open_cursor()
        table.insert({"id": 1, "x": 1, "y": 1})
        new_schema = Schema(
            [
                Column("id", DataType.NUMBER, nullable=False),
                Column("x", DataType.NUMBER),
                Column("y", DataType.NUMBER),
                Column("z", DataType.NUMBER, default=0),
            ]
        )
        table.schema = new_schema
        # Deltas across a schema change would mix row shapes: lost delta.
        assert cursor.poll() is None
        # But the cursor itself survives and resumes streaming.
        table.insert({"id": 2, "x": 2, "y": 2, "z": 9})
        added, removed = cursor.poll()
        assert [r["id"] for r in added] == [2]
        assert removed == []

    def test_cursor_invalidated_by_clear_and_restore(self):
        table = make_table()
        table.insert({"id": 1, "x": 1, "y": 1})
        snapshot = table.snapshot()
        cursor = table.open_cursor()
        table.clear()
        assert cursor.poll() is None
        table.restore(snapshot)
        assert cursor.poll() is None
        table.insert({"id": 2, "x": 0, "y": 0})
        added, _ = cursor.poll()
        assert [r["id"] for r in added] == [2]

    def test_frozen_table_still_pollable(self):
        table = make_table()
        cursor = table.open_cursor()
        table.insert({"id": 1, "x": 1, "y": 1})
        table.freeze()
        try:
            added, removed = cursor.poll()
            assert len(added) == 1 and removed == []
        finally:
            table.thaw()


class TestCursorIntrospection:
    def test_pending_counts_unpolled_mutations(self):
        table = make_table()
        cursor = table.open_cursor()
        assert cursor.pending == 0
        table.insert({"id": 1, "x": 1, "y": 1})
        table.insert({"id": 2, "x": 2, "y": 2})
        assert cursor.pending == 2
        cursor.poll()
        assert cursor.pending == 0

    def test_poll_counters(self):
        table = make_table()
        cursor = table.open_cursor(capacity=2)
        cursor.poll()
        for i in range(5):
            table.insert({"id": i, "x": 0, "y": 0})
        cursor.poll()
        assert cursor.polls == 2
        assert cursor.lost_deltas == 1

    def test_keyless_table_supports_cursors(self):
        table = make_table(key=None)
        cursor = table.open_cursor()
        table.insert({"id": 1, "x": 1, "y": 1})
        added, removed = cursor.poll()
        assert len(added) == 1 and removed == []


def test_enable_change_log_never_shrinks():
    table = make_table()
    table.enable_change_log(capacity=100)
    table.enable_change_log(capacity=10)
    cursor = table.open_cursor()
    for i in range(50):
        table.insert({"id": i, "x": 0, "y": 0})
    added, removed = cursor.poll()
    assert len(added) == 50 and removed == []


def test_cursor_poll_returns_shared_added_references():
    """`added` rows are shared references (documented contract): consumers
    that retain them must copy — regression guard for the service's copies."""
    table = make_table()
    cursor = table.open_cursor()
    rid = table.insert({"id": 1, "x": 1, "y": 1})
    added, _ = cursor.poll()
    assert added[0] is table.get(rid)


class TestChangeLogEpochs:
    """Explicit change-log epochs: serialized cursor positions must never
    alias across restarts or bulk rewrites (the WAL-replay regression).

    Before epochs, a cursor position was a bare version number; a replayed
    table whose version counter happened to overlap the old table's could
    silently serve deltas from the wrong history.  Now a position is an
    ``(epoch, version)`` pair and a mismatched epoch is a lost delta.
    """

    def test_epoch_changes_on_clear(self):
        table = make_table()
        before = table.log_epoch
        table.insert({"id": 1, "x": 1, "y": 1})
        assert table.log_epoch == before  # row ops keep the epoch
        table.clear()
        assert table.log_epoch != before  # bulk rewrite mints a new one

    def test_epoch_changes_on_restore_and_schema_replacement(self):
        table = make_table()
        snapshot = table.snapshot()
        e0 = table.log_epoch
        table.restore(snapshot)
        e1 = table.log_epoch
        assert e1 != e0
        table.schema = make_table().schema  # equal columns, new object
        assert table.log_epoch != e1

    def test_changes_since_rejects_stale_epoch(self):
        table = make_table()
        table.enable_change_log()
        stale_epoch = table.log_epoch
        version = table.version
        table.insert({"id": 1, "x": 1, "y": 1})
        assert table.changes_since(version, stale_epoch) is not None
        table.clear()  # new epoch: the old position means nothing now
        assert table.changes_since(version, stale_epoch) is None

    def test_seek_across_restart_never_aliases(self):
        """The aliasing scenario itself: same version number, different
        history.  A position serialized before a restart must force a lost
        delta on the rebuilt table, not replay unrelated changes."""
        table = make_table()
        table.insert({"id": 1, "x": 1, "y": 1})
        cursor = table.open_cursor()
        cursor.poll()
        position = cursor.position  # what a node would persist

        # "Restart": a fresh table replays the same history, landing on the
        # same version number by construction.
        rebuilt = make_table()
        rebuilt.insert({"id": 1, "x": 999, "y": 999})  # different content!
        assert rebuilt.version == table.version

        resumed = rebuilt.open_cursor()
        resumed.seek(position)
        rebuilt.insert({"id": 2, "x": 2, "y": 2})
        # Version arithmetic alone would hand over a plausible-looking
        # delta; the epoch check correctly reports the position as lost.
        assert resumed.poll() is None
        assert resumed.lost_deltas == 1
        # After the lost-delta resync the cursor streams the new history.
        rebuilt.insert({"id": 3, "x": 3, "y": 3})
        added, removed = resumed.poll()
        assert [r["id"] for r in added] == [3] and removed == []

    def test_position_round_trips_on_same_table(self):
        table = make_table()
        cursor = table.open_cursor()
        table.insert({"id": 1, "x": 1, "y": 1})
        cursor.poll()
        position = cursor.position
        table.insert({"id": 2, "x": 2, "y": 2})
        fresh = table.open_cursor()
        fresh.seek(position)  # same epoch: resumes exactly where we left off
        added, removed = fresh.poll()
        assert [r["id"] for r in added] == [2] and removed == []

    def test_pending_is_none_on_stale_epoch(self):
        table = make_table()
        cursor = table.open_cursor()
        table.insert({"id": 1, "x": 1, "y": 1})
        table.clear()
        assert cursor.pending is None


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
