"""The live subscription service: snapshot-then-delta correctness.

The central property (the PR's acceptance criterion): for every
subscriber, the initial snapshot plus the applied delta stream equals
re-running the standing query from scratch each tick — under randomized
churn across the rts/traffic/marketplace workloads, including AOI
subscriptions with moving observers, change-log-overflow resyncs and
outbox-overflow resyncs.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.engine import Catalog, Column, DataType, Schema
from repro.engine.algebra import Aggregate, AggregateSpec, Select, TableScan
from repro.engine.executor import Executor
from repro.engine.expressions import BinaryOp, ColumnRef, Literal
from repro.service.protocol import (
    Delta,
    ResultSet,
    Snapshot,
    decode_message,
    encode_message,
    row_key,
)
from repro.service.subscriptions import SubscriptionManager
from repro.workloads.marketplace import build_marketplace_world
from repro.workloads.rts import attach_fog_of_war, build_rts_world, unit_rows
from repro.workloads.traffic import build_traffic_world


def multiset(rows):
    return sorted(map(row_key, rows))


def drain(session, states):
    for message in session.take():
        states[message.subscription_id].apply(message)


def primary_table(world, class_name):
    return world.catalog.table(world.schemas[class_name].primary_table)


def aoi_expected(table, dims, center, radius):
    out = []
    for row in table.rows():
        if all(
            row[d] is not None and abs(row[d] - c) <= r
            for d, c, r in zip(dims, center, radius)
        ):
            out.append(dict(row))
    return out


# ------------------------------------------------------------------------------------
# protocol primitives
# ------------------------------------------------------------------------------------


class TestProtocol:
    def test_snapshot_then_delta_roundtrip(self):
        rs = ResultSet()
        rs.apply(Snapshot(subscription_id=1, tick=0, rows=({"a": 1}, {"a": 2})))
        rs.apply(Delta(subscription_id=1, tick=1, added=({"a": 3},), removed=({"a": 1},)))
        assert multiset(rs.rows()) == multiset([{"a": 2}, {"a": 3}])

    def test_resultset_tracks_duplicates_as_multiset(self):
        rs = ResultSet()
        rs.apply(Snapshot(subscription_id=1, tick=0, rows=({"a": 1}, {"a": 1})))
        rs.apply(Delta(subscription_id=1, tick=1, removed=({"a": 1},)))
        assert multiset(rs.rows()) == multiset([{"a": 1}])

    def test_resultset_rejects_unknown_removal(self):
        rs = ResultSet()
        rs.apply(Snapshot(subscription_id=1, tick=0, rows=({"a": 1},)))
        with pytest.raises(ValueError):
            rs.apply(Delta(subscription_id=1, tick=1, removed=({"a": 2},)))

    def test_json_codec_roundtrip(self):
        for message in (
            Snapshot(subscription_id=3, tick=7, rows=({"x": 1.5, "s": "hi"},), reason="resync:outbox"),
            Delta(subscription_id=3, tick=8, added=({"x": 2},), removed=({"x": 1.5, "s": "hi"},)),
        ):
            decoded = decode_message(encode_message(message))
            assert decoded == message


# ------------------------------------------------------------------------------------
# standing-query groups on a bare catalog
# ------------------------------------------------------------------------------------


def build_bare_catalog(n=60, seed=7):
    catalog = Catalog()
    schema = Schema(
        [
            Column("id", DataType.NUMBER, nullable=False),
            Column("player", DataType.NUMBER),
            Column("x", DataType.NUMBER),
            Column("y", DataType.NUMBER),
        ]
    )
    table = catalog.create_table("unit", schema, key="id")
    rng = random.Random(seed)
    for i in range(n):
        table.insert(
            {"id": i, "player": i % 3, "x": rng.randrange(100), "y": rng.randrange(100)}
        )
    return catalog, table


class TestStandingQueryGroups:
    def test_filter_subscription_streams_from_change_log(self):
        catalog, table = build_bare_catalog()
        manager = SubscriptionManager(catalog=catalog, executor=Executor(catalog))
        session = manager.connect()
        sid = manager.subscribe_table(
            session, "unit", predicate=BinaryOp("==", ColumnRef("player"), Literal(1))
        )
        group = manager._groups[next(iter(manager._groups))]
        assert group.cursor_mode
        evaluations_before = group.evaluations
        states = {sid: ResultSet()}
        drain(session, states)
        rng = random.Random(1)
        for tick in range(8):
            for _ in range(6):
                rid = rng.choice(list(table.row_ids()))
                table.update(rid, {"x": rng.randrange(100), "player": rng.randrange(3)})
            manager.flush(tick)
            drain(session, states)
            expect = [dict(r) for r in table.rows() if r["player"] == 1]
            assert multiset(expect) == multiset(states[sid].rows())
        # Cursor mode never re-executes the query to produce deltas.
        assert group.evaluations == evaluations_before

    def test_equivalent_queries_share_one_group_across_aliases(self):
        catalog, table = build_bare_catalog()
        manager = SubscriptionManager(catalog=catalog, executor=Executor(catalog))
        sess_a, sess_b = manager.connect(), manager.connect()
        plan_a = Select(TableScan("unit", alias="a"), BinaryOp(">", ColumnRef("a.x"), Literal(50)))
        plan_b = Select(TableScan("unit", alias="b"), BinaryOp(">", ColumnRef("b.x"), Literal(50)))
        sid_a = manager.subscribe_query(sess_a, plan_a)
        sid_b = manager.subscribe_query(sess_b, plan_b)
        assert len(manager._groups) == 1  # PR-4 fingerprints dedupe the aliases
        states = {sid_a: ResultSet(), sid_b: ResultSet()}
        drain(sess_a, states)
        drain(sess_b, states)
        rng = random.Random(2)
        for tick in range(5):
            for _ in range(8):
                rid = rng.choice(list(table.row_ids()))
                table.update(rid, {"x": rng.randrange(100)})
            manager.flush(tick)
            drain(sess_a, states)
            drain(sess_b, states)
            hot = [r for r in table.rows() if r["x"] > 50]
            expect_a = [{f"a.{k}": v for k, v in r.items()} for r in hot]
            expect_b = [{f"b.{k}": v for k, v in r.items()} for r in hot]
            assert multiset(expect_a) == multiset(states[sid_a].rows())
            assert multiset(expect_b) == multiset(states[sid_b].rows())

    def test_aggregate_standing_query_uses_requery_mode(self):
        catalog, table = build_bare_catalog()
        manager = SubscriptionManager(catalog=catalog, executor=Executor(catalog))
        session = manager.connect()
        plan = Aggregate(
            TableScan("unit"),
            group_by=("player",),
            aggregates=(AggregateSpec("n", "count", None),),
        )
        sid = manager.subscribe_query(session, plan)
        group = manager._groups[next(iter(manager._groups))]
        assert not group.cursor_mode
        states = {sid: ResultSet()}
        drain(session, states)
        rng = random.Random(3)
        scratch = Executor(catalog)
        for tick in range(6):
            for _ in range(5):
                rid = rng.choice(list(table.row_ids()))
                table.update(rid, {"player": rng.randrange(3)})
            manager.flush(tick)
            drain(session, states)
            expect = scratch.execute(
                Aggregate(
                    TableScan("unit"),
                    group_by=("player",),
                    aggregates=(AggregateSpec("n", "count", None),),
                ),
                cache=False,
            ).rows
            assert multiset(expect) == multiset(states[sid].rows())

    def test_late_subscriber_snapshot_aligns_with_stream(self):
        """Subscribing mid-stream must not double-deliver the pending delta."""
        catalog, table = build_bare_catalog()
        manager = SubscriptionManager(catalog=catalog, executor=Executor(catalog))
        early = manager.connect()
        sid_early = manager.subscribe_table(early, "unit")
        states = {sid_early: ResultSet()}
        drain(early, states)
        manager.flush(0)
        # Mutations land *between* flushes, then a second client subscribes.
        table.insert({"id": 1000, "player": 0, "x": 1, "y": 1})
        late = manager.connect()
        sid_late = manager.subscribe_table(late, "unit")
        states[sid_late] = ResultSet()
        drain(late, states)
        manager.flush(1)
        drain(early, states)
        drain(late, states)
        expect = [dict(r) for r in table.rows()]
        assert multiset(expect) == multiset(states[sid_early].rows())
        assert multiset(expect) == multiset(states[sid_late].rows())

    def test_churning_subscribers_do_not_grow_executor_state(self):
        """Connect/subscribe/disconnect loops (every TCP request builds a
        fresh plan object) must not leak plan-cache entries in the shared
        executor."""
        catalog, _ = build_bare_catalog(n=20)
        executor = Executor(catalog)
        manager = SubscriptionManager(catalog=catalog, executor=executor)
        for i in range(30):
            session = manager.connect()
            manager.subscribe_table(
                session, "unit", predicate=BinaryOp("==", ColumnRef("player"), Literal(1))
            )
            manager.subscribe_query(
                session,
                Aggregate(
                    TableScan("unit"),
                    group_by=("player",),
                    aggregates=(AggregateSpec("n", "count", None),),
                ),
            )
            manager.disconnect(session)
        assert manager.subscription_count() == 0
        assert len(executor._cache) == 0

    def test_unsubscribe_drops_group_and_disconnect_cleans_up(self):
        catalog, _ = build_bare_catalog()
        manager = SubscriptionManager(catalog=catalog, executor=Executor(catalog))
        session = manager.connect()
        sid = manager.subscribe_table(session, "unit")
        aid = manager.subscribe_aoi(session, "unit", radius=10, center=(50, 50))
        assert manager.subscription_count() == 2
        assert manager.unsubscribe(session, sid)
        assert not manager._groups  # last subscriber gone → group dropped
        manager.disconnect(session)
        assert manager.subscription_count() == 0
        assert not manager.unsubscribe(session, aid)


# ------------------------------------------------------------------------------------
# the equivalence property under randomized churn, across workloads
# ------------------------------------------------------------------------------------


class EquivalenceHarness:
    """Subscriptions + scratch re-execution + per-tick comparison."""

    def __init__(self, world, class_name):
        self.world = world
        self.class_name = class_name
        self.table = primary_table(world, class_name)
        self.manager = world.subscriptions
        self.session = self.manager.connect()
        self.states: dict[int, ResultSet] = {}
        self.checks = []  # (subscription_id, scratch_fn)

    def add_filter(self, predicate_expr, predicate_fn):
        sid = self.manager.subscribe_table(self.session, self.class_name, predicate=predicate_expr)
        self.states[sid] = ResultSet()
        self.checks.append(
            (sid, lambda: [dict(r) for r in self.table.rows() if predicate_fn(r)])
        )
        return sid

    def add_aoi(self, radius, center=None, observer_id=None, dims=("x", "y")):
        sid = self.manager.subscribe_aoi(
            self.session,
            self.class_name,
            radius=radius,
            dims=dims,
            center=center,
            observer_id=observer_id,
        )
        self.states[sid] = ResultSet()
        radii = (radius,) * len(dims) if not isinstance(radius, (tuple, list)) else radius

        def scratch():
            if observer_id is not None:
                observer = self.table.get_by_key(observer_id)
                if observer is None:
                    return []
                box_center = tuple(observer[d] for d in dims)
            else:
                box_center = tuple(center)
            return aoi_expected(self.table, dims, box_center, radii)

        self.checks.append((sid, scratch))
        return sid

    def drain(self):
        drain(self.session, self.states)

    def verify(self, context=""):
        for sid, scratch in self.checks:
            expect = multiset(scratch())
            got = multiset(self.states[sid].rows())
            assert expect == got, f"subscription {sid} diverged {context}"


class TestWorkloadEquivalence:
    def test_rts_randomized_churn(self):
        world = build_rts_world(50, seed=5)
        harness = EquivalenceHarness(world, "Unit")
        harness.add_filter(
            BinaryOp("==", ColumnRef("player"), Literal(1)), lambda r: r["player"] == 1
        )
        harness.add_filter(
            BinaryOp(">", ColumnRef("health"), Literal(95)), lambda r: r["health"] > 95
        )
        harness.add_aoi(radius=20, center=(50, 50))
        harness.add_aoi(radius=15, observer_id=3)  # moves every tick (physics)
        harness.add_aoi(radius=10, observer_id=8)
        harness.drain()
        harness.verify("at subscribe")
        rng = random.Random(11)
        next_spawn = 1000
        for tick in range(12):
            # Randomized churn: spawns, destroys, direct state writes.
            for _ in range(rng.randrange(4)):
                world.spawn(
                    "Unit",
                    player=rng.randrange(2),
                    x=rng.uniform(0, 100),
                    y=rng.uniform(0, 100),
                    health=100,
                )
                next_spawn += 1
            ids = [r["id"] for r in harness.table.rows()]
            if len(ids) > 20 and rng.random() < 0.5:
                world.destroy("Unit", rng.choice(ids))
            if ids:
                world.set_state(
                    "Unit", rng.choice(ids), x=rng.uniform(0, 100), y=rng.uniform(0, 100)
                )
            world.tick()
            harness.drain()
            harness.verify(f"at tick {tick}")

    def test_traffic_randomized_churn(self):
        world = build_traffic_world(60, seed=9)
        harness = EquivalenceHarness(world, "Vehicle")
        harness.add_filter(
            BinaryOp("==", ColumnRef("lane"), Literal(1)), lambda r: r["lane"] == 1
        )
        harness.add_aoi(radius=80, center=(500,), dims=("position",))
        harness.drain()
        rng = random.Random(13)
        for tick in range(10):
            ids = [r["id"] for r in harness.table.rows()]
            world.set_state(
                "Vehicle", rng.choice(ids), lane=rng.randrange(4), position=rng.uniform(0, 1000)
            )
            world.tick()
            harness.drain()
            harness.verify(f"at tick {tick}")

    def test_marketplace_randomized_churn(self):
        world = build_marketplace_world(24, seed=3)
        harness = EquivalenceHarness(world, "Trader")
        harness.add_filter(
            BinaryOp("==", ColumnRef("is_seller"), Literal(1)), lambda r: r["is_seller"] == 1
        )
        harness.add_filter(
            BinaryOp(">", ColumnRef("gold"), Literal(25)), lambda r: r["gold"] > 25
        )
        harness.drain()
        rng = random.Random(17)
        for tick in range(8):
            ids = [r["id"] for r in harness.table.rows()]
            world.set_state("Trader", rng.choice(ids), gold=rng.uniform(0, 60))
            world.tick()
            harness.drain()
            harness.verify(f"at tick {tick}")

    def test_rts_change_log_overflow_forces_snapshot_resync(self):
        world = build_rts_world(40, seed=5)
        table = primary_table(world, "Unit")
        table.enable_change_log(capacity=8)  # one tick of physics overflows this
        harness = EquivalenceHarness(world, "Unit")
        sid = harness.add_filter(
            BinaryOp(">", ColumnRef("health"), Literal(10)), lambda r: r["health"] > 10
        )
        aid = harness.add_aoi(radius=25, observer_id=5)
        harness.drain()
        for tick in range(5):
            world.tick()
            harness.drain()
            harness.verify(f"at tick {tick}")
        assert harness.states[sid].snapshots_applied > 1
        assert harness.states[aid].snapshots_applied > 1

    def test_outbox_overflow_resyncs_within_same_flush(self):
        world = build_rts_world(40, seed=5)
        manager = world.subscriptions
        session = manager.connect(outbox_capacity=2)
        table = primary_table(world, "Unit")
        sids = [
            manager.subscribe_table(session, "Unit"),
            manager.subscribe_table(
                session, "Unit", predicate=BinaryOp("==", ColumnRef("player"), Literal(0))
            ),
            manager.subscribe_aoi(session, "Unit", radius=30, center=(50, 50)),
        ]
        states = {sid: ResultSet() for sid in sids}
        drain(session, states)
        for tick in range(7):
            world.tick()
            if tick % 3 == 0:
                drain(session, states)  # slow consumer: skips most ticks
        # Whenever the consumer drains, it must land on current state — the
        # flush converts refused deltas into resync snapshots immediately.
        drain(session, states)
        assert session.outbox.overflows > 0
        full = [dict(r) for r in table.rows()]
        assert multiset(full) == multiset(states[sids[0]].rows())
        assert multiset([r for r in full if r["player"] == 0]) == multiset(
            states[sids[1]].rows()
        )
        assert multiset(
            [r for r in full if abs(r["x"] - 50) <= 30 and abs(r["y"] - 50) <= 30]
        ) == multiset(states[sids[2]].rows())


# ------------------------------------------------------------------------------------
# spatial interest management specifics
# ------------------------------------------------------------------------------------


class TestInterestManagement:
    def test_moved_row_only_touches_subscribers_with_overlapping_cells(self):
        catalog, table = build_bare_catalog(n=0)
        for i, (x, y) in enumerate([(10, 10), (90, 90), (12, 12)]):
            table.insert({"id": i, "player": 0, "x": x, "y": y})
        manager = SubscriptionManager(catalog=catalog, executor=Executor(catalog))
        near = manager.connect()
        far = manager.connect()
        sid_near = manager.subscribe_aoi(near, "unit", radius=8, center=(10, 10), cell_size=8)
        sid_far = manager.subscribe_aoi(far, "unit", radius=8, center=(90, 90))
        near.take(), far.take()
        # Move the unit at (12,12) slightly: only the near AOI is affected.
        table.update(table.rowid_for_key(2), {"x": 14.0})
        manager.flush(0)
        interest = manager._subs[sid_near][1]
        assert interest.last_stats["touched_subs"] == 1
        near_msgs, far_msgs = near.take(), far.take()
        assert len(near_msgs) == 1 and isinstance(near_msgs[0], Delta)
        assert far_msgs == []
        assert sid_far not in {m.subscription_id for m in near_msgs}

    def test_observer_enter_exit_semantics(self):
        catalog, table = build_bare_catalog(n=0)
        table.insert({"id": 0, "player": 0, "x": 0, "y": 0})    # the observer
        table.insert({"id": 1, "player": 0, "x": 30, "y": 0})   # out of range
        manager = SubscriptionManager(catalog=catalog, executor=Executor(catalog))
        session = manager.connect()
        sid = manager.subscribe_aoi(session, "unit", radius=10, observer_id=0)
        rs = ResultSet()
        for m in session.take():
            rs.apply(m)
        assert multiset(rs.rows()) == multiset([dict(r) for r in table.rows() if r["id"] == 0])
        # Observer walks toward the other unit: it enters the AOI.
        table.update(table.rowid_for_key(0), {"x": 25.0})
        manager.flush(0)
        for m in session.take():
            rs.apply(m)
        assert {r["id"] for r in rs.rows()} == {0, 1}
        # Observer destroyed: the view empties (standing query over nothing).
        table.delete(table.rowid_for_key(0))
        manager.flush(1)
        for m in session.take():
            rs.apply(m)
        assert rs.rows() == []

    def test_fog_of_war_workload_streams_match_vision_boxes(self):
        world = build_rts_world(40, seed=5)
        manager, sessions, sub_ids = attach_fog_of_war(world, n_observers=5, vision=12.0)
        states = {sid: ResultSet() for sid in sub_ids}
        observers = {}
        for session, sid in zip(sessions, sub_ids):
            for message in session.take():
                states[sid].apply(message)
            observers[sid] = manager._subs[sid][1].subscription(sid).observer_key
        table = primary_table(world, "Unit")
        for tick in range(6):
            world.tick()
            for session, sid in zip(sessions, sub_ids):
                for message in session.take():
                    states[sid].apply(message)
                observer = table.get_by_key(observers[sid])
                expect = aoi_expected(table, ("x", "y"), (observer["x"], observer["y"]), (12.0, 12.0))
                assert multiset(expect) == multiset(states[sid].rows()), f"tick {tick}"
        report = world.reports[-1]
        assert report.subscription_messages > 0
        assert report.flush_seconds > 0.0
        assert report.total_seconds >= report.flush_seconds


# ------------------------------------------------------------------------------------
# tick-loop integration
# ------------------------------------------------------------------------------------


class TestTickIntegration:
    def test_worlds_without_subscribers_skip_the_flush_phase(self):
        world = build_rts_world(20, seed=5)
        world.tick()
        report = world.reports[-1]
        assert report.subscription_messages == 0
        assert not world.has_subscribers

    def test_flush_phase_reported_per_tick(self):
        world = build_rts_world(20, seed=5)
        manager = world.subscriptions
        session = manager.connect()
        manager.subscribe_table(session, "Unit")
        world.tick()
        report = world.reports[-1]
        assert world.has_subscribers
        assert report.subscription_messages >= 1
        assert report.subscription_delta_rows > 0  # physics moves every unit
        assert manager.current_tick == report.tick

    def test_manager_stats_shape(self):
        world = build_rts_world(20, seed=5)
        manager = world.subscriptions
        session = manager.connect()
        manager.subscribe_table(session, "Unit")
        manager.subscribe_aoi(session, "Unit", radius=10, center=(50, 50))
        world.tick()
        stats = manager.stats()
        assert stats["sessions"] == 1
        assert stats["subscriptions"] == 2
        assert stats["query_groups"] == 1
        assert stats["aoi_subscribers"] == 1
        assert stats["last_flush"]["groups"] == 1


# ------------------------------------------------------------------------------------
# the TCP/JSON-lines transport
# ------------------------------------------------------------------------------------


class TestServer:
    def test_end_to_end_stream_over_tcp(self):
        from repro.service.server import SubscriptionClient, SubscriptionServer

        async def scenario():
            world = build_rts_world(30, seed=5)
            server = SubscriptionServer(world)
            await server.start()
            client = SubscriptionClient(*server.address)
            await client.connect()
            sid = await client.subscribe_table("Unit", filter=[["player", "==", 1]])
            aid = await client.subscribe_aoi("Unit", radius=15, observer_id=2)
            for _ in range(4):
                await server.step()
            await client.pump()
            table = primary_table(world, "Unit")
            expect = [dict(r) for r in table.rows() if r["player"] == 1]
            assert multiset(expect) == multiset(client.rows(sid))
            observer = table.get_by_key(2)
            expect = aoi_expected(
                table, ("x", "y"), (observer["x"], observer["y"]), (15.0, 15.0)
            )
            assert multiset(expect) == multiset(client.rows(aid))
            await client.close()
            await server.stop()

        asyncio.run(scenario())

    def test_server_rejects_bad_requests_without_dying(self):
        from repro.service.server import SubscriptionServer

        async def scenario():
            world = build_rts_world(10, seed=5, with_physics=False)
            server = SubscriptionServer(world)
            await server.start()
            reader, writer = await asyncio.open_connection(*server.address)
            writer.write(b'{"op": "no_such_op"}\n')
            await writer.drain()
            import json

            response = json.loads(await reader.readline())
            assert response["type"] == "error"
            # The connection (and server) survives and still serves.
            writer.write(b'{"op": "ping"}\n')
            await writer.drain()
            response = json.loads(await reader.readline())
            assert response["type"] == "pong"
            writer.close()
            await server.stop()

        asyncio.run(scenario())


def test_sgl_compiled_effect_query_as_standing_query():
    """A compiled SGL effect query's plan subscribes like any other —
    clients can watch exactly what a script computes (enemies_seen)."""
    world = build_rts_world(40, seed=5)
    query = world.compiled.script("count_neighbours").queries_by_segment[0][0]
    manager = world.subscriptions
    session = manager.connect()
    sid = manager.subscribe_query(session, query.plan)
    states = {sid: ResultSet()}
    drain(session, states)
    scratch = Executor(world.catalog)
    for _ in range(4):
        world.tick()
        drain(session, states)
    expect = scratch.execute(query.plan, cache=False).rows
    assert multiset(expect) == multiset(states[sid].rows())


def test_spawned_units_reach_streams_without_ticking():
    """Flush can also be driven manually (no GameWorld tick required)."""
    catalog, table = build_bare_catalog(n=10)
    manager = SubscriptionManager(catalog=catalog, executor=Executor(catalog))
    session = manager.connect()
    sid = manager.subscribe_table(session, "unit")
    states = {sid: ResultSet()}
    drain(session, states)
    table.insert({"id": 500, "player": 9, "x": 1, "y": 1})
    manager.flush()
    drain(session, states)
    assert multiset([dict(r) for r in table.rows()]) == multiset(states[sid].rows())


def test_unit_rows_generator_shape():
    rows = list(unit_rows(5))
    assert len(rows) == 5 and {"player", "x", "y"} <= set(rows[0])


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
