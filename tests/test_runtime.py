"""Tests for the runtime: effects, update components, physics, pathfinding,
transactions, the world tick loop, multi-tick scheduling, reactive handlers
and the debugging tools."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import ExecutionMode, GameWorld
from repro.engine.errors import ConstraintViolation
from repro.runtime import (
    EffectStore,
    ExpressionUpdater,
    GridMap,
    Handler,
    OwnershipRegistry,
    PathfindingComponent,
    PathfindingConfig,
    PhysicsComponent,
    PhysicsConfig,
    StateUpdate,
    TransactionEngine,
    UpdateRule,
    astar,
)
from repro.runtime.debug import TickInspector, TickLogger, explain_script_plans
from repro.sgl import analyze_program, parse_program
from repro.sgl.interpreter import ScriptInterpreter
from repro.sgl.ir import EffectAssignment, TransactionRequest
from repro.sgl.parser import parse_expression
from repro.workloads import build_marketplace_world

CLASSES_SOURCE = """
class Unit {
  state:
    number x = 0;
    number y = 0;
    number health = 100;
  effects:
    number damage : sum;
    number vx : avg;
    number vy : avg;
    set loot : union;
}
"""


def unit_classes():
    program = parse_program(CLASSES_SOURCE)
    return {decl.name: decl for decl in program.classes}


class TestEffectStore:
    def test_combines_with_declared_combinators(self):
        store = EffectStore(unit_classes())
        store.add(EffectAssignment("Unit", 1, "damage", 3))
        store.add(EffectAssignment("Unit", 1, "damage", 4))
        store.add(EffectAssignment("Unit", 1, "vx", 2))
        store.add(EffectAssignment("Unit", 1, "vx", 4))
        combined = store.combine()
        assert combined.value("Unit", 1, "damage") == 7
        assert combined.value("Unit", 1, "vx") == 3
        assert combined.assignment_counts[("Unit", 1)]["damage"] == 2

    def test_set_insert_uses_union(self):
        store = EffectStore(unit_classes())
        store.add(EffectAssignment("Unit", 1, "loot", "sword", set_insert=True))
        store.add(EffectAssignment("Unit", 1, "loot", "shield", set_insert=True))
        assert store.combine().value("Unit", 1, "loot") == frozenset({"sword", "shield"})

    def test_unknown_effect_defaults_to_choose(self):
        store = EffectStore(unit_classes())
        store.add(EffectAssignment("Unit", 1, "synthetic", 9))
        store.add(EffectAssignment("Unit", 1, "synthetic", 2))
        assert store.combine().value("Unit", 1, "synthetic") == 2


class TestUpdateComponents:
    def make_view(self, rows):
        class View:
            def objects(self, class_name):
                return rows

            def get_object(self, class_name, object_id):
                for row in rows:
                    if row["id"] == object_id:
                        return row
                return None

            def class_names(self):
                return ["Unit"]

        return View()

    def test_expression_updater_rule(self):
        updater = ExpressionUpdater().rule(
            "Unit", "health", lambda state, effects: state["health"] - effects.get("damage", 0)
        )
        store = EffectStore(unit_classes())
        store.add(EffectAssignment("Unit", 1, "damage", 30))
        updates = updater.compute_updates(
            self.make_view([{"id": 1, "health": 100}]), store.combine()
        )
        assert updates == [StateUpdate("Unit", 1, "health", 70)]

    def test_ownership_partitioning_enforced(self):
        registry = OwnershipRegistry()
        registry.register(ExpressionUpdater([UpdateRule("Unit", "health", lambda s, e: 1)]))
        with pytest.raises(ConstraintViolation):
            registry.register(ExpressionUpdater([UpdateRule("Unit", "health", lambda s, e: 2)]))

    def test_component_cannot_write_unowned_attribute(self):
        registry = OwnershipRegistry()

        class Rogue(ExpressionUpdater):
            def compute_updates(self, state, effects):
                return [StateUpdate("Unit", 1, "not_owned", 1)]

        rogue = Rogue([UpdateRule("Unit", "health", lambda s, e: 1)])
        registry.register(rogue)
        with pytest.raises(ConstraintViolation):
            registry.compute_all(self.make_view([{"id": 1, "health": 1}]), EffectStore(unit_classes()).combine())


class TestPhysics:
    def test_velocity_integration_and_bounds(self):
        physics = PhysicsComponent(PhysicsConfig(world_max_x=10, world_max_y=10))
        store = EffectStore(unit_classes())
        store.add(EffectAssignment("Unit", 1, "vx", 4))
        store.add(EffectAssignment("Unit", 1, "vy", 50))
        view = TestUpdateComponents().make_view([{"id": 1, "x": 5.0, "y": 5.0}])
        updates = {(u.object_id, u.attribute): u.value for u in physics.compute_updates(view, store.combine())}
        assert updates[(1, "x")] == 9.0
        assert updates[(1, "y")] == 10.0  # clamped to world bounds

    def test_collision_resolution_separates_stacked_objects(self):
        physics = PhysicsComponent(PhysicsConfig(collision_radius=1.0, world_max_x=100, world_max_y=100))
        view = TestUpdateComponents().make_view(
            [{"id": 1, "x": 10.0, "y": 10.0}, {"id": 2, "x": 10.5, "y": 10.0}]
        )
        updates = physics.compute_updates(view, EffectStore(unit_classes()).combine())
        positions = {}
        for update in updates:
            positions.setdefault(update.object_id, {})[update.attribute] = update.value
        dx = abs(positions[1]["x"] - positions[2]["x"])
        dy = abs(positions[1]["y"] - positions[2]["y"])
        assert max(dx, dy) >= 1.9  # pushed roughly two radii apart
        assert physics.last_collisions

    def test_max_speed_clamp(self):
        physics = PhysicsComponent(PhysicsConfig(max_speed=1.0))
        store = EffectStore(unit_classes())
        store.add(EffectAssignment("Unit", 1, "vx", 10))
        view = TestUpdateComponents().make_view([{"id": 1, "x": 0.0, "y": 0.0}])
        updates = {u.attribute: u.value for u in physics.compute_updates(view, store.combine())}
        assert updates["x"] == pytest.approx(1.0)


class TestPathfinding:
    def test_astar_routes_around_obstacles(self):
        grid = GridMap(10, 10)
        grid.add_obstacle_rect(4, 0, 4, 8)
        path = astar(grid, (0, 0), (9, 0))
        assert path is not None
        assert path[0] == (0, 0) and path[-1] == (9, 0)
        assert all(cell not in grid.obstacles for cell in path)
        assert len(path) > 11  # forced detour around the wall

    def test_astar_unreachable_returns_none(self):
        grid = GridMap(5, 5)
        grid.add_obstacle_rect(2, 0, 2, 4)
        assert astar(grid, (0, 0), (4, 0)) is None

    def test_component_moves_toward_goal(self):
        grid = GridMap(20, 20)
        component = PathfindingComponent(grid, PathfindingConfig(speed=2))
        view = TestUpdateComponents().make_view(
            [{"id": 1, "x": 0.0, "y": 0.0, "goal_x": 5.0, "goal_y": 0.0}]
        )
        updates = {u.attribute: u.value for u in component.compute_updates(view, EffectStore(unit_classes()).combine())}
        assert updates["x"] == 2.0
        assert component.plans_computed == 1


class TestWorldTick:
    def test_compiled_and_interpreted_agree(self, simple_game_source):
        import random

        def build(mode):
            world = GameWorld(simple_game_source, mode=mode)
            world.add_update_rule(
                "Unit", "health", lambda s, e: s["health"] - e.get("damage", 0)
            )
            rng = random.Random(5)
            for i in range(60):
                world.spawn("Unit", player=i % 2, x=rng.uniform(0, 30), y=rng.uniform(0, 30))
            return world

        compiled = build(ExecutionMode.COMPILED)
        interpreted = build(ExecutionMode.INTERPRETED)
        for _ in range(3):
            compiled.tick()
            interpreted.tick()
        healths_c = sorted((o["id"], o["health"]) for o in compiled.objects("Unit"))
        healths_i = sorted((o["id"], o["health"]) for o in interpreted.objects("Unit"))
        assert healths_c == healths_i

    def test_state_frozen_during_effect_step(self, simple_game_source):
        world = GameWorld(simple_game_source)
        world.spawn("Unit", x=1, y=1)
        world.tick()
        # After the tick the tables must be thawed again.
        world.set_state("Unit", 0, x=5)
        assert world.get_object("Unit", 0)["x"] == 5

    def test_spawn_destroy_and_unknown_field(self, simple_game_source):
        world = GameWorld(simple_game_source)
        oid = world.spawn("Unit", x=3)
        assert world.count("Unit") == 1
        with pytest.raises(Exception):
            world.spawn("Unit", bogus=1)
        world.destroy("Unit", oid)
        assert world.count("Unit") == 0

    def test_multi_tick_script_advances_pc(self):
        source = """
        class Walker {
          state: number x = 0; number y = 0;
          effects: number vx : sum; number vy : sum;
        }
        script patrol(Walker self) {
          vx <- 1;
          waitNextTick;
          vy <- 1;
        }
        """
        world = GameWorld(source, mode=ExecutionMode.COMPILED)
        world.add_update_rule("Walker", "x", lambda s, e: s["x"] + e.get("vx", 0))
        world.add_update_rule("Walker", "y", lambda s, e: s["y"] + e.get("vy", 0))
        world.spawn("Walker")
        world.run(4)
        obj = world.get_object("Walker", 0)
        # Segments alternate: ticks 0,2 move x; ticks 1,3 move y.
        assert obj["x"] == 2 and obj["y"] == 2

    def test_reactive_handler_effects_and_interrupt(self):
        source = """
        class Guard {
          state: number x = 0; number alarm = 0; number hp = 10;
          effects: number vx : sum; number dmg : sum;
        }
        script wander(Guard self) {
          vx <- 1;
          waitNextTick;
          vx <- 1;
          waitNextTick;
          vx <- 1;
        }
        """
        world = GameWorld(source, mode=ExecutionMode.INTERPRETED)
        world.add_update_rule("Guard", "x", lambda s, e: s["x"] + e.get("vx", 0))
        world.add_update_rule("Guard", "hp", lambda s, e: s["hp"] - e.get("dmg", 0))
        world.add_handler(
            Handler(
                name="hurt",
                class_name="Guard",
                condition=lambda row: row["hp"] < 10,
                action=lambda row: [EffectAssignment("Guard", row["id"], "vx", -5)],
                interrupts=("wander",),
            )
        )
        world.spawn("Guard")
        world.tick()
        assert world.reports[-1].handlers_fired == 0
        world.set_state("Guard", 0, hp=5)
        report = world.tick()
        assert report.handlers_fired == 1
        # The queued effect applies next tick, and the pc was reset to 0.
        before_x = world.get_object("Guard", 0)["x"]
        world.tick()
        assert world.get_object("Guard", 0)["x"] == before_x - 5 + 1
        assert world.get_object("Guard", 0)["__pc_wander"] in (0, 1)

    def test_vertical_layout_world_matches_single(self, simple_game_source):
        from repro.sgl import SchemaLayout
        import random

        def build(layout):
            world = GameWorld(simple_game_source, mode=ExecutionMode.COMPILED, layout=layout)
            world.add_update_rule("Unit", "health", lambda s, e: s["health"] - e.get("damage", 0))
            rng = random.Random(2)
            for i in range(40):
                world.spawn("Unit", player=i % 2, x=rng.uniform(0, 20), y=rng.uniform(0, 20))
            return world

        single = build(SchemaLayout.SINGLE)
        vertical = build(SchemaLayout.VERTICAL)
        single.tick()
        vertical.tick()
        assert sorted((o["id"], o["health"]) for o in single.objects("Unit")) == sorted(
            (o["id"], o["health"]) for o in vertical.objects("Unit")
        )


class TestTransactionsEndToEnd:
    @pytest.mark.parametrize("mode", [ExecutionMode.INTERPRETED, ExecutionMode.COMPILED])
    def test_no_duping_or_negative_balances(self, mode):
        world = build_marketplace_world(16, buyers_per_item=4, seller_stock=2, mode=mode)
        total_stock_before = sum(o["stock"] for o in world.objects("Trader"))
        total_gold_before = sum(o["gold"] for o in world.objects("Trader"))
        for _ in range(3):
            report = world.tick()
        traders = world.objects("Trader")
        assert all(t["stock"] >= 0 for t in traders)
        assert all(t["gold"] >= -1e-9 for t in traders)
        # Items and gold are conserved: exchanges only move them around.
        assert sum(t["stock"] for t in traders) == total_stock_before
        assert sum(t["gold"] for t in traders) == pytest.approx(total_gold_before)
        assert world.last_transaction_report.abort_count + world.last_transaction_report.commit_count == report.transactions_submitted

    def test_contention_increases_abort_rate(self):
        low = build_marketplace_world(8, buyers_per_item=1, seller_stock=2)
        high = build_marketplace_world(8, buyers_per_item=8, seller_stock=2)
        low.tick()
        high.tick()
        assert high.last_transaction_report.abort_rate > low.last_transaction_report.abort_rate



ADMISSION_SOURCE = """
class Trader {
  state:
    number gold = 0;
    number stock = 0;
  effects:
    number gold_delta : sum;
    number stock_delta : sum;
    number bonus : max;
    number purchases : sum;
}
"""

#: Effect -> state attribute; ``gold_delta`` and ``bonus`` both update
#: ``gold``, so one request can write that attribute twice.
ADMISSION_OWNED = {"Trader": {"gold_delta": "gold", "stock_delta": "stock", "bonus": "gold"}}

#: The last constraint compares a number with a string and raises.
ADMISSION_CONSTRAINTS = ("gold >= 0", "stock >= 0", "gold + stock >= 3", 'gold >= "x"')

#: Requests aim most writes at these ids, so they contend for the same rows.
SHARED_SELLERS = (0, 1, 2)


class _AdmissionState:
    """A read-only Trader table for driving a TransactionEngine directly."""

    def __init__(self, rows: dict):
        self._rows = rows

    def objects(self, class_name):
        return [dict(row) for row in self._rows.values()]

    def get_object(self, class_name, object_id):
        row = self._rows.get(object_id)
        return None if row is None else dict(row)

    def class_names(self):
        return ["Trader"]


def _reference_admission(classes, state, plain, requests, evaluator):
    """Snapshot-based admission: the oracle the undo-log engine must match.

    Copies the whole overlay before every request and restores the copy
    when the request aborts.
    """
    owned = ADMISSION_OWNED
    overlay: dict = {}

    def value(class_name, object_id, attribute):
        values = overlay.get((class_name, object_id), {})
        if attribute in values:
            return values[attribute]
        row = state.get_object(class_name, object_id)
        return None if row is None else row.get(attribute)

    def row(class_name, object_id):
        base = state.get_object(class_name, object_id)
        if base is None:
            return None
        return {**base, **overlay.get((class_name, object_id), {})}

    def apply(values):
        for (class_name, object_id), effects in values.items():
            for effect, delta in effects.items():
                if effect not in owned.get(class_name, {}):
                    continue
                attribute = owned[class_name][effect]
                old = value(class_name, object_id, attribute)
                overlay.setdefault((class_name, object_id), {})[attribute] = (old or 0) + (delta or 0)

    def check(request):
        if not request.constraints:
            return True, ""
        actor_row = row(request.actor_class, request.actor_id)
        if actor_row is None:
            return False, f"actor {request.actor_id!r} no longer exists"
        rows = [(request.actor_class, actor_row)]
        seen = {(request.actor_class, request.actor_id)}
        for assignment in request.assignments:
            key = (assignment.class_name, assignment.target_id)
            if key in seen or assignment.effect not in owned.get(assignment.class_name, {}):
                continue
            seen.add(key)
            target_row = row(*key)
            if target_row is not None and assignment.class_name == request.actor_class:
                rows.append((assignment.class_name, target_row))
        for constraint in request.constraints:
            for class_name, checked in rows:
                try:
                    ok = evaluator(constraint, class_name, checked)
                except Exception as exc:
                    return False, f"constraint raised {exc!r}"
                if not ok:
                    return False, f"constraint {constraint!r} violated"
        return True, ""

    apply(plain.values)
    outcomes = []
    ordered = sorted(requests, key=lambda r: (r.actor_class, repr(r.actor_id), r.block_index))
    for request in ordered:
        snapshot = {key: dict(values) for key, values in overlay.items()}
        store = EffectStore(classes)
        store.add_all(a for a in request.assignments if a.effect in owned.get(a.class_name, {}))
        apply(store.combine().values)
        ok, reason = check(request)
        if not ok:
            overlay = snapshot
        outcomes.append((request, ok, reason))
    updates = [
        StateUpdate(class_name, object_id, attribute, new)
        for (class_name, object_id), values in overlay.items()
        for attribute, new in values.items()
    ]
    return outcomes, updates


def _admission_writes(actor):
    target = st.one_of(
        st.just(actor), st.sampled_from(SHARED_SELLERS), st.integers(min_value=0, max_value=13)
    )
    write = st.tuples(
        target,
        st.sampled_from(["gold_delta", "stock_delta", "bonus", "purchases"]),
        st.integers(min_value=-6, max_value=6),
    )
    return st.lists(write, min_size=1, max_size=4)


@st.composite
def _admission_request(draw):
    actor = draw(st.integers(min_value=0, max_value=12))
    writes = draw(_admission_writes(actor))
    constraints = draw(st.lists(st.sampled_from(ADMISSION_CONSTRAINTS), max_size=2, unique=True))
    return TransactionRequest(
        actor_class="Trader",
        actor_id=actor,
        assignments=tuple(EffectAssignment("Trader", t, e, v) for t, e, v in writes),
        constraints=tuple(parse_expression(text) for text in constraints),
        script_name="trade",
        block_index=draw(st.integers(min_value=0, max_value=1)),
    )


@st.composite
def _admission_case(draw):
    n_objects = draw(st.integers(min_value=3, max_value=11))
    rows = {
        i: {
            "id": i,
            "gold": draw(st.integers(min_value=0, max_value=8)),
            "stock": draw(st.integers(min_value=0, max_value=3)),
        }
        for i in range(n_objects)
    }
    plain = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=13),
                st.sampled_from(["gold_delta", "stock_delta", "purchases"]),
                st.integers(min_value=-3, max_value=3),
            ),
            max_size=5,
        )
    )
    requests = draw(st.lists(_admission_request(), max_size=12))
    return rows, plain, requests


class TestTransactionAdmission:
    """The undo-log engine against a snapshot-per-request reference.

    Ids up to 13 over 3–11 stored rows give missing actors and writes to
    objects no row backs; most writes hit three shared sellers.
    """

    @settings(max_examples=200, deadline=None)
    @given(case=_admission_case())
    @example(
        # Object 2 is first touched by actor 0's request, which aborts; the
        # next request writes object 0 and then object 2, so the update
        # order shows whether the abort removed object 2 from the overlay.
        case=(
            {i: {"id": i, "gold": 0, "stock": 0} for i in range(3)},
            [],
            [
                TransactionRequest(
                    "Trader",
                    0,
                    (EffectAssignment("Trader", 2, "gold_delta", 0),),
                    (parse_expression("gold + stock >= 3"),),
                ),
                TransactionRequest(
                    "Trader",
                    2,
                    (
                        EffectAssignment("Trader", 0, "gold_delta", 0),
                        EffectAssignment("Trader", 2, "gold_delta", 0),
                    ),
                ),
            ],
        )
    )
    def test_matches_snapshot_reference(self, case):
        rows, plain_writes, requests = case
        program = parse_program(ADMISSION_SOURCE)
        classes = {decl.name: decl for decl in program.classes}
        interpreter = ScriptInterpreter(analyze_program(program))
        state = _AdmissionState(rows)

        def evaluator(constraint, class_name, row):
            return bool(interpreter.evaluate_expression(constraint, class_name, row, state))

        store = EffectStore(classes)
        store.add_all(EffectAssignment("Trader", t, e, v) for t, e, v in plain_writes)
        plain = store.combine()

        engine = TransactionEngine(ADMISSION_OWNED, classes, evaluator)
        engine.submit(requests)
        updates = engine.compute_updates(state, plain)
        outcomes = [(o.request, o.committed, o.reason) for o in engine.last_report.outcomes]

        expected_outcomes, expected_updates = _reference_admission(
            classes, state, plain, requests, evaluator
        )
        assert outcomes == expected_outcomes
        assert updates == expected_updates

    def test_admission_orders_actor_ids_by_repr(self):
        """Actor 10 is admitted before actor 9 (``repr`` order), so with one
        item in stock actor 10's purchase commits and actor 9's aborts."""
        program = parse_program(ADMISSION_SOURCE)
        classes = {decl.name: decl for decl in program.classes}
        interpreter = ScriptInterpreter(analyze_program(program))
        rows = {i: {"id": i, "gold": 10, "stock": 1 if i == 0 else 0} for i in (0, 9, 10)}
        state = _AdmissionState(rows)
        stock_ok = parse_expression("stock >= 0")

        def purchase(buyer):
            return TransactionRequest(
                "Trader",
                buyer,
                (
                    EffectAssignment("Trader", buyer, "stock_delta", 1),
                    EffectAssignment("Trader", 0, "stock_delta", -1),
                ),
                constraints=(stock_ok,),
            )

        engine = TransactionEngine(
            ADMISSION_OWNED,
            classes,
            lambda c, cls, row: bool(interpreter.evaluate_expression(c, cls, row, state)),
        )
        engine.submit([purchase(9), purchase(10)])
        updates = engine.compute_updates(state, EffectStore(classes).combine())
        outcomes = [(o.request.actor_id, o.committed) for o in engine.last_report.outcomes]
        assert outcomes == [(10, True), (9, False)]
        assert updates == [
            StateUpdate("Trader", 10, "stock", 1),
            StateUpdate("Trader", 0, "stock", 0),
        ]

class TestDebugTools:
    def test_inspector_state_diff_and_effect_trace(self, simple_game_source):
        world = GameWorld(simple_game_source)
        world.add_update_rule("Unit", "health", lambda s, e: s["health"] - e.get("damage", 0))
        world.spawn("Unit", player=0, x=0, y=0)
        world.spawn("Unit", player=1, x=1, y=1)
        inspector = TickInspector(world)
        baseline = inspector.capture_baseline()
        world.tick()
        diff = inspector.diff_since(baseline)
        assert diff["Unit"][0]["health"] == (100, 99)
        trace = inspector.effects_of("Unit", 0)
        assert trace.values["damage"] == 1
        assert "damage" in str(trace)
        assert inspector.table_summary()["Unit"] == 2

    def test_explain_script_plans_mentions_effect(self, simple_game_source):
        world = GameWorld(simple_game_source)
        world.spawn("Unit")
        text = explain_script_plans(world, "brawl")
        assert "Unit.damage" in text
        assert "TableScan" in text

    def test_logger_checkpoints_and_rewind(self, simple_game_source):
        world = GameWorld(simple_game_source, mode=ExecutionMode.INTERPRETED)
        world.add_update_rule("Unit", "health", lambda s, e: s["health"] - e.get("damage", 0))
        world.spawn("Unit", player=0, x=0, y=0)
        world.spawn("Unit", player=1, x=1, y=1)
        logger = TickLogger(world, checkpoint_every=2)
        logger.run(5)
        health_at_5 = world.get_object("Unit", 0)["health"]
        logger.rewind_to(3)
        assert world.tick_count == 3
        assert world.get_object("Unit", 0)["health"] == 100 - 3
        # Re-running forward reproduces the same trajectory.
        world.run(2)
        assert world.get_object("Unit", 0)["health"] == health_at_5
