"""Adaptive multi-plan query optimization (Section 4.1).

The SGL workload repeats the same query every tick while the data drifts
between a small number of *workload states* ("exploring", "fighting", …).
Rather than re-optimizing every tick (too slow) or optimizing once (wrong
plan half the time), the engine:

1. compiles a plan per registered workload state, using statistics captured
   while the game was in that state (:meth:`AdaptiveQueryManager.compile_for_state`),
2. executes whichever plan is currently selected,
3. monitors cheap runtime signals — observed operator cardinalities vs. the
   estimates the plan was built with — and re-plans / switches plans when
   the observed behaviour drifts past a threshold
   (:meth:`AdaptiveQueryManager.record_execution`).

This is deliberately in the spirit of Cole & Graefe's dynamic query
evaluation plans (the paper's reference [2]) specialized to the tick-loop
workload.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.engine.algebra import LogicalPlan
from repro.engine.catalog import Catalog
from repro.engine.errors import CatalogError
from repro.engine.indexes import GridIndex, SortedIndex
from repro.engine.operators import PhysicalOperator
from repro.engine.optimizer.planner import PlannedQuery, Planner
from repro.engine.statistics import suggest_grid_cell_size

__all__ = ["AdaptiveQueryManager", "PlanChoice", "ExecutionFeedback", "IndexAdvisor"]

#: Re-plan when observed output cardinality differs from the estimate by
#: more than this factor (in either direction).
DEFAULT_DRIFT_THRESHOLD = 3.0
#: Minimum number of executions between plan switches (hysteresis).
DEFAULT_SWITCH_COOLDOWN = 3


@dataclass
class PlanChoice:
    """One compiled plan, tagged with the workload state it was built for.

    Besides the :class:`PlannedQuery` itself, the choice accumulates the
    runtime counters (executions, total runtime, total output rows) that
    :meth:`AdaptiveQueryManager.record_execution` uses to detect drift
    between this plan's cost-model estimates and observed behaviour.
    """

    state: str
    planned: PlannedQuery
    compiled_at: float = field(default_factory=time.monotonic)
    executions: int = 0
    total_runtime: float = 0.0
    total_rows: int = 0

    @property
    def mean_runtime(self) -> float:
        return self.total_runtime / self.executions if self.executions else 0.0


@dataclass
class ExecutionFeedback:
    """Runtime signals from one execution of the current plan.

    ``rows`` and ``runtime`` are the cheap always-available signals
    (observed output cardinality and wall clock); ``state_hint`` is the
    optional explicit signal from the game — "combat started" — which
    short-circuits drift detection and switches plans immediately.
    """

    rows: int
    runtime: float
    state_hint: str | None = None


@dataclass
class _BandJoinObservation:
    """Probe activity for one ``(table, probe columns)`` band-join shape.

    Hooks installed by the physical planner accumulate per-tick counters;
    :meth:`IndexAdvisor.end_tick` folds them into the hot streak and the
    EWMA probe width that sizes an auto-created grid's cells.
    """

    probes_this_tick: int = 0
    width_sum: float = 0.0
    width_count: int = 0
    hot_streak: int = 0
    last_active_tick: int = -1
    mean_width: float | None = None
    #: Largest per-execution average probe width ever observed.  The EWMA
    #: forgets spikes; halo sizing in the sharded engine must not, because
    #: a boundary strip narrower than the widest probe silently drops join
    #: partners.
    max_width: float = 0.0


class IndexAdvisor:
    """Auto-creates persistent indexes for band-join columns that stay hot.

    The planner emits an index-probing join only when the inner table has a
    registered range-capable index — but registering one by hand requires
    knowing the workload.  The advisor closes the loop: lowered band joins
    report their probe activity through hooks
    (:meth:`make_hook`), and once a ``(table, columns)`` shape has probed
    for ``create_after`` consecutive ticks on a large-enough table, the
    advisor creates a :class:`~repro.engine.indexes.SortedIndex` (one
    dimension) or :class:`~repro.engine.indexes.GridIndex` (cell size from
    observed probe widths, else column statistics) for it.  Indexes it
    created are evicted again after ``evict_after`` ticks without any
    probes: the structure stops paying rent when the query stops
    running.

    ``end_tick`` returns ``True`` when the catalog shape changed so the
    caller (:class:`~repro.runtime.world.GameWorld`) can invalidate cached
    plans and let the next execution pick up the new index.
    """

    #: Name prefix of advisor-created indexes (also how tests find them).
    AUTO_INDEX_PREFIX = "auto_band_"

    def __init__(
        self,
        catalog: Catalog,
        create_after: int = 3,
        evict_after: int = 30,
        min_table_rows: int = 128,
    ):
        self.catalog = catalog
        self.create_after = create_after
        self.evict_after = evict_after
        self.min_table_rows = min_table_rows
        self._observations: dict[tuple[str, tuple[str, ...]], _BandJoinObservation] = {}
        self._created: dict[tuple[str, tuple[str, ...]], str] = {}
        self._tick = 0
        self.created_count = 0
        self.evicted_count = 0

    # -- recording ----------------------------------------------------------------------

    def make_hook(self, table_name: str, columns: tuple[str, ...]) -> Callable[[int, float, int], None]:
        """A stats hook for one band-join shape, installed on the lowered
        operator by the physical planner and called once per execution."""
        key = (table_name, tuple(columns))

        def hook(n_probes: int, width_sum: float, width_count: int) -> None:
            self.observe(key, n_probes, width_sum, width_count)

        return hook

    def observe(
        self, key: tuple[str, tuple[str, ...]], n_probes: int, width_sum: float, width_count: int
    ) -> None:
        obs = self._observations.setdefault(key, _BandJoinObservation())
        obs.probes_this_tick += n_probes
        obs.width_sum += width_sum
        obs.width_count += width_count
        if width_count:
            obs.max_width = max(obs.max_width, width_sum / width_count)

    # -- the per-tick decision ------------------------------------------------------------

    def end_tick(self) -> bool:
        """Fold this tick's observations; create/evict indexes.

        Returns ``True`` when an index was created or evicted (the caller
        should invalidate cached plans).
        """
        changed = False
        for key, obs in self._observations.items():
            if obs.probes_this_tick > 0:
                obs.hot_streak += 1
                obs.last_active_tick = self._tick
                if obs.width_count:
                    width = obs.width_sum / obs.width_count
                    obs.mean_width = (
                        width if obs.mean_width is None else 0.8 * obs.mean_width + 0.2 * width
                    )
            else:
                obs.hot_streak = 0
            obs.probes_this_tick = 0
            obs.width_sum = 0.0
            obs.width_count = 0
            if obs.hot_streak >= self.create_after and key not in self._created:
                changed = self._create_index(key, obs) or changed
        for key, index_name in list(self._created.items()):
            obs = self._observations.get(key)
            last_active = obs.last_active_tick if obs is not None else -1
            if self._tick - last_active > self.evict_after:
                table_name, _ = key
                try:
                    self.catalog.drop_index(table_name, index_name)
                except CatalogError:
                    pass  # table or index dropped by someone else
                del self._created[key]
                self.evicted_count += 1
                changed = True
        self._tick += 1
        return changed

    def _create_index(self, key: tuple[str, tuple[str, ...]], obs: _BandJoinObservation) -> bool:
        table_name, columns = key
        if not self.catalog.has_table(table_name):
            return False
        table = self.catalog.table(table_name)
        if len(table) < self.min_table_rows:
            return False
        try:
            resolved = tuple(table.schema.resolve(c.split(".")[-1]) for c in columns)
        except Exception:
            return False
        if table.find_index_covering(resolved) is not None:
            return False  # a usable (range-capable) index already exists
        if len(resolved) == 1:
            index = SortedIndex(resolved[0])
        else:
            stats = self.catalog.statistics(table_name)
            cell_size = suggest_grid_cell_size(stats, resolved, obs.mean_width)
            index = GridIndex(resolved, cell_size=cell_size)
        base_name = self.AUTO_INDEX_PREFIX + "_".join(c.split(".")[-1] for c in resolved)
        index_name = base_name
        suffix = 1
        while index_name in table.indexes:
            index_name = f"{base_name}_{suffix}"
            suffix += 1
        self.catalog.create_index(table_name, index_name, index)
        self._created[key] = index_name
        self.created_count += 1
        return True

    # -- introspection --------------------------------------------------------------------

    def created_indexes(self) -> dict[str, list[str]]:
        """Advisor-created indexes per table (tests and debug tooling)."""
        out: dict[str, list[str]] = {}
        for (table_name, _), index_name in self._created.items():
            out.setdefault(table_name, []).append(index_name)
        return out

    def probe_width_report(self) -> dict[str, dict[str, float]]:
        """Observed band-join probe widths per table.

        The sharded engine's adaptive halo sizing reads this: a boundary
        strip must be at least half the widest probe (plus margin) for
        band joins near a shard edge to see all their partners.  Widths
        are per-execution averages, so callers should leave headroom when
        per-row probe widths vary.
        """
        out: dict[str, dict[str, float]] = {}
        for (table, _columns), obs in self._observations.items():
            if obs.max_width <= 0.0:
                continue
            entry = out.setdefault(table, {"mean_width": 0.0, "max_width": 0.0})
            if obs.mean_width is not None:
                entry["mean_width"] = max(entry["mean_width"], obs.mean_width)
            entry["max_width"] = max(entry["max_width"], obs.max_width)
        return out

    def report(self) -> dict[str, Any]:
        return {
            "tick": self._tick,
            "created": self.created_count,
            "evicted": self.evicted_count,
            "active": {
                f"{table}({', '.join(columns)})": self._created.get((table, columns))
                for table, columns in self._observations
            },
        }


class AdaptiveQueryManager:
    """Maintains several compiled plans for one logical query and switches
    between them based on runtime feedback.

    One manager serves one logical query across the whole run: it holds a
    compiled :class:`PlanChoice` per registered workload state, tracks
    which is current, and implements the monitor-and-switch policy
    documented on :meth:`record_execution` (explicit hints first, then
    cardinality-drift detection with a cooldown as hysteresis).
    """

    def __init__(
        self,
        catalog: Catalog,
        logical: LogicalPlan,
        drift_threshold: float = DEFAULT_DRIFT_THRESHOLD,
        switch_cooldown: int = DEFAULT_SWITCH_COOLDOWN,
        planner_factory: Callable[[Catalog], Planner] | None = None,
    ):
        self.catalog = catalog
        self.logical = logical
        self.drift_threshold = drift_threshold
        self.switch_cooldown = switch_cooldown
        self._planner_factory = planner_factory or (lambda cat: Planner(cat))
        self._plans: dict[str, PlanChoice] = {}
        self._current_state: str | None = None
        self._executions_since_switch = 0
        self.switch_count = 0
        self.replan_count = 0

    # -- compilation -------------------------------------------------------------------

    def compile_for_state(self, state: str, refresh_statistics: bool = True) -> PlanChoice:
        """Compile (or re-compile) the plan for a named workload state.

        Call this while the game data is representative of *state* so the
        captured statistics reflect it.
        """
        if refresh_statistics:
            for table_name in self.logical.referenced_tables():
                if self.catalog.has_table(table_name):
                    self.catalog.statistics(table_name, refresh=True)
        planner = self._planner_factory(self.catalog)
        planned = planner.plan(self.logical)
        choice = PlanChoice(state=state, planned=planned)
        self._plans[state] = choice
        self.replan_count += 1
        if self._current_state is None:
            self._current_state = state
        return choice

    # -- selection ----------------------------------------------------------------------

    @property
    def states(self) -> list[str]:
        return sorted(self._plans)

    @property
    def current_state(self) -> str | None:
        return self._current_state

    def current_plan(self) -> PlannedQuery:
        if self._current_state is None:
            raise RuntimeError("no plan compiled yet; call compile_for_state first")
        return self._plans[self._current_state].planned

    def physical_plan(self) -> PhysicalOperator:
        return self.current_plan().physical

    def switch_to(self, state: str) -> None:
        """Explicitly switch to the plan compiled for *state*."""
        if state not in self._plans:
            raise KeyError(f"no plan compiled for state {state!r}")
        if state != self._current_state:
            self._current_state = state
            self.switch_count += 1
            self._executions_since_switch = 0

    # -- feedback loop ---------------------------------------------------------------------

    def record_execution(self, feedback: ExecutionFeedback) -> str:
        """Fold in runtime feedback; may switch plans.  Returns current state.

        Switching policy, in priority order:

        1. an explicit ``state_hint`` (the game announces "combat started")
           switches immediately — compiling the state lazily if needed;
        2. cardinality drift beyond ``drift_threshold`` relative to the
           current plan's estimate triggers a re-plan of the current state
           against fresh statistics, then adopts whichever compiled plan is
           now cheapest.
        """
        if self._current_state is None:
            raise RuntimeError("no plan compiled yet")
        choice = self._plans[self._current_state]
        choice.executions += 1
        choice.total_runtime += feedback.runtime
        choice.total_rows += feedback.rows
        self._executions_since_switch += 1

        if feedback.state_hint is not None and feedback.state_hint != self._current_state:
            if feedback.state_hint not in self._plans:
                self.compile_for_state(feedback.state_hint)
            self.switch_to(feedback.state_hint)
            return self._current_state

        if self._executions_since_switch < self.switch_cooldown:
            return self._current_state

        estimate = max(1.0, choice.planned.estimated.cardinality)
        observed = max(1.0, float(feedback.rows))
        drift = max(estimate / observed, observed / estimate)
        if drift > self.drift_threshold:
            self.compile_for_state(self._current_state)
            best_state = min(
                self._plans,
                key=lambda s: self._plans[s].planned.estimated.cost,
            )
            self.switch_to(best_state)
        return self._current_state

    # -- reporting -----------------------------------------------------------------------------

    def report(self) -> dict[str, Any]:
        """Summary used by benchmarks and the debugger."""
        return {
            "current_state": self._current_state,
            "states": {
                state: {
                    "executions": choice.executions,
                    "mean_runtime": choice.mean_runtime,
                    "estimated_cost": choice.planned.estimated.cost,
                    "estimated_rows": choice.planned.estimated.cardinality,
                }
                for state, choice in self._plans.items()
            },
            "switches": self.switch_count,
            "replans": self.replan_count,
        }
