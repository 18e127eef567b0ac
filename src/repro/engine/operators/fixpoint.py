"""Semi-naive fixpoint iteration (recursive plans).

Physical execution of :class:`~repro.engine.algebra.Fixpoint`: the closure
of a base relation under a recursive step, the plan shape behind
reachability, influence maps and contagion spread.  Three evaluation modes
share one operator:

* **semi-naive** (the default): each round binds the step's
  :class:`~repro.engine.algebra.RecursiveRef` to the *previous round's
  delta* only, so per-round work is proportional to the frontier.
* **naive** (``semi_naive=False``, the ``reference`` preset): each round
  binds the full accumulated relation.  Semantically identical, used as
  the parity oracle and the benchmark baseline.
* **incremental re-closure**: when only *insertions* hit the step's base
  tables since the last execution (detected through the
  ``Table.changes_since`` change log), the cached closure warm-restarts —
  per-table delta variants of the step derive the new frontier from just
  the inserted rows, then normal semi-naive rounds propagate it.  Any
  deletion, log truncation or base-relation change falls back to a full
  run; closure under deletion is not monotonic.

The common linear-recursion shape (the accumulator equi-joined with a
non-recursive subplan, e.g. ``closure ⋈ edges``) is specialized by
:class:`LinearStep`: the non-recursive side is hashed **once per
execution** and every round just probes it with the frontier, instead of
re-executing the whole step subtree.  The non-recursive side is lowered
through the ordinary planner, so batch kernels and MQO shared scans apply
to the step body like to any other plan.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.engine.errors import ExecutionError
from repro.engine.expressions import Expression
from repro.engine.operators.base import PhysicalOperator
from repro.engine.schema import Schema
from repro.engine.table import Table

__all__ = ["RecursiveCell", "RecursiveSourceOp", "LinearStep", "FixpointOp"]

#: Safety cap for uncapped fixpoints: a step that is still producing new
#: rows after this many rounds is recursing over an unbounded domain
#: (e.g. an un-deduplicated counter column) — fail loudly instead of
#: spinning forever.
SAFETY_ROUNDS = 10_000


class RecursiveCell:
    """The binding slot a :class:`RecursiveSourceOp` reads from.

    The enclosing :class:`FixpointOp` re-points ``rows`` every round
    (semi-naive: the delta; naive: the accumulator) or, for per-table
    delta variants, to the inserted base rows.
    """

    __slots__ = ("name", "rows")

    def __init__(self, name: str):
        self.name = name
        self.rows: Sequence[Mapping[str, Any]] = ()


class RecursiveSourceOp(PhysicalOperator):
    """Leaf operator serving the current contents of a :class:`RecursiveCell`.

    ``source_names`` re-labels cell rows positionally into this operator's
    schema — needed when a delta variant replaces an aliased ``TableScan``
    (cell rows carry raw table column names, the scan's schema qualified
    ones).
    """

    def __init__(
        self,
        schema: Schema,
        cell: RecursiveCell,
        source_names: Sequence[str] | None = None,
    ):
        super().__init__(schema)
        self.cell = cell
        if source_names is not None and tuple(source_names) == tuple(schema.names):
            source_names = None
        self.source_names = tuple(source_names) if source_names is not None else None

    def _produce(self) -> Iterator[dict[str, Any]]:
        if self.source_names is None:
            for row in self.cell.rows:
                yield dict(row)
        else:
            out_names = self.schema.names
            for row in self.cell.rows:
                yield {out: row[src] for out, src in zip(out_names, self.source_names)}

    def label(self) -> str:
        return f"RecursiveSource({self.cell.name})"


class LinearStep:
    """Specialized step for linear recursion: ``rec ⋈ build`` on equi keys.

    ``build_op`` (the non-recursive join side plus any pushed-down
    filters/projections, lowered through the normal planner) is hashed
    once per :meth:`prepare`; :meth:`apply` probes it with frontier rows.
    ``rec_filters`` are conjuncts pushed onto the recursive side,
    ``residual`` the non-equi join conjuncts over the combined row, and
    ``projections`` the step's output columns.

    ``build_delta`` — ``(table, cell, op)``, lowered when the build side
    derives from one table scanned once — lets :meth:`refresh` keep the
    hash current under insert-only churn by pushing just the inserted
    rows through the build expressions, instead of re-hashing the whole
    side on every warm restart.
    """

    def __init__(
        self,
        build_op: PhysicalOperator,
        rec_keys: Sequence[Expression],
        build_keys: Sequence[Expression],
        projections: Sequence[tuple[str, Expression]],
        rec_filters: Sequence[Expression] = (),
        residual: Sequence[Expression] = (),
        rec_side_left: bool = True,
        build_delta: tuple[Table, RecursiveCell, PhysicalOperator] | None = None,
    ):
        self.build_op = build_op
        self.rec_keys = tuple(rec_keys)
        self.build_keys = tuple(build_keys)
        self.projections = tuple(projections)
        self.rec_filters = tuple(rec_filters)
        self.residual = tuple(residual)
        self.rec_side_left = rec_side_left
        self.build_delta = build_delta
        self._hash: dict[tuple, list[Mapping[str, Any]]] | None = None
        #: Version of the build table the hash reflects (delta tracking).
        self._hash_version: int | None = None
        #: Hash refreshes served incrementally (observability for tests).
        self.incremental_refreshes = 0

    def enable_incremental(self) -> None:
        """Turn on change logging for the build table so :meth:`refresh`
        can ask it for the rows inserted since the last hash build."""
        if self.build_delta is not None:
            self.build_delta[0].enable_change_log()

    def prepare(self) -> None:
        table: dict[tuple, list[Mapping[str, Any]]] = defaultdict(list)
        keys = self.build_keys
        for row in self.build_op.rows():
            table[tuple(k.evaluate(row) for k in keys)].append(row)
        self._hash = dict(table)
        if self.build_delta is not None:
            self._hash_version = self.build_delta[0].version

    def refresh(self) -> None:
        """Bring the hash up to date; incremental under insert-only churn."""
        if self._hash is None or self.build_delta is None or self._hash_version is None:
            self.prepare()
            return
        table, cell, op = self.build_delta
        if table.version == self._hash_version:
            return
        changes = table.changes_since(self._hash_version)
        if changes is None or changes[1]:
            self.prepare()  # log unavailable, or deletions: full rebuild
            return
        added = changes[0]
        if added:
            keys = self.build_keys
            cell.rows = added
            try:
                for row in op.rows():
                    self._hash.setdefault(
                        tuple(k.evaluate(row) for k in keys), []
                    ).append(row)
            finally:
                cell.rows = ()
        self._hash_version = table.version
        self.incremental_refreshes += 1

    def apply(self, frontier: Sequence[Mapping[str, Any]]) -> list[dict[str, Any]]:
        if self._hash is None:
            self.prepare()
        assert self._hash is not None
        out: list[dict[str, Any]] = []
        for rec_row in frontier:
            if self.rec_filters and not all(
                bool(f.evaluate(rec_row)) for f in self.rec_filters
            ):
                continue
            key = tuple(k.evaluate(rec_row) for k in self.rec_keys)
            matches = self._hash.get(key)
            if not matches:
                continue
            for build_row in matches:
                if self.rec_side_left:
                    combined = dict(rec_row)
                    combined.update(build_row)
                else:
                    combined = dict(build_row)
                    combined.update(rec_row)
                if self.residual and not all(
                    bool(r.evaluate(combined)) for r in self.residual
                ):
                    continue
                out.append(
                    {name: expr.evaluate(combined) for name, expr in self.projections}
                )
        return out


class _DeltaVariant:
    """One per-table delta variant of the step for incremental re-closure."""

    __slots__ = ("table", "cell", "op")

    def __init__(self, table: Table, cell: RecursiveCell, op: PhysicalOperator):
        self.table = table
        self.cell = cell
        self.op = op


def _hashable(value: Any) -> Any:
    try:
        hash(value)
        return value
    except TypeError:
        return repr(value)


class FixpointOp(PhysicalOperator):
    """Iterate a step plan to a least fixpoint over a base relation.

    Results are cached per execution keyed by the version vector of every
    referenced base table (re-serving a closure on an unchanged world is
    free, matching the batch-cache discipline of table scans).  Counters
    expose the per-round frontier sizes so tests — and
    ``TickInspector.tick_counters()`` — can verify that semi-naive rounds
    touch only the delta.
    """

    def __init__(
        self,
        schema: Schema,
        base_op: PhysicalOperator,
        accum_cell: RecursiveCell,
        step_op: PhysicalOperator | None = None,
        linear_step: LinearStep | None = None,
        *,
        semi_naive: bool = True,
        max_rounds: int | None = None,
        distinct_on: Sequence[str] = (),
        base_tables: Sequence[Table] = (),
        step_tables: Sequence[Table] = (),
        delta_variants: Sequence[_DeltaVariant] = (),
    ):
        if step_op is None and linear_step is None:
            raise ExecutionError("fixpoint needs a step operator or a linear step")
        children: list[PhysicalOperator] = [base_op]
        if step_op is not None:
            children.append(step_op)
        if linear_step is not None:
            children.append(linear_step.build_op)
        children.extend(v.op for v in delta_variants)
        super().__init__(schema, tuple(children))
        self.base_op = base_op
        self.step_op = step_op
        self.linear_step = linear_step
        self.accum_cell = accum_cell
        self.semi_naive = semi_naive
        self.max_rounds = max_rounds
        self.distinct_on = tuple(distinct_on)
        self.base_tables = tuple(base_tables)
        self.step_tables = tuple(step_tables)
        self.delta_variants = tuple(delta_variants)
        if self.semi_naive:
            for variant in self.delta_variants:
                variant.table.enable_change_log()
            if self.linear_step is not None:
                self.linear_step.enable_incremental()

        #: Cached closure: (version vector, rows, accumulator dict).
        self._cache: tuple[tuple[int, ...], list[dict[str, Any]], dict] | None = None

        # -- introspection counters (per last execution / cumulative) --------
        self.last_mode = "none"  #: "full" | "warm" | "cached"
        self.last_rounds = 0
        self.last_round_sizes: list[int] = []
        self.last_delta_rows = 0
        self.total_rounds = 0
        self.total_delta_rows = 0
        self.warm_restarts = 0
        self.cache_hits = 0

    # -- helpers -----------------------------------------------------------------

    def _key_of(self, row: Mapping[str, Any]) -> tuple:
        names = self.distinct_on or self.schema.names
        return tuple(_hashable(row[n]) for n in names)

    def _versions(self) -> tuple[int, ...]:
        return tuple(t.version for t in self.base_tables) + tuple(
            t.version for t in self.step_tables
        )

    def _run_step(self, frontier: Sequence[Mapping[str, Any]]) -> list[dict[str, Any]]:
        if self.linear_step is not None:
            return self.linear_step.apply(frontier)
        assert self.step_op is not None
        self.accum_cell.rows = frontier
        try:
            return self.step_op.rows()
        finally:
            self.accum_cell.rows = ()

    def _iterate(
        self,
        acc: dict[tuple, dict[str, Any]],
        delta: list[dict[str, Any]],
        rounds_done: int,
    ) -> int:
        """Semi-naive/naive rounds until convergence; returns round count."""
        cap = self.max_rounds if self.max_rounds is not None else SAFETY_ROUNDS
        rounds = rounds_done
        while delta and rounds < cap:
            frontier = delta if self.semi_naive else list(acc.values())
            self.last_round_sizes.append(len(frontier))
            produced = self._run_step(frontier)
            delta = []
            for row in produced:
                key = self._key_of(row)
                if key not in acc:
                    acc[key] = row
                    delta.append(row)
            self.last_delta_rows += len(delta)
            rounds += 1
        if delta and self.max_rounds is None:
            raise ExecutionError(
                f"fixpoint did not converge within {SAFETY_ROUNDS} rounds; "
                "the step likely derives an unbounded column (use max_rounds "
                "or distinct_on)"
            )
        return rounds

    def _try_warm_restart(
        self, versions: tuple[int, ...]
    ) -> list[dict[str, Any]] | None:
        """Re-close from the cached accumulator after insert-only churn."""
        if (
            self._cache is None
            or not self.semi_naive
            or self.distinct_on  # first-derivation-wins is not restartable
            or not self.delta_variants
        ):
            return None
        cached_versions, _, acc = self._cache
        n_base = len(self.base_tables)
        if versions[:n_base] != cached_versions[:n_base]:
            return None  # the seed relation changed: full recompute
        variant_tables = {id(v.table) for v in self.delta_variants}
        for table, old, new in zip(
            self.step_tables, cached_versions[n_base:], versions[n_base:]
        ):
            if old != new and id(table) not in variant_tables:
                return None  # changed table has no delta variant
        churn: list[tuple[_DeltaVariant, list[dict[str, Any]]]] = []
        for variant in self.delta_variants:
            table = variant.table
            old = cached_versions[n_base + self.step_tables.index(table)]
            changes = table.changes_since(old)
            if changes is None:
                return None  # log truncated/reset: full recompute
            added, removed = changes
            if removed:
                return None  # deletions are non-monotonic: full recompute
            if added:
                churn.append((variant, added))
        if self.linear_step is not None:
            # Propagation must probe the post-churn build side: a path may
            # cross several new edges, not just the seeding one.  refresh()
            # appends only the inserted rows to the hash when it can.
            self.linear_step.refresh()
        acc = dict(acc)  # re-closure must not corrupt the cached closure
        seed: list[dict[str, Any]] = []
        self.accum_cell.rows = list(acc.values())
        try:
            for variant, added in churn:
                variant.cell.rows = added
                try:
                    for row in variant.op.rows():
                        key = self._key_of(row)
                        if key not in acc:
                            acc[key] = row
                            seed.append(row)
                finally:
                    variant.cell.rows = ()
        finally:
            self.accum_cell.rows = ()
        self.last_round_sizes.append(sum(len(added) for _, added in churn))
        self.last_delta_rows += len(seed)
        rounds = self._iterate(acc, seed, rounds_done=1)
        self.last_mode = "warm"
        self.last_rounds = rounds
        self.warm_restarts += 1
        rows = list(acc.values())
        self._cache = (versions, rows, acc)
        return rows

    # -- execution ---------------------------------------------------------------

    def _produce(self) -> Iterator[dict[str, Any]]:
        self.last_round_sizes = []
        self.last_delta_rows = 0
        versions = self._versions()
        if self._cache is not None and self.semi_naive and self._cache[0] == versions:
            self.last_mode = "cached"
            self.last_rounds = 0
            self.cache_hits += 1
            yield from self._cache[1]
            return

        rows = self._try_warm_restart(versions)
        if rows is None:
            if self.linear_step is not None:
                self.linear_step.refresh()
            acc: dict[tuple, dict[str, Any]] = {}
            delta: list[dict[str, Any]] = []
            for row in self.base_op.rows():
                key = self._key_of(row)
                if key not in acc:
                    acc[key] = row
                    delta.append(row)
            self.last_delta_rows += len(delta)
            rounds = self._iterate(acc, delta, rounds_done=0)
            self.last_mode = "full"
            self.last_rounds = rounds
            rows = list(acc.values())
            if self.semi_naive:
                self._cache = (versions, rows, acc)
        else:
            # Warm restart rebuilt the closure; the linear hash, if any,
            # was refreshed lazily inside the propagation rounds.
            pass
        self.total_rounds += self.last_rounds
        self.total_delta_rows += self.last_delta_rows
        yield from rows

    def invalidate(self) -> None:
        """Drop the cached closure (plan-cache invalidation hook)."""
        self._cache = None
        if self.linear_step is not None:
            self.linear_step._hash = None
            self.linear_step._hash_version = None

    def reset_counters(self) -> None:
        super().reset_counters()
        self.last_mode = "none"
        self.last_rounds = 0
        self.last_round_sizes = []
        self.last_delta_rows = 0
        self.total_rounds = 0
        self.total_delta_rows = 0
        self.warm_restarts = 0
        self.cache_hits = 0

    def label(self) -> str:
        mode = "semi-naive" if self.semi_naive else "naive"
        step = "linear" if self.linear_step is not None else "generic"
        cap = "∞" if self.max_rounds is None else str(self.max_rounds)
        return f"Fixpoint({mode}, {step} step, max_rounds={cap})"
