"""Columnar batches for the vectorized execution path.

The row-at-a-time iterator model (:mod:`repro.engine.operators.base`)
materializes one dict per row per operator.  For the tick loop — where the
same queries run every tick over memory-resident tables (Section 4.1 of the
paper) — that dict churn dominates the per-tick cost.  A
:class:`ColumnBatch` instead stores a relation as parallel Python lists,
one per column, plus a *selection vector* of surviving physical indices:

* filters shrink the selection vector without touching the value lists,
* alias qualification renames columns while *sharing* the value lists,
* projections and joins gather values with list comprehensions instead of
  building a dict per intermediate row.

Row dicts are only materialized once, at the boundary back to the caller
(:meth:`ColumnBatch.to_rows`, used by
:class:`~repro.engine.operators.batch_ops.BatchBridgeOp`).

:class:`IndirectColumn` is the small trick that lets join operators reuse
the compiled expression machinery of
:func:`repro.engine.expressions.compile_batch` without materializing the
cross product: it presents ``values[indices[k]]`` under plain
``__getitem__``, so a predicate compiled against a pair of indirect columns
evaluates lazily over candidate join pairs.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

__all__ = ["ColumnBatch", "IndirectColumn"]


class IndirectColumn:
    """A virtual column ``values[indices[k]]`` supporting ``__getitem__``.

    Used by the batch join operators to evaluate compiled expressions over
    candidate (left, right) index pairs without first gathering the pair
    columns into new lists.
    """

    __slots__ = ("values", "indices")

    def __init__(self, values: Sequence[Any], indices: Sequence[int]):
        self.values = values
        self.indices = indices

    def __getitem__(self, k: int) -> Any:
        return self.values[self.indices[k]]

    def __len__(self) -> int:
        return len(self.indices)


class ColumnBatch:
    """A relation stored as parallel per-column lists plus a selection vector.

    ``names`` fixes the column order (it matches the row-dict key order the
    equivalent row-at-a-time plan would produce), ``columns`` maps each name
    to a list of *all* physical values, and ``selection`` is either ``None``
    (every physical index is live) or a list of live indices in output
    order.

    Batches are immutable by convention: operators never mutate the value
    lists of an input batch, they build new batches (possibly sharing value
    lists, e.g. after a filter or a rename).
    """

    __slots__ = ("names", "columns", "selection", "_row_count")

    def __init__(
        self,
        names: Sequence[str],
        columns: Mapping[str, list],
        selection: list[int] | None = None,
    ):
        self.names = tuple(names)
        self.columns = dict(columns)
        self.selection = selection
        self._row_count = len(self.columns[self.names[0]]) if self.names else 0

    # -- construction -----------------------------------------------------------------

    @classmethod
    def from_rows(cls, names: Sequence[str], rows: Iterable[Mapping[str, Any]]) -> "ColumnBatch":
        """Build a batch from row mappings (one pass, values copied into lists)."""
        names = tuple(names)
        columns: dict[str, list] = {name: [] for name in names}
        appenders = [columns[name].append for name in names]
        for row in rows:
            for name, append in zip(names, appenders):
                append(row.get(name))
        return cls(names, columns)

    @classmethod
    def from_columns(cls, names: Sequence[str], columns: Mapping[str, list]) -> "ColumnBatch":
        """Build a compacted batch (selection = all) from existing lists."""
        return cls(names, columns)

    # -- introspection ----------------------------------------------------------------

    def __len__(self) -> int:
        """Number of *selected* (live) rows."""
        if self.selection is not None:
            return len(self.selection)
        return self._row_count

    def __repr__(self) -> str:
        return f"ColumnBatch({list(self.names)}, rows={len(self)})"

    def indices(self) -> Sequence[int]:
        """The live physical indices, in output order."""
        if self.selection is not None:
            return self.selection
        return range(self._row_count)

    def column(self, name: str) -> list:
        """The full (unselected) value list of one column."""
        return self.columns[name]

    # -- derivation -------------------------------------------------------------------

    def with_selection(self, selection: list[int]) -> "ColumnBatch":
        """A batch sharing this batch's value lists under a new selection."""
        return ColumnBatch(self.names, self.columns, selection)

    def qualify(self, alias: str) -> "ColumnBatch":
        """Rename every column to ``alias.unqualified`` — shares value lists.

        Mirrors ``_qualify_row`` in :mod:`repro.engine.operators.scan`, but
        costs O(columns) instead of O(rows × columns).
        """
        renamed = [f"{alias}.{name.split('.')[-1]}" for name in self.names]
        columns = {new: self.columns[old] for new, old in zip(renamed, self.names)}
        return ColumnBatch(renamed, columns, self.selection)

    def compact(self) -> "ColumnBatch":
        """Gather the selected values into fresh, dense lists (selection = all)."""
        if self.selection is None:
            return self
        sel = self.selection
        columns = {name: [col[i] for i in sel] for name, col in self.columns.items()}
        return ColumnBatch(self.names, columns)

    # -- boundary back to rows ----------------------------------------------------------

    def to_rows(self) -> list[dict[str, Any]]:
        """Materialize the selected rows as fresh dicts (caller owns them)."""
        names = self.names
        cols = [self.columns[name] for name in names]
        if self.selection is None:
            return [
                dict(zip(names, values))
                for values in zip(*cols)
            ] if names else []
        return [{name: col[i] for name, col in zip(names, cols)} for i in self.selection]
