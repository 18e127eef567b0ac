"""The transaction engine (Section 3.1).

Scripts mark regions ``atomic`` and attach constraints over state
attributes (``account >= 0``).  During the update step the engine "is then
responsible for choosing a subset of the transactions issued during the
tick that do not violate any constraints.  The remaining transactions
abort, and their effect assignments are not applied."

The engine fits the update-component model: it owns the *constrained*
attributes it updates.  Non-transactional effect assignments to those
attributes are applied first (they always succeed, combined with the
declared combinators); transaction requests are then admitted greedily in a
deterministic order, each one validated against the tentative post-update
state including all previously admitted transactions, which prevents the
classic duplication ("duping") and negative-balance bugs the paper calls
out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.engine.aggregates import Accumulator, make_accumulator
from repro.runtime.effects import CombinedEffects
from repro.runtime.updates import StateUpdate, UpdateComponent, WorldStateView
from repro.sgl.ast_nodes import ClassDecl, SglExpression
from repro.sgl.ir import EffectAssignment, TransactionRequest
from repro.sgl.semantics import resolve_combinator

__all__ = ["TransactionOutcome", "TransactionReport", "TransactionEngine"]

#: Signature of a constraint evaluator: (constraint, actor class, actor row
#: overlayed with tentative values, tentative world view) -> bool.
ConstraintEvaluator = Callable[[SglExpression, str, Mapping[str, Any]], bool]


@dataclass(frozen=True)
class TransactionOutcome:
    """The fate of one transaction request."""

    request: TransactionRequest
    committed: bool
    reason: str = ""


@dataclass
class TransactionReport:
    """All outcomes of one tick's transaction processing."""

    outcomes: list[TransactionOutcome] = field(default_factory=list)

    @property
    def committed(self) -> list[TransactionOutcome]:
        return [o for o in self.outcomes if o.committed]

    @property
    def aborted(self) -> list[TransactionOutcome]:
        return [o for o in self.outcomes if not o.committed]

    @property
    def commit_count(self) -> int:
        return len(self.committed)

    @property
    def abort_count(self) -> int:
        return len(self.aborted)

    @property
    def abort_rate(self) -> float:
        total = len(self.outcomes)
        return 0.0 if total == 0 else self.abort_count / total


#: Undo-log marker: the attribute (or the whole object) was not in the overlay.
_ABSENT = object()


class _TentativeState:
    """A copy-on-write overlay of the constrained attributes.

    While a request is open (:meth:`begin`), every :meth:`set` logs the
    value it overwrites, so :meth:`abort` costs as much as the request's
    own writes rather than a copy of the whole overlay.  Aborting removes
    any object or attribute the request added, which keeps the overlay's
    insertion order, and so the order of :meth:`updates`, exactly as it
    was before the request.
    """

    def __init__(self, state: WorldStateView):
        self._state = state
        self._overlay: dict[tuple[str, Any], dict[str, Any]] = {}
        #: ``(object key, attribute, previous value or _ABSENT)`` per write
        #: of the open request; ``None`` outside a request.
        self._undo: list[tuple[tuple[str, Any], str, Any]] | None = None

    def value(self, class_name: str, object_id: Any, attribute: str) -> Any:
        overlay = self._overlay.get((class_name, object_id))
        if overlay is not None and attribute in overlay:
            return overlay[attribute]
        row = self._state.get_object(class_name, object_id)
        return None if row is None else row.get(attribute)

    def row(self, class_name: str, object_id: Any) -> dict[str, Any] | None:
        base = self._state.get_object(class_name, object_id)
        if base is None:
            return None
        merged = dict(base)
        merged.update(self._overlay.get((class_name, object_id), {}))
        return merged

    def set(self, class_name: str, object_id: Any, attribute: str, value: Any) -> None:
        key = (class_name, object_id)
        values = self._overlay.get(key)
        if values is None:
            values = self._overlay[key] = {}
        if self._undo is not None:
            self._undo.append((key, attribute, values.get(attribute, _ABSENT)))
        values[attribute] = value

    def begin(self) -> None:
        """Open a request: log every write until :meth:`commit` or :meth:`abort`."""
        self._undo = []

    def commit(self) -> None:
        self._undo = None

    def abort(self) -> None:
        """Undo the open request's writes, newest first."""
        overlay = self._overlay
        for key, attribute, previous in reversed(self._undo or ()):
            values = overlay[key]
            if previous is _ABSENT:
                del values[attribute]
                if not values:
                    del overlay[key]
            else:
                values[attribute] = previous
        self._undo = None

    def updates(self) -> list[StateUpdate]:
        out: list[StateUpdate] = []
        for (class_name, object_id), values in self._overlay.items():
            for attribute, value in values.items():
                out.append(StateUpdate(class_name, object_id, attribute, value))
        return out


class TransactionEngine(UpdateComponent):
    """Owns constrained attributes and admits/aborts atomic blocks.

    ``owned`` maps class name -> the constrained attributes this engine
    updates.  It accepts either a set of attribute names (the effect
    variable is assumed to have the same name) or a mapping from the effect
    variable scripts write to the state attribute it updates — state and
    effect names are disjoint in SGL, so resource exchanges typically write
    ``gold_delta`` effects that update the ``gold`` attribute.
    ``apply`` controls how an effect value modifies an owned attribute; the
    default is *delta* semantics (``new = old + value``), the natural
    reading for resources like gold, health or stock.
    ``constraint_evaluator`` is supplied by the game world and evaluates a
    raw SGL constraint expression against a tentative state row.
    """

    name = "transaction-engine"

    def __init__(
        self,
        owned: Mapping[str, "set[str] | Mapping[str, str]"],
        classes: Mapping[str, ClassDecl],
        constraint_evaluator: ConstraintEvaluator | None = None,
        apply: Callable[[Any, Any], Any] | None = None,
    ):
        #: class -> {effect name -> state attribute}
        self._effect_map: dict[str, dict[str, str]] = {}
        for class_name, spec in owned.items():
            if isinstance(spec, Mapping):
                self._effect_map[class_name] = dict(spec)
            else:
                self._effect_map[class_name] = {attr: attr for attr in spec}
        self._classes = dict(classes)
        self._constraint_evaluator = constraint_evaluator
        self._apply = apply or (lambda old, delta: (old or 0) + (delta or 0))
        self._pending: list[TransactionRequest] = []
        self._write_targets: dict[tuple[str, str, bool], tuple[str, str] | None] = {}
        #: Report for the most recent tick.
        self.last_report = TransactionReport()

    # -- wiring ---------------------------------------------------------------------------------

    def owned_attributes(self) -> dict[str, set[str]]:
        return {
            cls: set(mapping.values()) for cls, mapping in self._effect_map.items()
        }

    def set_constraint_evaluator(self, evaluator: ConstraintEvaluator) -> None:
        self._constraint_evaluator = evaluator

    def submit(self, requests: Sequence[TransactionRequest]) -> None:
        """Queue transaction requests issued during the current tick."""
        self._pending.extend(requests)

    # -- update computation -----------------------------------------------------------------------

    def compute_updates(
        self, state: WorldStateView, effects: CombinedEffects
    ) -> list[StateUpdate]:
        tentative = _TentativeState(state)
        self._apply_plain_effects(effects, tentative)
        report = TransactionReport()
        for request in self._ordered(self._pending):
            tentative.begin()
            self._apply_assignments(request.assignments, tentative)
            ok, reason = self._check_constraints(request, tentative)
            if ok:
                tentative.commit()
                report.outcomes.append(TransactionOutcome(request, True))
            else:
                tentative.abort()
                report.outcomes.append(TransactionOutcome(request, False, reason))
        self._pending = []
        self.last_report = report
        return tentative.updates()

    # -- internals -----------------------------------------------------------------------------------

    def _owns_effect(self, class_name: str, effect: str) -> bool:
        return effect in self._effect_map.get(class_name, ())

    def _attribute_for(self, class_name: str, effect: str) -> str:
        return self._effect_map[class_name][effect]

    def _write_target(self, assignment: EffectAssignment) -> tuple[str, str] | None:
        """``(state attribute, combinator)`` of a transactional write to an
        owned effect, ``None`` for an effect this engine does not own."""
        class_name, effect = assignment.class_name, assignment.effect
        key = (class_name, effect, assignment.set_insert)
        if key not in self._write_targets:
            attribute = self._effect_map.get(class_name, {}).get(effect)
            self._write_targets[key] = None if attribute is None else (
                attribute,
                resolve_combinator(self._classes.get(class_name), effect, assignment.set_insert),
            )
        return self._write_targets[key]

    def _apply_plain_effects(
        self, effects: CombinedEffects, tentative: _TentativeState
    ) -> None:
        """Non-transactional effects on owned attributes always apply."""
        for (class_name, object_id), values in effects.values.items():
            for effect, value in values.items():
                if not self._owns_effect(class_name, effect):
                    continue
                attribute = self._attribute_for(class_name, effect)
                old = tentative.value(class_name, object_id, attribute)
                tentative.set(class_name, object_id, attribute, self._apply(old, value))

    def _apply_assignments(
        self, assignments: Sequence[EffectAssignment], tentative: _TentativeState
    ) -> None:
        # Combine a single transaction's own writes with the declared
        # combinators first (a transaction may assign the same effect twice),
        # then apply the combined values to the tentative state, object by
        # object in first-write order.  The first write to an effect picks
        # its combinator, as in :class:`~repro.runtime.effects.EffectStore`.
        folded: dict[tuple[str, Any], dict[str, tuple[str, Accumulator]]] = {}
        for assignment in assignments:
            target = self._write_target(assignment)
            if target is None:
                continue
            per_object = folded.setdefault((assignment.class_name, assignment.target_id), {})
            slot = per_object.get(assignment.effect)
            if slot is None:
                slot = per_object[assignment.effect] = (target[0], make_accumulator(target[1]))
            slot[1].add(assignment.value)
        for (class_name, object_id), per_object in folded.items():
            for attribute, accumulator in per_object.values():
                old = tentative.value(class_name, object_id, attribute)
                new = self._apply(old, accumulator.result())
                tentative.set(class_name, object_id, attribute, new)

    def _check_constraints(
        self, request: TransactionRequest, tentative: _TentativeState
    ) -> tuple[bool, str]:
        if not request.constraints:
            return True, ""
        if self._constraint_evaluator is None:
            return True, ""
        actor_row = tentative.row(request.actor_class, request.actor_id)
        if actor_row is None:
            return False, f"actor {request.actor_id!r} no longer exists"
        # Constraints must also hold for every object the transaction wrote.
        rows_to_check: list[tuple[str, Mapping[str, Any]]] = [(request.actor_class, actor_row)]
        seen = {(request.actor_class, request.actor_id)}
        for assignment in request.assignments:
            key = (assignment.class_name, assignment.target_id)
            if key in seen or not self._owns_effect(assignment.class_name, assignment.effect):
                continue
            seen.add(key)
            row = tentative.row(assignment.class_name, assignment.target_id)
            if row is not None and assignment.class_name == request.actor_class:
                rows_to_check.append((assignment.class_name, row))
        for constraint in request.constraints:
            for class_name, row in rows_to_check:
                try:
                    ok = self._constraint_evaluator(constraint, class_name, row)
                except Exception as exc:
                    return False, f"constraint raised {exc!r}"
                if not ok:
                    return False, f"constraint {constraint!r} violated"
        return True, ""

    @staticmethod
    def _ordered(requests: Sequence[TransactionRequest]) -> list[TransactionRequest]:
        """Deterministic admission order: by class, then the ``repr`` of the
        actor id, then block index.

        ``repr`` compares as text, not as a number: actor ``10`` is admitted
        before actor ``9``.  The order decides which of several contending
        requests commit, so it is kept as it is.
        """

        def key(request: TransactionRequest):
            return (request.actor_class, repr(request.actor_id), request.block_index)

        return sorted(requests, key=key)
