"""Intermediate representation shared by the SGL interpreter, compiler and
the game runtime.

Both execution strategies — the object-at-a-time interpreter and the
compiled set-at-a-time plans — reduce a tick's worth of script execution to
the same artefacts:

* :class:`EffectAssignment` — "write value *v* into effect *e* of object
  *o*"; the tick engine groups these by target and combines them with the
  effect's declared combinator (the ⊕ of the paper).
* :class:`TransactionRequest` — the effect assignments of one ``atomic``
  block issued by one acting object, plus the constraints that must hold
  after the update step for the block to commit (Section 3.1).
* :class:`EffectQuery` — the compiled form: a relational plan whose result
  rows each denote one effect assignment (produced only by the compiler).

Keeping this IR identical across strategies is what makes the equivalence
tests (compiled results == interpreted results) and experiment E2 (their
relative performance) meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.engine.algebra import LogicalPlan
from repro.sgl.ast_nodes import SglExpression

__all__ = [
    "EffectAssignment",
    "TransactionRequest",
    "EffectQuery",
    "TARGET_COLUMN",
    "VALUE_COLUMN",
    "ACTOR_COLUMN",
]

#: Column names used by compiled effect queries for their output rows.
TARGET_COLUMN = "__target__"
VALUE_COLUMN = "__value__"
ACTOR_COLUMN = "__actor__"


@dataclass(frozen=True)
class EffectAssignment:
    """One value written into one effect variable of one object."""

    class_name: str
    target_id: Any
    effect: str
    value: Any
    #: True when the assignment came from ``<=`` (insert into a set effect).
    set_insert: bool = False


@dataclass(frozen=True)
class TransactionRequest:
    """An atomic block instance: its writes and its commit constraints."""

    actor_class: str
    actor_id: Any
    assignments: tuple[EffectAssignment, ...]
    #: Raw SGL constraint expressions, evaluated against post-update state.
    constraints: tuple[SglExpression, ...] = ()
    #: Which script and atomic block produced the request (for debugging).
    script_name: str = ""
    block_index: int = 0


@dataclass
class EffectQuery:
    """A compiled effect computation.

    Executing ``plan`` yields rows with at least ``TARGET_COLUMN`` (the key
    of the object receiving the effect) and ``VALUE_COLUMN`` (the value
    assigned).  Transactional queries additionally carry ``ACTOR_COLUMN``
    so the runtime can group a tick's rows back into per-actor
    :class:`TransactionRequest` objects.
    """

    script_name: str
    class_name: str
    target_class: str
    effect: str
    plan: LogicalPlan
    set_insert: bool = False
    #: Segment of a multi-tick script this query belongs to.
    segment: int = 0
    #: Non-empty when the effect assignment sits inside an atomic block.
    constraints: tuple[SglExpression, ...] = ()
    transactional: bool = False
    block_index: int = 0
    #: Human-readable provenance used by the debugger (Section 3.3).
    description: str = ""
    #: Stable identity ``script/segment/site`` assigned by the compiler.
    #: Unlike ``id(query)`` it survives garbage collection and recompiles,
    #: so the runtime can key per-query decisions (tick-pipeline
    #: membership) without id-reuse hazards.
    query_id: str = ""
    #: Resolved ⊕ combinator of the target effect (aliases normalized;
    #: ``union`` for set-inserts).  Lets the engine fuse effect
    #: aggregation into the plan without consulting SGL declarations.
    combinator: str = "choose"
