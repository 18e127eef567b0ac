"""Abstract syntax tree for SGL programs.

An SGL *program* is a set of class declarations (Figure 1 of the paper) and
scripts.  Scripts are imperative — sequences of statements over the acting
object (``self``) — but restricted by the state-effect pattern: state
attributes are read-only, effect attributes are write-only (``<-`` / ``<=``),
and aggregation happens through declared combinators and accum-loops
(Figure 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    # program structure
    "Program",
    "ClassDecl",
    "StateFieldDecl",
    "EffectFieldDecl",
    "ScriptDecl",
    # statements
    "Statement",
    "LetStatement",
    "LocalAssign",
    "EffectAssign",
    "SetInsert",
    "IfStatement",
    "AccumLoop",
    "ReachLoop",
    "WaitNextTick",
    "AtomicBlock",
    "Block",
    # expressions
    "SglExpression",
    "NumberLiteral",
    "BoolLiteral",
    "StringLiteral",
    "NullLiteral",
    "Identifier",
    "FieldAccess",
    "Binary",
    "Unary",
    "Call",
    "SetConstructor",
]


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SglExpression:
    """Base class for SGL expressions (position info on every node)."""

    line: int = field(default=0, compare=False, kw_only=True)


@dataclass(frozen=True)
class NumberLiteral(SglExpression):
    value: float


@dataclass(frozen=True)
class BoolLiteral(SglExpression):
    value: bool


@dataclass(frozen=True)
class StringLiteral(SglExpression):
    value: str


@dataclass(frozen=True)
class NullLiteral(SglExpression):
    pass


@dataclass(frozen=True)
class Identifier(SglExpression):
    """A bare name: a field of ``self``, a script local, an accum variable,
    a loop variable, or a class name (in ``from`` clauses)."""

    name: str


@dataclass(frozen=True)
class FieldAccess(SglExpression):
    """``target.field`` — reading a field of some object-valued expression."""

    target: SglExpression
    field_name: str


@dataclass(frozen=True)
class Binary(SglExpression):
    op: str
    left: SglExpression
    right: SglExpression


@dataclass(frozen=True)
class Unary(SglExpression):
    op: str
    operand: SglExpression


@dataclass(frozen=True)
class Call(SglExpression):
    """A call to a built-in function (``distance``, ``min``, ``size`` …)."""

    name: str
    args: tuple[SglExpression, ...]


@dataclass(frozen=True)
class SetConstructor(SglExpression):
    """``{ e1, e2, ... }`` — a set literal."""

    elements: tuple[SglExpression, ...]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Statement:
    line: int = field(default=0, compare=False, kw_only=True)


@dataclass(frozen=True)
class Block:
    """A brace-delimited sequence of statements."""

    statements: tuple[Statement, ...]


@dataclass(frozen=True)
class LetStatement(Statement):
    """``let name = expr;`` — introduce a script-local binding."""

    name: str
    value: SglExpression


@dataclass(frozen=True)
class LocalAssign(Statement):
    """``name = expr;`` — re-assign a script-local variable."""

    name: str
    value: SglExpression


@dataclass(frozen=True)
class EffectAssign(Statement):
    """``target <- expr;`` — assign a value into an effect variable.

    ``target`` is an :class:`Identifier` (an effect of ``self`` or an accum
    variable) or a :class:`FieldAccess` (an effect of another object, e.g.
    ``c.damage <- 1``).
    """

    target: SglExpression
    value: SglExpression


@dataclass(frozen=True)
class SetInsert(Statement):
    """``target <= expr;`` — insert a value into a set-valued effect
    (``itemsAcquired <= i`` in the paper's multi-tick example)."""

    target: SglExpression
    value: SglExpression


@dataclass(frozen=True)
class IfStatement(Statement):
    condition: SglExpression
    then_block: Block
    else_block: Block | None = None


@dataclass(frozen=True)
class AccumLoop(Statement):
    """The accum-loop of Figure 2.

    ``accum TYPE accum_var with COMBINATOR over TYPE loop_var from EXTENT
    { body } in { follow }``
    """

    accum_type: str
    accum_var: str
    combinator: str
    loop_type: str
    loop_var: str
    extent: SglExpression
    body: Block
    follow: Block


@dataclass(frozen=True)
class ReachLoop(Statement):
    """A transitive-closure loop over a dynamically derived edge relation.

    ``reach TYPE node_var from SEED via TYPE cur_var on COND [iterate N]
    { body }``

    Starting from the object whose id is ``SEED``, repeatedly expand the
    reached set: for every reached object (bound to ``cur_var``) every
    object of the node class (bound to ``node_var``) satisfying ``COND``
    becomes reached.  ``body`` then runs once per *reached* object with
    ``node_var`` bound to it — effect assignments inside address the whole
    closure.  ``iterate N`` caps the number of expansion rounds (N hops).

    The compiler lowers this to a :class:`~repro.engine.algebra.Fixpoint`
    plan, so closures plan, MQO-share, and warm-restart like any other
    query; the interpreter runs a reference BFS.
    """

    node_type: str
    node_var: str
    seed: SglExpression
    via_type: str
    via_var: str
    condition: SglExpression
    body: Block
    max_rounds: int | None = None


@dataclass(frozen=True)
class WaitNextTick(Statement):
    """``waitNextTick;`` — suspend the script until the next tick."""


@dataclass(frozen=True)
class AtomicBlock(Statement):
    """``atomic require(c1, c2, ...) { body }`` — a transaction (Section 3.1).

    The effect assignments inside the body form one transaction issued by
    the acting object; ``constraints`` are boolean expressions over state
    attributes that must hold *after* the update step for the transaction
    to commit.
    """

    constraints: tuple[SglExpression, ...]
    body: Block


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StateFieldDecl:
    """``number x = 0;`` inside a ``state:`` section."""

    name: str
    type_name: str
    default: SglExpression | None = None
    ref_class: str | None = None
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class EffectFieldDecl:
    """``number damage : sum;`` inside an ``effects:`` section."""

    name: str
    type_name: str
    combinator: str
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class ClassDecl:
    """A game-object class: its state and effect fields (Figure 1)."""

    name: str
    state_fields: tuple[StateFieldDecl, ...]
    effect_fields: tuple[EffectFieldDecl, ...]
    line: int = field(default=0, compare=False)

    def state_field(self, name: str) -> StateFieldDecl | None:
        for decl in self.state_fields:
            if decl.name == name:
                return decl
        return None

    def effect_field(self, name: str) -> EffectFieldDecl | None:
        for decl in self.effect_fields:
            if decl.name == name:
                return decl
        return None


@dataclass(frozen=True)
class ScriptDecl:
    """``script name(ClassName self) { ... }`` — per-object behaviour."""

    name: str
    class_name: str
    self_name: str
    body: Block
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Program:
    """A complete SGL compilation unit."""

    classes: tuple[ClassDecl, ...]
    scripts: tuple[ScriptDecl, ...]

    def class_named(self, name: str) -> ClassDecl | None:
        for decl in self.classes:
            if decl.name == name:
                return decl
        return None

    def script_named(self, name: str) -> ScriptDecl | None:
        for decl in self.scripts:
            if decl.name == name:
                return decl
        return None

    def scripts_for_class(self, class_name: str) -> tuple[ScriptDecl, ...]:
        return tuple(s for s in self.scripts if s.class_name == class_name)
