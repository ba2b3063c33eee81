"""Per-function control-flow graphs with exception edges.

Each function body becomes a :class:`CFG` of single-statement
:class:`Block` nodes connected by labelled edges:

* ``"normal"`` — ordinary fall-through / branch edges;
* ``"exception"`` — taken when the block's statement raises: the target
  is the innermost active handler dispatch, ``finally`` entry, or the
  function's :attr:`CFG.raise_exit`;
* ``"back"`` — loop back-edges (``while``/``for`` body to header).

Compound statements contribute a *header* block holding a
:class:`Header` marker (the ``if``/``while`` test, ``for`` iterable, or
``with`` items) so dataflow clients can model header-expression effects
without seeing the nested body twice.

``finally`` handling is the classic single-instance approximation: the
``finally`` body is built once, every way of reaching it (normal
completion, a raised exception, ``return``/``break``/``continue``) enters
the same subgraph, and on exit the block fans out to every continuation
that was actually pending.  This merges states across continuations —
conservative for may-analyses like the pin-leak check, and it keeps the
graph linear in the source size.  A ``return`` inside nested
``try/finally`` blocks threads through each enclosing ``finally`` in
innermost-to-outermost order, exactly like CPython.

Exception edges are added at *statement granularity*: the exceptional
successor observes the state from before the statement (an aborted
statement publishes none of its effects).  Clients that need finer
semantics — e.g. "a failing ``unfix`` still released the pin" — refine
this in their transfer function (see
:meth:`repro.lint.flow.dataflow.Analysis.transfer_exception`).
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Iterator, Union

#: Statement kinds that cannot raise and need no exception edge.
_NO_RAISE = (ast.Pass, ast.Global, ast.Nonlocal, ast.Import, ast.ImportFrom,
             ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@dataclasses.dataclass(frozen=True)
class Header:
    """Marker item: a block holds only the *header* of a compound statement.

    ``node`` is the compound statement; the header is its test (``if`` /
    ``while``), iterable (``for``), or context-manager items (``with``).
    """

    node: ast.stmt

    @property
    def exprs(self) -> list[ast.expr]:
        """The expressions evaluated by this header, in evaluation order."""
        node = self.node
        if isinstance(node, (ast.If, ast.While)):
            return [node.test]
        if isinstance(node, (ast.For, ast.AsyncFor)):
            return [node.iter]
        if isinstance(node, (ast.With, ast.AsyncWith)):
            return [item.context_expr for item in node.items]
        return []


Item = Union[ast.stmt, Header]


class Block:
    """One CFG node holding at most one statement (or compound header)."""

    __slots__ = ("bid", "label", "items", "succs")

    def __init__(self, bid: int, label: str = "") -> None:
        self.bid = bid
        self.label = label
        self.items: list[Item] = []
        self.succs: list[tuple["Block", str]] = []

    def edge(self, target: "Block", kind: str = "normal") -> None:
        """Add an edge to ``target`` unless an identical one exists."""
        if (target, kind) not in self.succs:
            self.succs.append((target, kind))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Block {self.bid} {self.label!r} stmts={len(self.items)}>"


class CFG:
    """Control-flow graph of one function."""

    def __init__(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.func = func
        self.blocks: list[Block] = []
        self.entry = self.new_block("entry")
        #: Normal-return exit (explicit ``return`` and fall-off-the-end).
        self.exit = self.new_block("exit")
        #: Exceptional exit: an exception escaped the function.
        self.raise_exit = self.new_block("raise")

    def new_block(self, label: str = "") -> Block:
        """Allocate a fresh block."""
        block = Block(len(self.blocks), label)
        self.blocks.append(block)
        return block

    def predecessors(self, target: Block) -> Iterator[tuple[Block, str]]:
        """All ``(block, kind)`` edges into ``target``."""
        for block in self.blocks:
            for succ, kind in block.succs:
                if succ is target:
                    yield block, kind


@dataclasses.dataclass
class _FinallyRec:
    """Bookkeeping for one active ``finally`` block during construction."""

    entry: Block
    #: Outer exception target at the time the ``try`` was entered.
    outer_exc: Block
    #: Continuations pending on this finally: "next" (normal completion),
    #: "exc" (exception propagation), "return", or ("goto", block) for
    #: break/continue targets.
    pending: set[object] = dataclasses.field(default_factory=set)


class _Builder:
    """Recursive-descent CFG construction."""

    def __init__(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.cfg = CFG(func)
        #: Innermost-last stack of exception targets.
        self.exc_stack: list[Block] = [self.cfg.raise_exit]
        #: (continue target, break target, finally depth at loop entry).
        self.loop_stack: list[tuple[Block, Block, int]] = []
        #: Innermost-last stack of active finally records.
        self.finally_stack: list[_FinallyRec] = []
        #: finally-entry block id -> record, to register "exc" pendings.
        self._fin_by_entry: dict[int, _FinallyRec] = {}

    def build(self) -> CFG:
        end = self._seq(self.cfg.func.body, self.cfg.entry)
        if end is not None:
            end.edge(self.cfg.exit)
        return self.cfg

    # ------------------------------------------------------------------
    # Statement sequencing
    # ------------------------------------------------------------------
    def _seq(self, stmts: list[ast.stmt], current: Block | None) -> Block | None:
        for stmt in stmts:
            if current is None:
                break  # unreachable code after return/raise/break
            current = self._stmt(stmt, current)
        return current

    def _stmt(self, stmt: ast.stmt, current: Block) -> Block | None:
        if isinstance(stmt, ast.If):
            return self._if(stmt, current)
        if isinstance(stmt, (ast.While,)):
            return self._while(stmt, current)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._for(stmt, current)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, current)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, current)
        if isinstance(stmt, ast.Return):
            return self._return(stmt, current)
        if isinstance(stmt, ast.Raise):
            block = self._simple(stmt, current, can_raise=False)
            block.edge(self.exc_stack[-1], "exception")
            self._note_exc_pending()
            return None
        if isinstance(stmt, ast.Break):
            return self._loop_jump(stmt, current, is_break=True)
        if isinstance(stmt, ast.Continue):
            return self._loop_jump(stmt, current, is_break=False)
        # match statements (3.10+) behave like an if/elif chain.
        if hasattr(ast, "Match") and isinstance(stmt, ast.Match):
            return self._match(stmt, current)
        return self._simple(stmt, current,
                            can_raise=not isinstance(stmt, _NO_RAISE))

    def _simple(self, stmt: ast.stmt, current: Block, can_raise: bool) -> Block:
        block = self.cfg.new_block()
        block.items.append(stmt)
        current.edge(block)
        if can_raise:
            block.edge(self.exc_stack[-1], "exception")
            self._note_exc_pending()
        return block

    def _header(self, stmt: ast.stmt, current: Block, label: str) -> Block:
        block = self.cfg.new_block(label)
        block.items.append(Header(stmt))
        current.edge(block)
        block.edge(self.exc_stack[-1], "exception")
        self._note_exc_pending()
        return block

    def _note_exc_pending(self) -> None:
        """Record that the current exception target may be entered."""
        rec = self._fin_by_entry.get(self.exc_stack[-1].bid)
        if rec is not None:
            rec.pending.add("exc")

    # ------------------------------------------------------------------
    # Branches and loops
    # ------------------------------------------------------------------
    def _if(self, stmt: ast.If, current: Block) -> Block | None:
        header = self._header(stmt, current, "if")
        join = self.cfg.new_block("join")
        then_end = self._seq(stmt.body, header)
        if then_end is not None:
            then_end.edge(join)
        if stmt.orelse:
            else_end = self._seq(stmt.orelse, header)
            if else_end is not None:
                else_end.edge(join)
        else:
            header.edge(join)
        return join if any(True for _ in self.cfg.predecessors(join)) else None

    def _match(self, stmt: ast.stmt, current: Block) -> Block | None:
        header = self._header(stmt, current, "match")
        join = self.cfg.new_block("join")
        for case in stmt.cases:  # type: ignore[attr-defined]
            case_end = self._seq(case.body, header)
            if case_end is not None:
                case_end.edge(join)
        header.edge(join)  # no case may match
        return join

    def _while(self, stmt: ast.While, current: Block) -> Block | None:
        header = self._header(stmt, current, "while")
        after = self.cfg.new_block("after-loop")
        self.loop_stack.append((header, after, len(self.finally_stack)))
        body_end = self._seq(stmt.body, header)
        self.loop_stack.pop()
        if body_end is not None:
            body_end.edge(header, "back")
        if stmt.orelse:
            else_end = self._seq(stmt.orelse, header)
            if else_end is not None:
                else_end.edge(after)
        else:
            header.edge(after)
        return after

    def _for(self, stmt: ast.For | ast.AsyncFor, current: Block) -> Block | None:
        header = self._header(stmt, current, "for")
        after = self.cfg.new_block("after-loop")
        self.loop_stack.append((header, after, len(self.finally_stack)))
        body_end = self._seq(stmt.body, header)
        self.loop_stack.pop()
        if body_end is not None:
            body_end.edge(header, "back")
        if stmt.orelse:
            else_end = self._seq(stmt.orelse, header)
            if else_end is not None:
                else_end.edge(after)
        else:
            header.edge(after)
        return after

    def _loop_jump(self, stmt: ast.stmt, current: Block,
                   is_break: bool) -> None:
        block = self._simple(stmt, current, can_raise=False)
        if not self.loop_stack:
            return None  # malformed outside a loop; ignore
        cont, brk, fin_depth = self.loop_stack[-1]
        target = brk if is_break else cont
        crossed = self.finally_stack[fin_depth:]
        if crossed:
            innermost = crossed[-1]
            innermost.pending.add(("goto", target))
            block.edge(innermost.entry)
        else:
            block.edge(target)
        return None

    def _return(self, stmt: ast.Return, current: Block) -> None:
        # Returning a bare name or literal cannot raise; anything with
        # evaluation work (calls, subscripts, arithmetic) can.
        block = self._simple(
            stmt,
            current,
            can_raise=stmt.value is not None
            and not isinstance(stmt.value, (ast.Name, ast.Constant)),
        )
        if self.finally_stack:
            innermost = self.finally_stack[-1]
            innermost.pending.add("return")
            block.edge(innermost.entry)
        else:
            block.edge(self.cfg.exit)
        return None

    # ------------------------------------------------------------------
    # with / try
    # ------------------------------------------------------------------
    def _with(self, stmt: ast.With | ast.AsyncWith,
              current: Block) -> Block | None:
        # Conservative model: __exit__ neither suppresses exceptions nor
        # has effects of its own; body exceptions propagate as usual.
        header = self._header(stmt, current, "with")
        return self._seq(stmt.body, header)

    def _try(self, stmt: ast.Try, current: Block) -> Block | None:
        after = self.cfg.new_block("after-try")
        outer_exc = self.exc_stack[-1]
        fin: _FinallyRec | None = None
        if stmt.finalbody:
            fin = _FinallyRec(self.cfg.new_block("finally"), outer_exc)
            self._fin_by_entry[fin.entry.bid] = fin
            self.finally_stack.append(fin)
        fin_or_outer = fin.entry if fin is not None else outer_exc

        dispatch: Block | None = None
        if stmt.handlers:
            dispatch = self.cfg.new_block("dispatch")

        # Body: exceptions go to the handler dispatch (or straight to the
        # finally / outer target when there are no handlers).
        self.exc_stack.append(dispatch if dispatch is not None else fin_or_outer)
        body_end = self._seq(stmt.body, current)
        self.exc_stack.pop()

        # else clause: runs on normal completion, *not* covered by handlers.
        if body_end is not None and stmt.orelse:
            self.exc_stack.append(fin_or_outer)
            body_end = self._seq(stmt.orelse, body_end)
            self.exc_stack.pop()
        if body_end is not None:
            if fin is not None:
                fin.pending.add("next")
                body_end.edge(fin.entry)
            else:
                body_end.edge(after)

        # Handlers: exceptions inside a handler propagate outward (through
        # the finally when present).
        if dispatch is not None:
            bare = False
            for handler in stmt.handlers:
                entry = self.cfg.new_block("except")
                dispatch.edge(entry, "exception")
                if handler.type is None:
                    bare = True
                self.exc_stack.append(fin_or_outer)
                handler_end = self._seq(handler.body, entry)
                self.exc_stack.pop()
                if handler_end is not None:
                    if fin is not None:
                        fin.pending.add("next")
                        handler_end.edge(fin.entry)
                    else:
                        handler_end.edge(after)
            if not bare:
                # No handler matched: the exception keeps propagating.
                if fin is not None:
                    fin.pending.add("exc")
                    dispatch.edge(fin.entry, "exception")
                else:
                    dispatch.edge(outer_exc, "exception")

        # Finally: built once; fan out to every pending continuation.
        if fin is not None:
            self.finally_stack.pop()
            fin_end = self._seq(stmt.finalbody, fin.entry)
            if fin_end is not None:
                for kind in sorted(fin.pending, key=repr):
                    if kind == "next":
                        fin_end.edge(after)
                    elif kind == "exc":
                        fin_end.edge(fin.outer_exc, "exception")
                    elif kind == "return":
                        if self.finally_stack:
                            outer_fin = self.finally_stack[-1]
                            outer_fin.pending.add("return")
                            fin_end.edge(outer_fin.entry)
                        else:
                            fin_end.edge(self.cfg.exit)
                    elif isinstance(kind, tuple) and kind[0] == "goto":
                        fin_end.edge(kind[1])

        reachable = any(True for _ in self.cfg.predecessors(after))
        return after if reachable else None


def build_cfg(func: ast.FunctionDef | ast.AsyncFunctionDef) -> CFG:
    """Build the control-flow graph of one function definition."""
    return _Builder(func).build()
