"""Runtime weaving: run unmodified blocking code as generator tasks.

The engine (:mod:`repro.vmpi.engine`) runs every rank as a *generator*
driven by a single-threaded trampoline.  Rank programs, however, are
written as ordinary synchronous Python — ``comm.recv(...)``,
``PI_Read(...)``, ``with engine.resource(...)`` — with no ``yield`` in
sight.  Without native stack switching (greenlet is deliberately not a
dependency) a blocking call buried five frames deep cannot suspend the
task unless *every* frame between the task entry point and the blocking
call is a generator.

This module makes that true at runtime.  When a function or lambda is
first called from a task it is *woven*: its definition is found in the
parsed source of its file (a ``def`` by name and first line, a lambda by
first line and the positions of its body), and every call expression
``f(x)`` in it is rewritten to ``(yield from _pilot_w_call(f, x))``.  A
lambda is compiled as a ``def`` whose code object keeps the name
``<lambda>``; closures are rebuilt from the original's cells, and
defaults come from the original rather than being evaluated again.
:func:`w_call` then dispatches:

* engine/resource blocking primitives go to hand-written generator twins
  (registered by :mod:`repro.vmpi.engine` via :func:`register_twin`), whose
  ``yield`` propagates up the woven ``yield from`` chain to the trampoline;
* calls into weavable code recurse into the callee's woven twin;
* everything else (stdlib, numpy, non-blocking repro internals) runs as a
  plain synchronous call.

Woven functions keep their original ``co_filename`` and line and column
numbers, so callsite capture, tracebacks, and the produced CLOG2 logs
read as the original code's.

Which code gets woven
---------------------

Only functions that may sit on a blocking path need weaving.  For
``repro.*`` an explicit allow-list (:data:`_WEAVE_MODULES`) names them;
hot numeric helpers are denied to keep their loops at full speed.  Code
outside the interpreter installation (user programs, tests) is woven by
default.  Stdlib and site-packages are never woven.

The one rule, and other checked limits
--------------------------------------

Code may block anywhere a woven frame can suspend, which excludes
expressions evaluated by C code: a comprehension or generator
expression in any position other than the whole value of an assignment
or return (``sum(PI_Read(c, "%d") for c in chans)``,
``chans.extend(... for p in procs)``), or a callback handed to a builtin
such as ``map`` or ``sorted``.  Comprehensions that *are* the whole value
of an assignment or return are desugared into explicit loops and weave
as usual.  Blocking in any other comprehension raises a loud
``EngineError`` instead of deadlocking.  Also refused: ``nonlocal``
rebinding a free variable of the woven function (closure cells are
copied by value); generator/async functions are never woven (they are
called directly).
"""

from __future__ import annotations

import ast
import functools
import inspect
import linecache
import sys
import sysconfig
import types
from typing import Any, Callable, Iterable

from repro.vmpi.errors import EngineError

__all__ = [
    "WeaveError",
    "WovenCallable",
    "register_twin",
    "w_call",
    "weavable",
    "woven_twin",
]


class WeaveError(EngineError):
    """A function could not be woven."""


# ---------------------------------------------------------------------------
# Twin registry: sync blocking primitive -> hand-written generator twin.
# ---------------------------------------------------------------------------

_TWINS: dict[Any, Callable[..., Any]] = {}


def register_twin(original: Callable[..., Any],
                  twin: Callable[..., Any]) -> None:
    """Register a generator twin for a synchronous blocking primitive.

    ``original`` is the plain function object (for methods, the function
    behind the bound method — ``Engine.advance``, not ``engine.advance``).
    """
    _TWINS[original] = twin


# ---------------------------------------------------------------------------
# Weave policy.
# ---------------------------------------------------------------------------

#: repro modules whose functions may sit on a blocking path.  Matched as
#: exact name or dotted prefix.
_WEAVE_MODULES = (
    "repro.pilot.api",
    "repro.pilot.rw",
    "repro.pilot.select",
    "repro.pilot.program",
    "repro.pilot.service",
    "repro.pilot.hooks",
    "repro.pilot.runner",
    "repro.vmpi.comm",
    "repro.vmpi.collectives",
    "repro.vmpi.world",
    "repro.mpe.api",
    "repro.mpe.clocksync",
    "repro.pilotlog.integration",
    "repro.apps",
)

#: repro modules explicitly kept synchronous (hot numeric loops that never
#: block; weaving them would only slow them down).
_DENY_MODULES = (
    "repro.apps.datagen",
    "repro.apps.jpeglite",
)

_INSTALL_PREFIXES = tuple({
    sys.prefix,
    sys.base_prefix,
    sys.exec_prefix,
    sysconfig.get_paths()["stdlib"],
})


def _matches(mod: str, names: Iterable[str]) -> bool:
    return any(mod == m or mod.startswith(m + ".") for m in names)


#: co_flags bits that disqualify a function from weaving outright.
_GENERATORISH = (inspect.CO_GENERATOR | inspect.CO_COROUTINE
                 | inspect.CO_ASYNC_GENERATOR)

#: Weavability verdict per code object.  The verdict depends only on
#: the code object (flags, name, filename) and the defining module —
#: and every function sharing a code object (closures from one factory
#: def) shares the module too — so one entry serves them all.  w_call
#: consults this on every single call from woven code; without the
#: cache the inspect flag checks and prefix matches dominate large-rank
#: runs.
_WEAVABLE_CACHE: dict[types.CodeType, bool] = {}


def weavable(fn: Any) -> bool:
    """True if ``fn`` should be rewritten when a task calls it."""
    if not isinstance(fn, types.FunctionType):
        return False
    code = fn.__code__
    cached = _WEAVABLE_CACHE.get(code)
    if cached is None:
        cached = _WEAVABLE_CACHE[code] = _weavable_uncached(fn, code)
    return cached


def _weavable_uncached(fn: types.FunctionType, code: types.CodeType) -> bool:
    if code.co_flags & _GENERATORISH:
        return False
    mod = fn.__module__ or ""
    if mod == "repro" or mod.startswith("repro."):
        if _matches(mod, _DENY_MODULES):
            return False
        return _matches(mod, _WEAVE_MODULES)
    filename = code.co_filename
    if not filename or filename.startswith("<"):
        return False
    # User programs and tests live outside the interpreter installation.
    return not filename.startswith(_INSTALL_PREFIXES)


# ---------------------------------------------------------------------------
# WovenCallable: a woven nested function that still works when called from
# a synchronous context (comm observers, stall hooks, slot matchers).
# ---------------------------------------------------------------------------

class WovenCallable:
    """Callable wrapper over a woven (generator) function.

    Calling it synchronously drives the generator to completion; that
    succeeds exactly when the function does not block — nothing can
    suspend a synchronous caller.  Woven callers dispatch through :func:`w_call`,
    which recognises the wrapper and ``yield from``s the underlying
    generator so blocking works as usual.
    """

    def __init__(self, gen_fn: Callable[..., Any],
                 original: Callable[..., Any] | None = None) -> None:
        self.gen_fn = gen_fn
        src = original if original is not None else gen_fn
        self.__name__ = getattr(src, "__name__", "woven")
        self.__qualname__ = getattr(src, "__qualname__", self.__name__)
        self.__doc__ = getattr(src, "__doc__", None)
        self.__module__ = getattr(src, "__module__", None)
        self.__wrapped__ = src

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        gen = self.gen_fn(*args, **kwargs)
        try:
            gen.send(None)
        except StopIteration as stop:
            return stop.value
        gen.close()
        raise EngineError(
            f"{self.__qualname__} tried to block while called from a "
            "synchronous context; only code reached through woven calls "
            "may block")

    def __repr__(self) -> str:
        return f"<woven {self.__qualname__}>"


def _mark(obj: Any) -> Any:
    """Post-definition hook for nested ``def``s inside woven functions.

    The rewrite turned them into generator functions; wrap those so they
    remain callable from synchronous contexts.  Anything that did not
    become a generator (no calls in its body) is returned unchanged."""
    if (obj.__class__ is types.FunctionType
            and obj.__code__.co_flags & inspect.CO_GENERATOR):
        return WovenCallable(obj)
    return obj


# ---------------------------------------------------------------------------
# The call dispatcher every woven call site goes through.
# ---------------------------------------------------------------------------

def w_call(fn, /, *args, **kwargs):  # noqa: ANN001 - generator protocol
    """Dispatch one call from woven code (generator; used via yield from).

    Every call expression in woven code funnels through here, so the
    common shapes are dispatched on exact type before the generic
    attribute-probing tail: plain functions, builtins/slot wrappers and
    class constructors (which never weave and never block), bound
    methods, partials and woven nested defs."""
    t = fn.__class__
    if t is types.FunctionType:
        twin = _TWINS.get(fn)
        if twin is not None:
            return (yield from twin(*args, **kwargs))
        if weavable(fn):
            return (yield from woven_twin(fn)(*args, **kwargs))
        return fn(*args, **kwargs)
    if (t is types.BuiltinFunctionType or t is types.MethodWrapperType
            or t is type):
        return fn(*args, **kwargs)
    if t is types.MethodType:
        func = fn.__func__
        twin = _TWINS.get(func)
        if twin is not None:
            return (yield from twin(fn.__self__, *args, **kwargs))
        if isinstance(func, WovenCallable):
            return (yield from func.gen_fn(fn.__self__, *args, **kwargs))
        if weavable(func):
            return (yield from woven_twin(func)(fn.__self__, *args, **kwargs))
        return fn(*args, **kwargs)
    # Generic tail: partial chains, WovenCallable, callable objects,
    # classmethods/staticmethods, metaclass instances.
    while isinstance(fn, functools.partial):
        if fn.keywords:
            kwargs = {**fn.keywords, **kwargs}
        args = fn.args + args
        fn = fn.func
        if fn.__class__ is not functools.partial:
            return (yield from w_call(fn, *args, **kwargs))
    if isinstance(fn, WovenCallable):
        return (yield from fn.gen_fn(*args, **kwargs))
    func = getattr(fn, "__func__", None)
    if func is not None and getattr(fn, "__self__", None) is not None:
        # Bound method: dispatch on the underlying function.
        twin = _TWINS.get(func)
        if twin is not None:
            return (yield from twin(fn.__self__, *args, **kwargs))
        if isinstance(func, WovenCallable):
            return (yield from func.gen_fn(fn.__self__, *args, **kwargs))
        if weavable(func):
            woven = woven_twin(func)
            return (yield from woven(fn.__self__, *args, **kwargs))
        return fn(*args, **kwargs)
    twin = _TWINS.get(fn)
    if twin is not None:
        return (yield from twin(*args, **kwargs))
    if weavable(fn):
        woven = woven_twin(fn)
        return (yield from woven(*args, **kwargs))
    return fn(*args, **kwargs)


def _w_enter(mgr):
    """``with`` support: run ``type(mgr).__enter__`` through the weave."""
    enter = type(mgr).__enter__
    return (yield from w_call(enter, mgr))


def _w_exit(mgr, exc):
    """``with`` support: run ``type(mgr).__exit__`` through the weave."""
    exit_ = type(mgr).__exit__
    if exc is None:
        return (yield from w_call(exit_, mgr, None, None, None))
    return (yield from w_call(exit_, mgr, type(exc), exc, exc.__traceback__))


# ---------------------------------------------------------------------------
# The AST rewrite.
# ---------------------------------------------------------------------------

def _has_own_yield(fndef: ast.AST) -> bool:
    """True if the function body contains a yield of its *own* scope."""
    barriers = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

    def scan(nodes: Iterable[ast.AST]) -> bool:
        for n in nodes:
            if isinstance(n, (ast.Yield, ast.YieldFrom)):
                return True
            if isinstance(n, barriers):
                continue
            if scan(ast.iter_child_nodes(n)):
                return True
        return False

    return scan(ast.iter_child_nodes(fndef))


def _nonlocal_names(fndef: ast.AST) -> set[str]:
    names: set[str] = set()
    for n in ast.walk(fndef):
        if isinstance(n, ast.Nonlocal):
            names.update(n.names)
    return names


class _Rename(ast.NodeTransformer):
    """Rename ``Name`` nodes per a mapping (comprehension desugaring)."""

    def __init__(self, mapping: dict[str, str]) -> None:
        self.mapping = mapping

    def visit_Name(self, node: ast.Name) -> ast.AST:
        new = self.mapping.get(node.id)
        if new is not None:
            node.id = new
        return node


class _Weaver(ast.NodeTransformer):
    """Rewrites every call to ``yield from _pilot_w_call(...)`` and every
    ``with`` block to explicit woven ``__enter__``/``__exit__`` calls."""

    def __init__(self) -> None:
        self._tmp = 0

    def transform_body(self, body: list[ast.stmt]) -> list[ast.stmt]:
        out: list[ast.stmt] = []
        for stmt in body:
            res = self.visit(stmt)
            if res is None:
                continue
            if isinstance(res, list):
                out.extend(res)
            else:
                out.append(res)
        return out

    # Scope barriers: yield is illegal (or scope-crossing) inside these.
    # A lambda left here is woven on its own when a task calls it;
    # comprehensions and generator expressions run synchronously.
    def visit_Lambda(self, node: ast.Lambda) -> ast.AST:
        return node

    def visit_ListComp(self, node: ast.ListComp) -> ast.AST:
        return node

    def visit_SetComp(self, node: ast.SetComp) -> ast.AST:
        return node

    def visit_DictComp(self, node: ast.DictComp) -> ast.AST:
        return node

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> ast.AST:
        return node

    def visit_ClassDef(self, node: ast.ClassDef) -> ast.AST:
        return node

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> ast.AST:
        return node

    # -- comprehension desugaring ---------------------------------------
    #
    # Comprehension bodies compile to their own code objects, which the
    # weave never rewrites — a PI call inside one would reach the engine
    # synchronously.  When a list/set/dict comprehension is the *entire*
    # value of an assignment or return (the common Pilot idiom, e.g.
    # ``procs = [PI_CreateProcess(w, i) for i in range(n)]``), it is
    # desugared into an explicit loop over uniquely-renamed iteration
    # variables, whose calls then weave as usual.  Those positions are
    # the ones where desugaring cannot change evaluation order; anywhere
    # else the comprehension stays synchronous (and a blocking call in
    # it raises the loud EngineError).

    def _comp_desugarable(self, node: ast.expr) -> bool:
        if not isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp)):
            return False
        if any(g.is_async for g in node.generators):
            return False
        # Scope barriers inside would make the variable renaming unsound;
        # without any call there is nothing to gain.
        barriers = (ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp,
                    ast.GeneratorExp, ast.Await, ast.Yield, ast.YieldFrom)
        has_call = False
        for sub in ast.iter_child_nodes(node):
            for x in ast.walk(sub):
                if isinstance(x, barriers):
                    return False
                if isinstance(x, ast.Call):
                    has_call = True
        if not has_call:
            return False
        for g in node.generators:
            for t in ast.walk(g.target):
                if not isinstance(t, (ast.Name, ast.Tuple, ast.List,
                                      ast.Starred, ast.Store)):
                    return False
        return True

    def _desugar_comp(self, comp: ast.expr,
                      src: ast.AST) -> tuple[list[ast.stmt], str]:
        """Expand a comprehension into loop statements filling an
        accumulator; returns ``(statements, accumulator_name)``."""
        n = self._tmp
        self._tmp += 1
        acc = f"_pilot_w_acc{n}"
        renames: dict[str, str] = {}

        def woven(expr: ast.expr) -> ast.expr:
            return self.visit(_Rename(renames).visit(expr))

        def load(ident: str) -> ast.Name:
            return ast.Name(id=ident, ctx=ast.Load())

        # Generators process outermost-first: each iterable sees the
        # renames of the targets bound before it, matching real
        # comprehension scoping; renamed loop variables cannot clobber
        # (or be clobbered by) the enclosing function's locals.
        pieces = []
        for g in comp.generators:
            iter_expr = woven(g.iter)
            for t in ast.walk(g.target):
                if isinstance(t, ast.Name):
                    renames[t.id] = f"_pilot_w_it{n}_{t.id}"
            target = _Rename(renames).visit(g.target)
            conds = [woven(c) for c in g.ifs]
            pieces.append((target, iter_expr, conds))

        # The element expression sees every target, i.e. the full map.
        if isinstance(comp, ast.ListComp):
            init: ast.expr = ast.List(elts=[], ctx=ast.Load())
            inner: ast.stmt | list[ast.stmt] = ast.Expr(value=ast.Call(
                func=ast.Attribute(value=load(acc), attr="append",
                                   ctx=ast.Load()),
                args=[woven(comp.elt)], keywords=[]))
        elif isinstance(comp, ast.SetComp):
            init = ast.Call(func=load("set"), args=[], keywords=[])
            inner = ast.Expr(value=ast.Call(
                func=ast.Attribute(value=load(acc), attr="add",
                                   ctx=ast.Load()),
                args=[woven(comp.elt)], keywords=[]))
        else:
            assert isinstance(comp, ast.DictComp)
            init = ast.Dict(keys=[], values=[])
            # Temps preserve the comprehension's key-then-value
            # evaluation order (``acc[k] = v`` would evaluate v first).
            key_tmp, val_tmp = f"_pilot_w_k{n}", f"_pilot_w_v{n}"
            inner = [
                ast.Assign(targets=[ast.Name(id=key_tmp, ctx=ast.Store())],
                           value=woven(comp.key)),
                ast.Assign(targets=[ast.Name(id=val_tmp, ctx=ast.Store())],
                           value=woven(comp.value)),
                ast.Assign(
                    targets=[ast.Subscript(value=load(acc),
                                           slice=load(key_tmp),
                                           ctx=ast.Store())],
                    value=load(val_tmp)),
            ]

        body: list[ast.stmt] = inner if isinstance(inner, list) else [inner]
        for target, iter_expr, conds in reversed(pieces):
            for cond in reversed(conds):
                body = [ast.If(test=cond, body=body, orelse=[])]
            body = [ast.For(target=target, iter=iter_expr, body=body,
                            orelse=[])]
        stmts: list[ast.stmt] = [
            ast.Assign(targets=[ast.Name(id=acc, ctx=ast.Store())],
                       value=init),
            *body,
        ]
        for s in stmts:
            ast.copy_location(s, src)
            ast.fix_missing_locations(s)
        return stmts, acc

    def visit_Assign(self, node: ast.Assign) -> Any:
        if self._comp_desugarable(node.value):
            stmts, acc = self._desugar_comp(node.value, node)
            store = ast.Assign(
                targets=[self.visit(t) for t in node.targets],
                value=ast.Name(id=acc, ctx=ast.Load()))
            ast.copy_location(store, node)
            ast.fix_missing_locations(store)
            return stmts + [store]
        self.generic_visit(node)
        return node

    def visit_Return(self, node: ast.Return) -> Any:
        if node.value is not None and self._comp_desugarable(node.value):
            stmts, acc = self._desugar_comp(node.value, node)
            ret = ast.Return(value=ast.Name(id=acc, ctx=ast.Load()))
            ast.copy_location(ret, node)
            ast.fix_missing_locations(ret)
            return stmts + [ret]
        self.generic_visit(node)
        return node

    def visit_Call(self, node: ast.Call) -> ast.AST:
        self.generic_visit(node)
        call = ast.Call(
            func=ast.Name(id="_pilot_w_call", ctx=ast.Load()),
            args=[node.func, *node.args],
            keywords=node.keywords,
        )
        new = ast.YieldFrom(value=call)
        for n in (call, call.func, new):
            ast.copy_location(n, node)
        return new

    def visit_FunctionDef(self, node: ast.FunctionDef):
        # A genuine generator function: leave it (and its body) alone.
        if _has_own_yield(node):
            return node
        node.body = self.transform_body(node.body)
        # The transformed def is now a generator function; re-bind the
        # name to a sync-callable wrapper so non-woven callers still work.
        mark = ast.Assign(
            targets=[ast.Name(id=node.name, ctx=ast.Store())],
            value=ast.Call(
                func=ast.Name(id="_pilot_w_mark", ctx=ast.Load()),
                args=[ast.Name(id=node.name, ctx=ast.Load())],
                keywords=[]),
        )
        ast.copy_location(mark, node)
        return [node, mark]

    def visit_With(self, node: ast.With) -> list[ast.stmt]:
        self.generic_visit(node)
        body = node.body
        for item in reversed(node.items):
            body = self._expand_with(item, body, node)
        return body

    def _expand_with(self, item: ast.withitem, body: list[ast.stmt],
                     src: ast.AST) -> list[ast.stmt]:
        n = self._tmp
        self._tmp += 1
        mgr = f"_pilot_w_mgr{n}"
        ok = f"_pilot_w_ok{n}"
        excname = f"_pilot_w_exc{n}"

        def name(ident: str, ctx: ast.expr_context) -> ast.Name:
            return ast.Name(id=ident, ctx=ctx)

        def exit_call(exc_arg: ast.expr) -> ast.YieldFrom:
            return ast.YieldFrom(value=ast.Call(
                func=name("_pilot_w_exit", ast.Load()),
                args=[name(mgr, ast.Load()), exc_arg], keywords=[]))

        stmts: list[ast.stmt] = [
            ast.Assign(targets=[name(mgr, ast.Store())],
                       value=item.context_expr),
        ]
        enter = ast.YieldFrom(value=ast.Call(
            func=name("_pilot_w_enter", ast.Load()),
            args=[name(mgr, ast.Load())], keywords=[]))
        if item.optional_vars is not None:
            stmts.append(ast.Assign(targets=[item.optional_vars],
                                    value=enter))
        else:
            stmts.append(ast.Expr(value=enter))
        stmts.append(ast.Assign(targets=[name(ok, ast.Store())],
                                value=ast.Constant(value=True)))
        handler = ast.ExceptHandler(
            type=name("BaseException", ast.Load()),
            name=excname,
            body=[
                ast.Assign(targets=[name(ok, ast.Store())],
                           value=ast.Constant(value=False)),
                ast.If(
                    test=ast.UnaryOp(
                        op=ast.Not(),
                        operand=exit_call(name(excname, ast.Load()))),
                    body=[ast.Raise()],
                    orelse=[]),
            ])
        inner = ast.Try(body=body, handlers=[handler], orelse=[],
                        finalbody=[])
        outer = ast.Try(
            body=[inner], handlers=[], orelse=[],
            finalbody=[ast.If(test=name(ok, ast.Load()),
                              body=[ast.Expr(value=exit_call(
                                  ast.Constant(value=None)))],
                              orelse=[])])
        stmts.append(outer)
        for s in stmts:
            ast.copy_location(s, src)
        return stmts


# ---------------------------------------------------------------------------
# Compilation and caching.
# ---------------------------------------------------------------------------

_WOVEN_BY_CODE: dict[types.CodeType, Callable[..., Any]] = {}
_FACTORY_BY_CODE: dict[types.CodeType, Callable[..., Any]] = {}

#: A source span: (line, column, end line, end column), with columns in
#: UTF-8 bytes as the ``ast`` module counts them.
_Span = tuple[int, int, int, int]

#: Per file: the linecache lines it was indexed from, the (first, last)
#: lines of every ``def`` by (name, first line), and the spans of every
#: lambda and of its body by the lambda's first line.  Only spans are
#: kept: the module's AST is far larger than what a run weaves of it.
_SOURCE_INDEX: dict[str, tuple[list[str], dict[tuple[str, int], tuple[int, int]],
                               dict[int, list[tuple[_Span, _Span]]]]] = {}

#: Name the woven twin of a lambda is compiled under; its code object
#: is renamed back to ``<lambda>`` so frames and call sites read as the
#: original's.
_LAMBDA_DEF = "_pilot_w_lambda"


def _install_helpers(g: dict[str, Any]) -> None:
    g["_pilot_w_call"] = w_call
    g["_pilot_w_mark"] = _mark
    g["_pilot_w_enter"] = _w_enter
    g["_pilot_w_exit"] = _w_exit


def _span(node: Any) -> _Span:
    return (node.lineno, node.col_offset, node.end_lineno, node.end_col_offset)


def _source_index(fn: types.FunctionType):
    """The (cached) index of the file ``fn`` was defined in.

    One parse of the whole module yields every definition's real line
    and column numbers, so a lambda defined inside woven code (whose
    code object carries those numbers) is found the same way as one
    defined anywhere else.
    """
    filename = fn.__code__.co_filename
    linecache.checkcache(filename)
    lines = linecache.getlines(filename, fn.__globals__)
    cached = _SOURCE_INDEX.get(filename)
    if cached is not None and cached[0] is lines:
        return cached
    if not lines:
        raise WeaveError(
            f"cannot weave {fn.__qualname__}: source of {filename} unavailable")
    try:
        tree = ast.parse("".join(lines), filename)
    except SyntaxError as exc:
        raise WeaveError(f"cannot weave {fn.__qualname__}: {exc}") from exc
    defs: dict[tuple[str, int], tuple[int, int]] = {}
    lambdas: dict[int, list[tuple[_Span, _Span]]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            # co_firstlineno of a decorated def is its first decorator's.
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            defs[(node.name, first)] = (first, node.end_lineno or first)
        elif isinstance(node, ast.Lambda):
            lambdas.setdefault(node.lineno, []).append(
                (_span(node), _span(node.body)))
    cached = _SOURCE_INDEX[filename] = (lines, defs, lambdas)
    return cached


def _find_lambda(candidates: list[tuple[_Span, _Span]],
                 code: types.CodeType) -> _Span | None:
    """The span of the lambda on ``code``'s first line that holds ``code``.

    The body's instruction positions (``co_positions``) all fall inside
    the body of exactly the lambdas that enclose it; the innermost of
    those is the one compiled to ``code``.
    """
    positions = getattr(code, "co_positions", None)
    spans = [((line, col), (end_line, end_col))
             for line, end_line, col, end_col in (positions() if positions
                                                  else ())
             if None not in (line, end_line, col, end_col)
             and (line, col) != (end_line, end_col)]
    if not spans:  # no column information: only an unambiguous line works
        return candidates[0][0] if len(candidates) == 1 else None
    lo = min(start for start, _ in spans)
    hi = max(end for _, end in spans)
    inside = [(lam, body) for lam, body in candidates
              if body[:2] <= lo and hi <= body[2:]]
    if not inside:
        return None
    innermost = max(inside, key=lambda c: c[1][:2])  # starts last
    return innermost[0]


def _parse_def(lines: list[str], first: int, last: int) -> ast.FunctionDef:
    """Re-parse the ``def`` on lines ``first..last`` in place: an indented
    block is parsed under ``if 1:`` so its columns stay the file's."""
    block = "".join(lines[first - 1:last])
    indented = block[0] in " \t"
    tree = ast.parse("if 1:\n" + block if indented else block)
    node = tree.body[0].body[0] if indented else tree.body[0]  # type: ignore[attr-defined]
    ast.increment_lineno(node, first - 1 - indented)
    return node


def _parse_lambda(lines: list[str], span: _Span) -> ast.Lambda:
    """Re-parse the lambda at ``span`` in place: its first line is padded
    to its column inside parentheses, so every position stays the file's."""
    line, col, end_line, end_col = span
    raw = [text.encode() for text in lines[line - 1:end_line]]
    raw[-1] = raw[-1][:end_col]
    raw[0] = b" " * col + raw[0][col:]
    node = ast.parse(b"(\n" + b"".join(raw) + b"\n)", mode="eval").body
    ast.increment_lineno(node, line - 2)
    return node  # type: ignore[return-value]


def _renamed(code: types.CodeType, old: str, new: str) -> types.CodeType:
    """``code`` with every (nested) code object named ``old`` renamed."""
    consts = tuple(_renamed(c, old, new) if isinstance(c, types.CodeType)
                   else c for c in code.co_consts)
    name = new if code.co_name == old else code.co_name
    return code.replace(co_name=name, co_consts=consts)


def _compile_woven(fn: types.FunctionType, *, factory: bool) -> Any:
    code = fn.__code__
    lines, defs, lambdas = _source_index(fn)
    fndef: ast.FunctionDef | None = None
    is_lambda = code.co_name == "<lambda>"
    if is_lambda:
        span = _find_lambda(lambdas.get(code.co_firstlineno, []), code)
        if span is not None:
            lam = _parse_lambda(lines, span)
            body = ast.Return(value=lam.body)
            ast.copy_location(body, lam.body)
            fndef = ast.FunctionDef(name=_LAMBDA_DEF, args=lam.args,
                                    body=[body], decorator_list=[],
                                    returns=None)
            ast.copy_location(fndef, lam)
    else:
        lines_span = defs.get((code.co_name, code.co_firstlineno))
        if lines_span is not None:
            fndef = _parse_def(lines, *lines_span)
    if fndef is None:
        raise WeaveError(
            f"cannot weave {fn.__qualname__}: no {code.co_name!r} "
            f"definition found at {code.co_filename}:{code.co_firstlineno}")
    if _nonlocal_names(fndef) & set(code.co_freevars):
        raise WeaveError(
            f"cannot weave {fn.__qualname__}: it rebinds enclosing-scope "
            "variables via 'nonlocal', which the weave's closure copying "
            "cannot preserve; restructure to return the value or mutate "
            "a shared object instead")
    fndef.decorator_list = []
    # Defaults were evaluated where ``fn`` was defined, possibly from
    # names only that scope sees; the twin takes ``fn``'s values instead
    # (woven_twin copies __defaults__/__kwdefaults__).
    fndef.args.defaults = []
    fndef.args.kw_defaults = [None] * len(fndef.args.kwonlyargs)
    fndef.body = _Weaver().transform_body(fndef.body)
    # A body with no call expressions gains no yields; this dead guard
    # still marks the code object as a generator so w_call can always
    # ``yield from`` the twin.
    fndef.body.append(ast.If(
        test=ast.Constant(value=False),
        body=[ast.Expr(value=ast.Yield(value=None))],
        orelse=[]))
    if factory:
        freevars = code.co_freevars
        wrapper = ast.FunctionDef(
            name="__pilot_weave_factory__",
            args=ast.arguments(
                posonlyargs=[], args=[ast.arg(arg=v) for v in freevars],
                kwonlyargs=[], kw_defaults=[], defaults=[]),
            body=[fndef,
                  ast.Return(value=ast.Name(id=fndef.name, ctx=ast.Load()))],
            decorator_list=[],
        )
        out_mod = ast.Module(body=[wrapper], type_ignores=[])
    else:
        out_mod = ast.Module(body=[fndef], type_ignores=[])
    ast.fix_missing_locations(out_mod)
    out_code = compile(out_mod, code.co_filename, "exec")
    if is_lambda:
        out_code = _renamed(out_code, _LAMBDA_DEF, "<lambda>")
    g = fn.__globals__
    _install_helpers(g)
    ns: dict[str, Any] = {}
    exec(out_code, g, ns)
    return ns["__pilot_weave_factory__" if factory else fndef.name]


def woven_twin(fn: types.FunctionType) -> Callable[..., Any]:
    """Return (building and caching if needed) the woven generator twin."""
    cached = getattr(fn, "__pilot_woven_twin__", None)
    if cached is not None:
        return cached
    code = fn.__code__
    if code.co_freevars:
        fac = _FACTORY_BY_CODE.get(code)
        if fac is None:
            fac = _compile_woven(fn, factory=True)
            _FACTORY_BY_CODE[code] = fac
        if fn.__closure__ is None or len(fn.__closure__) != len(code.co_freevars):
            raise WeaveError(
                f"cannot weave {fn.__qualname__}: closure unavailable")
        try:
            cells = [c.cell_contents for c in fn.__closure__]
        except ValueError as exc:
            raise WeaveError(
                f"cannot weave {fn.__qualname__}: empty closure cell "
                "(self-referential closure defined but not yet bound)"
            ) from exc
        twin = fac(*cells)
    else:
        twin = _WOVEN_BY_CODE.get(code)
        if twin is None:
            twin = _compile_woven(fn, factory=False)
            _WOVEN_BY_CODE[code] = twin
    # The rewrite wraps every nested def via _pilot_w_mark; the top-level
    # twin itself must expose the original defaults and identity.
    twin.__defaults__ = fn.__defaults__
    twin.__kwdefaults__ = fn.__kwdefaults__
    twin.__qualname__ = fn.__qualname__
    try:
        fn.__pilot_woven_twin__ = twin  # type: ignore[attr-defined]
    except (AttributeError, TypeError):  # pragma: no cover
        pass
    return twin
