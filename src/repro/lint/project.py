"""Whole-program context: per-module summaries and the project graph.

The per-file phase (:mod:`repro.lint.engine` running the CG001–CG009
rules) sees one AST at a time, so it structurally cannot catch an
unseeded RNG draw laundered through two helper calls into ``serve/``,
or a ``set`` iteration whose order reaches the fleet digest via a
callee in another module.  The whole-program phase closes that gap in
two steps:

1. Each parsed module is distilled into a :class:`ModuleSummary` — its
   imports, top-level definitions, a conservative per-function call
   list, and the *determinism facts* the CG010–CG013 rules consume
   (global-RNG draws, wall-clock reads, unordered-collection
   iterations, event dataclasses, digest definitions).

2. A :class:`ProjectContext` aggregates every summary into the module
   graph and a project-wide function index, over which
   :mod:`repro.lint.dataflow` runs taint/reachability queries.

A :class:`ProjectRule` is the whole-program analogue of
:class:`~repro.lint.registry.Rule`: it is constructed once per run with
the :class:`ProjectContext` and reports findings against any module,
honouring that module's pragma table.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Optional, Set, Tuple

from repro.lint.findings import Finding
from repro.lint.pragmas import Suppressions

__all__ = [
    "CallSite",
    "TaintSite",
    "UnorderedLoop",
    "EventClass",
    "FunctionSummary",
    "ModuleSummary",
    "ProjectContext",
    "ProjectRule",
    "module_name_from_parts",
    "summarize_module",
]

#: Pseudo-function holding a module's top-level statements.
MODULE_BODY = "<module>"

#: Call terminals too generic to resolve by name across the project —
#: edges through these would connect everything to everything.
_CALL_STOPLIST = frozenset({
    "append", "extend", "add", "remove", "discard", "pop", "popleft",
    "clear", "copy", "update", "get", "setdefault", "items", "keys",
    "values", "index", "count", "sort", "reverse", "join", "split",
    "strip", "format", "encode", "decode", "startswith", "endswith",
    "replace", "lower", "upper", "len", "print", "range", "int",
    "float", "str", "bool", "list", "dict", "set", "tuple", "frozenset",
    "sorted", "reversed", "min", "max", "sum", "abs", "round", "zip",
    "map", "filter", "enumerate", "isinstance", "issubclass", "hasattr",
    "getattr", "setattr", "repr", "type", "next", "iter", "super",
    "ValueError", "TypeError", "KeyError", "RuntimeError", "Exception",
})

#: Wrapping one of these around an iterable makes its order irrelevant
#: (``sorted``) or its consumption order-insensitive (aggregations).
_ORDER_SANITIZERS = frozenset({
    "sorted", "sum", "min", "max", "any", "all", "len",
    "set", "frozenset", "Counter",
})

_WALL_CLOCK_FNS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns",
    "localtime", "gmtime", "ctime",
})
_DATETIME_CLASS_FNS = frozenset({"now", "utcnow", "today"})

_NP_RANDOM_ALLOWED = frozenset({
    "default_rng", "Generator", "BitGenerator", "SeedSequence",
    "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64",
})
_STDLIB_RANDOM_ALLOWED = frozenset({"Random", "SystemRandom"})

#: Method terminals that schedule simulation-engine events when called
#: on an object (``engine.at/after/every``) — the ``engine_emit`` seed.
_ENGINE_EMIT_METHODS = frozenset({"at", "after", "every"})

#: Method terminals that record into the replay digest / telemetry
#: plane — the ``digest_write`` seed.
_DIGEST_WRITE_METHODS = frozenset({
    "record", "record_second", "record_fault_event", "record_gateway_event",
})

#: Call terminals that perform file or console I/O — the ``io`` seed.
_IO_TERMINALS = frozenset({
    "open", "print", "input",
    "write_text", "read_text", "write_bytes", "read_bytes",
})

#: Container-mutating method terminals: calling one on a module- or
#: class-level name is a ``global_write``.
_MUTATOR_METHODS = frozenset({
    "append", "appendleft", "extend", "add", "insert", "update",
    "setdefault", "pop", "popleft", "popitem", "remove", "discard",
    "clear", "sort", "reverse",
})


def module_name_from_parts(rel_parts: Tuple[str, ...]) -> str:
    """Dotted module name relative to the ``repro`` package root.

    ``("serve", "gateway.py")`` → ``"serve.gateway"``;
    ``("serve", "__init__.py")`` → ``"serve"``; a bare ``("cli.py",)``
    → ``"cli"``.
    """
    parts = list(rel_parts)
    if parts and parts[-1].endswith(".py"):
        stem = parts[-1][:-3]
        parts = parts[:-1] if stem == "__init__" else parts[:-1] + [stem]
    return ".".join(parts) if parts else "<root>"


@dataclass(frozen=True)
class CallSite:
    """One call expression: the terminal name and where it happens.

    ``on_self`` marks ``self.name(...)`` calls — the call graph resolves
    those against the enclosing class first instead of every project
    function sharing the terminal name.
    """

    name: str
    line: int
    on_self: bool = False


@dataclass(frozen=True)
class TaintSite:
    """A determinism hazard inside a function (RNG draw / clock read)."""

    line: int
    col: int
    desc: str


@dataclass(frozen=True)
class UnorderedLoop:
    """One iteration over an unordered (or order-fragile) collection."""

    line: int
    col: int
    kind: str  # "set" | "dict"
    desc: str


@dataclass(frozen=True)
class EventClass:
    """An event dataclass definition (``class FooEvent`` + ``@dataclass``)."""

    name: str
    line: int


@dataclass
class FunctionSummary:
    """What one function does, as far as the project rules care.

    The effect facts (``global_writes``, ``engine_emits``,
    ``digest_writes``, ``io_sites``, together with ``rng_draws`` and
    ``clock_reads``) seed the per-effect fixpoint in
    :mod:`repro.lint.effects`; ``declared_effects``/``hot_path`` mirror
    a static ``@effects(...)`` decoration
    (:mod:`repro.util.effects`).
    """

    qualname: str
    line: int
    calls: List[CallSite] = field(default_factory=list)
    rng_draws: List[TaintSite] = field(default_factory=list)
    #: draws from a *seeded, named* stream (``rng.normal(...)``,
    #: ``self._rng.choice(...)``) — fine for CG011, but still the
    #: ``rng`` effect for the effect system.
    stream_draws: List[TaintSite] = field(default_factory=list)
    clock_reads: List[TaintSite] = field(default_factory=list)
    unordered_loops: List[UnorderedLoop] = field(default_factory=list)
    global_writes: List[TaintSite] = field(default_factory=list)
    engine_emits: List[TaintSite] = field(default_factory=list)
    digest_writes: List[TaintSite] = field(default_factory=list)
    io_sites: List[TaintSite] = field(default_factory=list)
    #: ``None`` = undeclared; otherwise the sorted declared effect names.
    declared_effects: Optional[List[str]] = None
    hot_path: bool = False
    #: ``@shard_entry("<group>")`` decoration, statically read.
    shard_entry: Optional[str] = None


@dataclass
class ModuleSummary:
    """One module's contribution to the whole-program analysis."""

    module: str
    path: str
    rel_parts: Tuple[str, ...]
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    imported_modules: Set[str] = field(default_factory=set)
    #: imported module -> first line it is imported on (for findings).
    import_lines: Dict[str, int] = field(default_factory=dict)
    #: imports that only exist under ``if TYPE_CHECKING:`` — erased at
    #: runtime, so exempt from the layering rule (CG017).
    type_only_imports: Set[str] = field(default_factory=set)
    event_classes: List[EventClass] = field(default_factory=list)
    event_constructions: Set[str] = field(default_factory=set)
    defines_digest: bool = False
    suppressions: Suppressions = field(default_factory=Suppressions)

    @property
    def package(self) -> str:
        """Top-level subpackage the module lives in (``""`` at root)."""
        return self.rel_parts[0] if len(self.rel_parts) > 1 else ""


def _dotted(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _ImportTable:
    """Module-level import aliases relevant to RNG/clock detection."""

    def __init__(self, tree: ast.Module):
        self.numpy: Set[str] = set()
        self.np_random: Set[str] = set()
        self.stdlib_random: Set[str] = set()
        self.time: Set[str] = set()
        self.datetime_mod: Set[str] = set()
        self.datetime_cls: Set[str] = set()
        #: bare names from-imported from the random modules that draw
        #: from global state when called.
        self.random_fns: Set[str] = set()
        #: bare names that are wall-clock reads when called.
        self.clock_fns: Set[str] = set()
        #: bare names bound to numpy's default_rng / repro's as_rng.
        self.rng_ctors: Set[str] = set()
        self.modules: Set[str] = set()
        #: module -> first line it is imported on.
        self.module_lines: Dict[str, int] = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for target in (
                    [alias.name for alias in node.names]
                    if isinstance(node, ast.Import)
                    else ([node.module] if node.module else [])
                ):
                    if target not in self.module_lines:
                        self.module_lines[target] = node.lineno
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.modules.add(alias.name)
                    bound = alias.asname or alias.name.split(".")[0]
                    if alias.name == "numpy" or alias.name.startswith("numpy."):
                        if alias.name == "numpy.random" and alias.asname:
                            self.np_random.add(alias.asname)
                        else:
                            self.numpy.add(bound)
                    elif alias.name == "random":
                        self.stdlib_random.add(bound)
                    elif alias.name == "time":
                        self.time.add(alias.asname or "time")
                    elif alias.name == "datetime":
                        self.datetime_mod.add(alias.asname or "datetime")
            elif isinstance(node, ast.ImportFrom):
                if node.module:
                    self.modules.add(node.module)
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if node.module == "random":
                        if alias.name not in _STDLIB_RANDOM_ALLOWED:
                            self.random_fns.add(bound)
                    elif node.module == "numpy.random":
                        if alias.name == "default_rng":
                            self.rng_ctors.add(bound)
                        elif alias.name not in _NP_RANDOM_ALLOWED:
                            self.random_fns.add(bound)
                    elif node.module == "numpy" and alias.name == "random":
                        self.np_random.add(bound)
                    elif node.module == "time":
                        if alias.name in _WALL_CLOCK_FNS:
                            self.clock_fns.add(bound)
                    elif node.module == "datetime":
                        if alias.name in ("datetime", "date"):
                            self.datetime_cls.add(bound)
                    elif node.module is not None and (
                        node.module == "repro.util.rng"
                        or node.module.endswith("util.rng")
                    ):
                        if alias.name == "as_rng":
                            self.rng_ctors.add(bound)


def _type_only_imports(tree: ast.Module) -> Set[str]:
    """Modules imported *only* under a top-level ``if TYPE_CHECKING:``."""

    def collect(stmts: List[ast.stmt]) -> Set[str]:
        found: Set[str] = set()
        for stmt in stmts:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Import):
                    found.update(alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.module:
                    found.add(node.module)
        return found

    guarded: Set[str] = set()
    runtime: Set[str] = set()
    for stmt in tree.body:
        test = getattr(stmt, "test", None)
        is_guard = isinstance(stmt, ast.If) and (
            (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING")
            or (isinstance(test, ast.Attribute)
                and test.attr == "TYPE_CHECKING")
        )
        if is_guard:
            guarded |= collect(stmt.body)
        else:
            runtime |= collect([stmt])
    return guarded - runtime


def _module_level_names(tree: ast.Module) -> Set[str]:
    """Names bound by assignments in the module body (shared state)."""
    names: Set[str] = set()
    for stmt in tree.body:
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif isinstance(target, ast.Tuple):
                names.update(e.id for e in target.elts
                             if isinstance(e, ast.Name))
    return names


def _root_name(node: ast.expr) -> Optional[str]:
    """The base ``Name`` of an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


class _Summarizer(ast.NodeVisitor):
    """One pass over a module AST producing its :class:`ModuleSummary`."""

    def __init__(self, summary: ModuleSummary, imports: _ImportTable,
                 tree: ast.Module):
        self.summary = summary
        self.imports = imports
        self._class_stack: List[str] = []
        self._fn_stack: List[FunctionSummary] = []
        body = FunctionSummary(qualname=MODULE_BODY, line=1)
        summary.functions[MODULE_BODY] = body
        self._module_body = body
        #: AST node ids whose iteration order was sanitised by a wrapper
        #: (``sorted(x.items())``) — skipped by the unordered check.
        self._sanitized: Set[int] = set()
        #: per-function map of local names to "set"/"dict" inferred from
        #: simple assignments.
        self._local_kinds: List[Dict[str, str]] = [{}]
        #: names bound at module level — a store through one of these
        #: from inside a function is shared-state mutation.
        self._module_names: Set[str] = _module_level_names(tree)
        #: classes defined anywhere in the module (``Cls.attr = v``).
        self._class_names: Set[str] = {
            node.name for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
        }

    # -- scope bookkeeping ---------------------------------------------
    @property
    def _fn(self) -> FunctionSummary:
        return self._fn_stack[-1] if self._fn_stack else self._module_body

    def _enter_function(self, node: ast.AST, name: str) -> None:
        qual = ".".join(self._class_stack + [name])
        fn = FunctionSummary(qualname=qual, line=node.lineno)
        self.summary.functions[qual] = fn
        self._fn_stack.append(fn)
        self._local_kinds.append({})

    def _leave_function(self) -> None:
        self._fn_stack.pop()
        self._local_kinds.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._handle_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._handle_function(node)

    @staticmethod
    def _effects_decoration(
        node: ast.AST,
    ) -> Tuple[bool, Optional[List[str]], bool]:
        """Parse a decorator: ``(is_effects, declared_names, hot_path)``.

        Matches ``@effects(...)`` by terminal name — the decorator is
        designed to be introspected statically, so the analyzer never
        imports the decorated module.
        """
        if not (isinstance(node, ast.Call)
                and (_dotted(node.func) or "").split(".")[-1] == "effects"):
            return False, None, False
        declared = sorted({
            arg.value for arg in node.args
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
        })
        hot = any(
            kw.arg == "hot_path"
            and isinstance(kw.value, ast.Constant) and bool(kw.value.value)
            for kw in node.keywords
        )
        return True, declared, hot

    @staticmethod
    def _shard_group(node: ast.AST) -> Optional[str]:
        """The group of a ``@shard_entry("g")`` decorator, else ``None``.

        Matched by terminal name, like ``@effects(...)`` — the analyzer
        never imports the module.
        """
        if not (isinstance(node, ast.Call)
                and (_dotted(node.func) or "").split(".")[-1]
                == "shard_entry"):
            return None
        return next(
            (arg.value for arg in node.args
             if isinstance(arg, ast.Constant)
             and isinstance(arg.value, str)),
            None,
        ) or next(
            (kw.value.value for kw in node.keywords
             if kw.arg == "group"
             and isinstance(kw.value, ast.Constant)
             and isinstance(kw.value.value, str)),
            None,
        )

    def _handle_function(self, node: ast.AST) -> None:
        name = node.name  # type: ignore[attr-defined]
        if name == "digest":
            self.summary.defines_digest = True
        declared: Optional[List[str]] = None
        hot = False
        shard_group: Optional[str] = None
        for dec in node.decorator_list:  # type: ignore[attr-defined]
            is_effects, names, dec_hot = self._effects_decoration(dec)
            if is_effects:
                declared, hot = names, hot or dec_hot
                continue
            group = self._shard_group(dec)
            if group is not None:
                shard_group = group
            else:
                # Decorators execute at import time: attribute their
                # calls (e.g. ``@register``) to the enclosing scope, not
                # to the function they decorate.
                self.visit(dec)
        self._enter_function(node, name)
        self._fn.declared_effects = declared
        self._fn.hot_path = hot
        self._fn.shard_entry = shard_group
        self.visit(node.args)  # type: ignore[attr-defined]
        for stmt in node.body:  # type: ignore[attr-defined]
            self.visit(stmt)
        self._leave_function()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if node.name.endswith("Event") and any(
            _dotted(d.func if isinstance(d, ast.Call) else d) in
            ("dataclass", "dataclasses.dataclass")
            for d in node.decorator_list
        ):
            self.summary.event_classes.append(
                EventClass(name=node.name, line=node.lineno)
            )
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    # -- unordered-collection iteration --------------------------------
    @staticmethod
    def _is_set_construct(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            callee = _dotted(node.func)
            return callee in ("set", "frozenset")
        return False

    @staticmethod
    def _is_dict_construct(node: ast.expr) -> bool:
        if isinstance(node, (ast.Dict, ast.DictComp)):
            return True
        if isinstance(node, ast.Call):
            return _dotted(node.func) == "dict"
        return False

    def _classify_iter(self, node: ast.expr) -> Optional[Tuple[str, str]]:
        """``(kind, description)`` when ``node`` iterates unordered."""
        if id(node) in self._sanitized:
            return None
        if self._is_set_construct(node):
            return "set", "iteration over a set"
        if (isinstance(node, ast.Call) and not node.args
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("items", "keys", "values")):
            owner = _dotted(node.func.value) or "<dict>"
            return "dict", f"un-sorted iteration over {owner}.{node.func.attr}()"
        if isinstance(node, ast.Name):
            kind = self._local_kinds[-1].get(node.id)
            if kind == "set":
                return "set", f"iteration over set {node.id!r}"
            if kind == "dict":
                return "dict", f"un-sorted iteration over dict {node.id!r}"
        return None

    def _check_iter(self, node: ast.expr) -> None:
        classified = self._classify_iter(node)
        if classified is not None:
            kind, desc = classified
            self._fn.unordered_loops.append(UnorderedLoop(
                line=node.lineno, col=node.col_offset + 1,
                kind=kind, desc=desc,
            ))

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST) -> None:
        for gen in node.generators:  # type: ignore[attr-defined]
            self._check_iter(gen.iter)
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comprehension(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._visit_comprehension(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comprehension(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comprehension(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            if self._is_set_construct(node.value):
                self._local_kinds[-1][name] = "set"
            elif self._is_dict_construct(node.value):
                self._local_kinds[-1][name] = "dict"
            else:
                self._local_kinds[-1].pop(name, None)
        for target in node.targets:
            self._check_shared_store(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_shared_store(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_shared_store(node.target)
        self.generic_visit(node)

    def visit_Global(self, node: ast.Global) -> None:
        if self._fn_stack:
            for name in node.names:
                self._fn.global_writes.append(TaintSite(
                    line=node.lineno, col=node.col_offset + 1,
                    desc=f"'global {name}' rebinding of module-level state",
                ))
        self.generic_visit(node)

    def _record_global_write(self, node: ast.AST, desc: str) -> None:
        self._fn.global_writes.append(TaintSite(
            line=node.lineno, col=node.col_offset + 1, desc=desc,
        ))

    def _shared_root(self, node: ast.expr) -> Optional[str]:
        """Describe the shared binding an expression's root reaches.

        Returns e.g. ``"module-level '_CACHE'"`` when the chain starts
        at a module-body name, ``"class-level 'Config'"`` when it starts
        at a class defined in this module or at ``cls``; ``None`` for
        locals and ``self``.
        """
        root = _root_name(node)
        if root is None or root == "self":
            return None
        if root == "cls" or root in self._class_names:
            return f"class-level {root!r}"
        if root in self._module_names:
            return f"module-level {root!r}"
        return None

    def _check_shared_store(self, target: ast.expr) -> None:
        # A bare-name target is local rebinding (``global`` covers the
        # shared case); only stores *through* a chain mutate shared
        # state.  Module-body initialisation is definition, not mutation.
        if not self._fn_stack:
            return
        if not isinstance(target, (ast.Attribute, ast.Subscript)):
            return
        shared = self._shared_root(target)
        if shared is not None:
            self._record_global_write(target, f"store into {shared}")

    # -- calls, RNG draws, clock reads ---------------------------------
    def _record_draw(self, node: ast.AST, desc: str) -> None:
        self._fn.rng_draws.append(TaintSite(
            line=node.lineno, col=node.col_offset + 1, desc=desc,
        ))

    def _record_clock(self, node: ast.AST, desc: str) -> None:
        self._fn.clock_reads.append(TaintSite(
            line=node.lineno, col=node.col_offset + 1, desc=desc,
        ))

    def _check_rng(self, node: ast.Call, dotted: str) -> None:
        imp = self.imports
        parts = dotted.split(".")
        fn = parts[-1]
        prefix = ".".join(parts[:-1])
        if (
            (len(parts) == 3 and parts[1] == "random" and parts[0] in imp.numpy)
            or (len(parts) == 2 and prefix in imp.np_random)
        ):
            if fn not in _NP_RANDOM_ALLOWED:
                self._record_draw(node, f"numpy.random.{fn}() (global state)")
            elif fn == "default_rng" and not node.args:
                self._record_draw(node, "default_rng() with no seed (OS entropy)")
        elif len(parts) == 2 and prefix in imp.stdlib_random:
            if fn not in _STDLIB_RANDOM_ALLOWED:
                self._record_draw(node, f"random.{fn}() (global state)")
        elif len(parts) == 1:
            if fn in imp.random_fns:
                self._record_draw(node, f"{fn}() (global random state)")
            elif fn in imp.rng_ctors:
                unseeded = not node.args or (
                    isinstance(node.args[0], ast.Constant)
                    and node.args[0].value is None
                )
                if unseeded and not node.keywords:
                    self._record_draw(node, f"{fn}(None) (OS entropy)")

    def _check_clock(self, node: ast.Call, dotted: str) -> None:
        imp = self.imports
        parts = dotted.split(".")
        fn = parts[-1]
        prefix = ".".join(parts[:-1])
        if prefix in imp.time and fn in _WALL_CLOCK_FNS:
            self._record_clock(node, f"{dotted}() (wall clock)")
        elif prefix in imp.datetime_cls and fn in _DATETIME_CLASS_FNS:
            self._record_clock(node, f"{dotted}() (wall clock)")
        elif (len(parts) == 3 and parts[0] in imp.datetime_mod
              and parts[1] in ("datetime", "date")
              and fn in _DATETIME_CLASS_FNS):
            self._record_clock(node, f"{dotted}() (wall clock)")
        elif len(parts) == 1 and fn in imp.clock_fns:
            self._record_clock(node, f"{fn}() (wall clock)")

    def _check_effect_seeds(self, node: ast.Call, dotted: str,
                            terminal: str) -> None:
        """Record the engine-emit / digest-write / io / mutation facts."""
        site = TaintSite(line=node.lineno, col=node.col_offset + 1,
                         desc=f"{dotted}()")
        is_method = isinstance(node.func, ast.Attribute)
        if is_method and terminal in _ENGINE_EMIT_METHODS:
            self._fn.engine_emits.append(TaintSite(
                site.line, site.col, f"{dotted}() schedules an engine event",
            ))
        if is_method and terminal in _DIGEST_WRITE_METHODS:
            self._fn.digest_writes.append(TaintSite(
                site.line, site.col,
                f"{dotted}() records into the telemetry/digest plane",
            ))
        if terminal in _IO_TERMINALS:
            self._fn.io_sites.append(TaintSite(
                site.line, site.col, f"{dotted}() performs I/O",
            ))
        if (is_method and terminal in _MUTATOR_METHODS
                and self._fn_stack):
            shared = self._shared_root(node.func.value)
            if shared is not None:
                self._record_global_write(
                    node, f"{dotted}() mutates {shared}",
                )
        if is_method:
            receiver = _dotted(node.func.value)
            last = receiver.split(".")[-1] if receiver else ""
            if last in ("rng", "_rng") or last.endswith("_rng"):
                self._fn.stream_draws.append(TaintSite(
                    site.line, site.col,
                    f"{dotted}() draws from a seeded stream",
                ))

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted is not None:
            terminal = dotted.split(".")[-1]
            if terminal in _ORDER_SANITIZERS:
                for arg in node.args:
                    self._sanitized.add(id(arg))
                    # one level deeper: sorted(x.items()) sanitises the
                    # .items() call; sorted(e for q in d.values()) the
                    # generator's iterables.
                    if isinstance(arg, ast.GeneratorExp):
                        for gen in arg.generators:
                            self._sanitized.add(id(gen.iter))
            if terminal not in _CALL_STOPLIST:
                on_self = (
                    isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "self"
                )
                self._fn.calls.append(CallSite(
                    name=terminal, line=node.lineno, on_self=on_self,
                ))
            if terminal.endswith("Event"):
                self.summary.event_constructions.add(terminal)
            self._check_rng(node, dotted)
            self._check_clock(node, dotted)
            self._check_effect_seeds(node, dotted, terminal)
        self.generic_visit(node)


def summarize_module(
    tree: ast.Module,
    *,
    path: str,
    rel_parts: Tuple[str, ...],
    suppressions: Suppressions,
) -> ModuleSummary:
    """Distill one parsed module into its :class:`ModuleSummary`."""
    summary = ModuleSummary(
        module=module_name_from_parts(rel_parts),
        path=path,
        rel_parts=rel_parts,
        suppressions=suppressions,
    )
    imports = _ImportTable(tree)
    summary.imported_modules = set(imports.modules)
    summary.import_lines = dict(imports.module_lines)
    summary.type_only_imports = _type_only_imports(tree)
    _Summarizer(summary, imports, tree).visit(tree)
    return summary


class ProjectContext:
    """Every module summary plus the indexes the project rules query."""

    def __init__(self, modules: Dict[str, ModuleSummary]):
        #: dotted module name -> summary.
        self.modules = modules
        #: terminal function/method name -> node ids defining it, where a
        #: node id is ``"<module>::<qualname>"``.
        self.function_index: Dict[str, List[str]] = {}
        for mod in modules.values():
            for qual in mod.functions:
                terminal = qual.split(".")[-1]
                node_id = f"{mod.module}::{qual}"
                self.function_index.setdefault(terminal, []).append(node_id)

    def function(self, node_id: str) -> FunctionSummary:
        """Look a function summary up by its ``module::qualname`` id."""
        module, qual = node_id.split("::", 1)
        return self.modules[module].functions[qual]

    def module_of(self, node_id: str) -> ModuleSummary:
        """The summary of the module a function id belongs to."""
        return self.modules[node_id.split("::", 1)[0]]

    def functions_in(self, *packages: str) -> List[str]:
        """Function ids of every function under the given subpackages."""
        out: List[str] = []
        for name in sorted(self.modules):
            mod = self.modules[name]
            if mod.package in packages:
                out.extend(f"{name}::{q}" for q in sorted(mod.functions))
        return out

    def reverse_dependencies(self, module: str) -> Set[str]:
        """Modules that (transitively) import ``module``."""
        # Direct importers first, then close transitively.
        importers: Dict[str, Set[str]] = {name: set() for name in self.modules}
        for name, mod in self.modules.items():
            for imported in mod.imported_modules:
                # Import targets may be absolute (repro.serve.slo) or
                # project-relative (serve.slo); normalise both.
                target = imported
                if target.startswith("repro."):
                    target = target[len("repro."):]
                if target in self.modules:
                    importers[target].add(name)
        seen: Set[str] = set()
        frontier = [module]
        while frontier:
            current = frontier.pop()
            for dep in importers.get(current, ()):
                if dep not in seen:
                    seen.add(dep)
                    frontier.append(dep)
        seen.discard(module)
        return seen


class ProjectRule:
    """Base class for whole-program rules (CG010–CG013, CG015–CG018).

    Subclasses set :attr:`rule_id`/:attr:`name`/:attr:`description`,
    are registered with
    :func:`repro.lint.registry.register_project`, and implement
    :meth:`check`, calling :meth:`report` per violation.  Pragma
    suppression uses the *reported module's* pragma table, so a
    ``# lint: disable=CG010`` works exactly like it does for per-file
    rules.
    """

    rule_id: ClassVar[str] = ""
    name: ClassVar[str] = ""
    description: ClassVar[str] = ""

    def __init__(self, project: ProjectContext):
        self.project = project
        self.findings: List[Finding] = []

    def check(self) -> None:
        """Analyse the project; implemented by subclasses."""
        raise NotImplementedError

    def report(self, module: ModuleSummary, line: int, col: int,
               message: str) -> None:
        """Record one finding against ``module`` unless suppressed."""
        if module.suppressions.is_suppressed(self.rule_id, line):
            return
        self.findings.append(Finding(
            path=module.path, line=line, col=col,
            rule_id=self.rule_id, message=message,
        ))
