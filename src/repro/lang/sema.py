"""Semantic analysis: symbol resolution and shared/private classification.

The paper's central observation about OpenMP is that it "requires shared
data to be exposed explicitly to the compiler", which is what lets the
compiler apply slipstream unconditionally.  In SlipC the rule is:

* file-scope variables are **shared** (they live in the contiguous
  shared segment and every access is a simulated coherent memory op);
* function locals and parallel-region locals are **private** (CMP-local,
  charged as plain compute);
* ``private``/``firstprivate`` clauses give a region a private copy of a
  shared variable; ``reduction`` targets must be shared scalars;
* scalars of the enclosing function referenced inside a parallel region
  are captured **by value** at region entry (and may not be written
  inside the region) -- Omni's shared-stack pointer passing replaced by
  copy-in, which is equivalent for the read-only uses OpenMP programs
  make of them and keeps A- and R-streams trivially consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from . import ast as A
from .errors import SemanticError

__all__ = ["GlobalSym", "RegionInfo", "SemaInfo", "analyze",
           "collect_var_reads", "collect_var_writes", "declared_locals"]

INTRINSICS = {
    "sqrt": 1, "fabs": 1, "exp": 1, "log": 1, "pow": 2,
    "min": 2, "max": 2, "mod": 2, "floor": 1,
    "omp_get_thread_num": 0, "omp_get_num_threads": 0, "omp_get_wtime": 0,
    "read_input": 0,
    # Diagnostic / fault-injection intrinsic: 1 on an A-stream, 0 on an
    # R-stream.  Branching on it forces a divergence, which is how the
    # test suite exercises the recovery path deterministically.
    "astream_probe": 0,
}


@dataclass
class GlobalSym:
    """A file-scope (shared) variable's symbol record."""
    name: str
    typ: str
    dims: Tuple[int, ...]
    index: int

    @property
    def is_array(self) -> bool:
        """True for array globals."""
        return bool(self.dims)

    @property
    def size(self) -> int:
        """Element count (1 for scalars)."""
        n = 1
        for d in self.dims:
            n *= d
        return n


@dataclass
class RegionInfo:
    """Classification record for one parallel region."""

    line: int
    func: str
    shared_refs: Set[str] = field(default_factory=set)
    private: Set[str] = field(default_factory=set)
    firstprivate: Set[str] = field(default_factory=set)
    captured: Set[str] = field(default_factory=set)
    reductions: List[A.Reduction] = field(default_factory=list)
    schedules: List[A.Schedule] = field(default_factory=list)


@dataclass
class SemaInfo:
    """Analysis result: symbols plus per-region classification."""
    globals: Dict[str, GlobalSym]
    funcs: Dict[str, A.FuncDef]
    regions: List[RegionInfo]


# ------------------------------------------------------------------ walkers

def _children(node: A.Node):
    if isinstance(node, A.Program):
        yield from node.globals
        yield from node.funcs
    elif isinstance(node, A.FuncDef):
        yield node.body
    elif isinstance(node, A.Block):
        yield from node.stmts
    elif isinstance(node, A.VarDecl):
        if node.init is not None:
            yield node.init
    elif isinstance(node, A.Assign):
        yield node.target
        yield node.value
    elif isinstance(node, A.If):
        yield node.cond
        yield node.then
        if node.orelse is not None:
            yield node.orelse
    elif isinstance(node, A.For):
        for part in (node.init, node.cond, node.step, node.body):
            if part is not None:
                yield part
    elif isinstance(node, A.While):
        yield node.cond
        yield node.body
    elif isinstance(node, A.Return):
        if node.value is not None:
            yield node.value
    elif isinstance(node, A.ExprStmt):
        yield node.expr
    elif isinstance(node, A.Print):
        yield from node.args
    elif isinstance(node, A.Index):
        yield from node.indices
    elif isinstance(node, A.BinOp):
        yield node.lhs
        yield node.rhs
    elif isinstance(node, A.UnOp):
        yield node.operand
    elif isinstance(node, A.Call):
        yield from node.args
    elif isinstance(node, A.OmpParallel):
        yield node.body
    elif isinstance(node, A.OmpFor):
        yield node.loop
    elif isinstance(node, (A.OmpSingle, A.OmpMaster, A.OmpCritical,
                           A.OmpSection)):
        yield node.body
    elif isinstance(node, A.OmpAtomic):
        yield node.stmt
    elif isinstance(node, A.OmpSections):
        yield from node.sections
    # Num, Var, Break, Continue, OmpBarrier, OmpFlush, OmpSlipstream: leaves


def walk(node: A.Node):
    """``node`` and every node under it, in source order.  A loop, not
    recursion: an expression chain ``a + b + ...`` nests one level a
    term, and its length has no bound."""
    stack = [node]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(reversed(list(_children(n))))


def collect_var_reads(node: A.Node) -> Set[str]:
    """All variable/array names referenced under ``node``."""
    names: Set[str] = set()
    for n in walk(node):
        if isinstance(n, (A.Var, A.Index)):
            names.add(n.name)
    return names


def collect_var_writes(node: A.Node) -> Set[str]:
    """Names written (assignment targets) under ``node``."""
    names: Set[str] = set()
    for n in walk(node):
        if isinstance(n, A.Assign) and isinstance(n.target, (A.Var, A.Index)):
            names.add(n.target.name)
    return names


def declared_locals(node: A.Node) -> Set[str]:
    """Names declared by VarDecls under ``node`` (not descending into
    nested parallel regions -- they have their own scopes)."""
    names: Set[str] = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, A.OmpParallel):
            continue
        if isinstance(n, A.VarDecl):
            names.add(n.name)
        stack.extend(_children(n))
    return names


# ------------------------------------------------------------------ analyze

def analyze(program: A.Program) -> SemaInfo:
    """Validate the program and compute classification info."""
    globals_: Dict[str, GlobalSym] = {}
    for i, g in enumerate(program.globals):
        if g.name in globals_:
            raise SemanticError(f"duplicate global {g.name!r}", g.line)
        if g.typ == "void":
            raise SemanticError("void variables are not allowed", g.line)
        globals_[g.name] = GlobalSym(g.name, g.typ, g.dims, i)

    funcs: Dict[str, A.FuncDef] = {}
    for f in program.funcs:
        if f.name in funcs:
            raise SemanticError(f"duplicate function {f.name!r}", f.line)
        if f.name in globals_:
            raise SemanticError(
                f"{f.name!r} is both a global and a function", f.line)
        funcs[f.name] = f
    if "main" not in funcs:
        raise SemanticError("program needs a main() function")

    info = SemaInfo(globals_, funcs, [])
    for f in program.funcs:
        _check_function(f, info)
    return info


def _check_function(f: A.FuncDef, info: SemaInfo,
                    inside_region: bool = False) -> None:
    local_scope = {name for _, name in f.params}
    _check_stmt(f.body, f, info, set(local_scope), inside_region)


def _check_stmt(node: A.Node, f: A.FuncDef, info: SemaInfo,
                scope: Set[str], in_region: bool) -> None:
    # Walked in source order with a stack, like ``walk``: declarations
    # enter ``scope`` before the uses after them are checked.
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, A.VarDecl):
            if node.typ == "void":
                raise SemanticError("void variables are not allowed",
                                    node.line)
            scope.add(node.name)
            continue
        if isinstance(node, A.OmpParallel):
            if in_region:
                raise SemanticError(
                    "nested parallel regions are not supported", node.line)
            _check_region(node, f, info, scope)
            continue
        if isinstance(node, (A.OmpFor, A.OmpSingle, A.OmpMaster,
                             A.OmpCritical, A.OmpAtomic, A.OmpBarrier,
                             A.OmpSections)):
            if not in_region:
                raise SemanticError(
                    f"{type(node).__name__} outside a parallel region",
                    node.line)
        if isinstance(node, A.OmpAtomic):
            tgt = node.stmt.target
            if not isinstance(tgt, (A.Var, A.Index)):
                raise SemanticError("atomic needs an lvalue target",
                                    node.line)
        if isinstance(node, (A.Var, A.Index)):
            if (node.name not in scope and node.name not in info.globals
                    and node.name not in INTRINSICS):
                raise SemanticError(f"undeclared variable {node.name!r}",
                                    node.line)
        if isinstance(node, A.Call):
            if node.name not in info.funcs and node.name not in INTRINSICS:
                raise SemanticError(f"undeclared function {node.name!r}",
                                    node.line)
            if (node.name in INTRINSICS
                    and len(node.args) != INTRINSICS[node.name]):
                raise SemanticError(
                    f"{node.name} takes {INTRINSICS[node.name]} "
                    f"argument(s)", node.line)
        stack.extend(reversed(list(_children(node))))


def _check_region(region: A.OmpParallel, f: A.FuncDef, info: SemaInfo,
                  scope: Set[str]) -> None:
    ri = RegionInfo(line=region.line, func=f.name)
    clause_names = (set(region.private) | set(region.firstprivate)
                    | set(region.shared))
    for red in region.reductions:
        ri.reductions.append(red)
        for name in red.names:
            g = info.globals.get(name)
            if g is None:
                raise SemanticError(
                    f"reduction target {name!r} must be a shared "
                    f"(file-scope) variable", region.line)
            if g.is_array:
                raise SemanticError(
                    f"reduction target {name!r} must be scalar", region.line)
    for name in region.shared:
        if name not in info.globals:
            raise SemanticError(
                f"shared({name}): only file-scope variables are shared "
                f"in this implementation", region.line)
    ri.private = set(region.private)
    ri.firstprivate = set(region.firstprivate)
    for name in ri.firstprivate:
        if name not in info.globals and name not in scope:
            raise SemanticError(f"firstprivate({name}): unknown variable",
                                region.line)

    region_locals = declared_locals(region.body)
    reduction_names = {n for r in region.reductions for n in r.names}
    # omp-for loop variables are automatically private (OpenMP rule).
    for n in walk(region.body):
        if isinstance(n, A.OmpFor):
            init = n.loop.init
            if isinstance(init, A.Assign) and isinstance(init.target, A.Var):
                ri.private.add(init.target.name)
    clause_names |= ri.private
    refs = collect_var_reads(region.body)
    writes = collect_var_writes(region.body)
    for name in refs:
        if name in region_locals or name in clause_names or \
           name in reduction_names or name in INTRINSICS or \
           name in info.funcs:
            continue
        if name in info.globals:
            ri.shared_refs.add(name)
        elif name in scope:
            ri.captured.add(name)
            if name in writes:
                raise SemanticError(
                    f"{name!r} is a captured enclosing local and may not "
                    f"be written inside the parallel region (add it to a "
                    f"private() clause or make it file-scope)", region.line)
    for n in walk(region.body):
        if isinstance(n, A.OmpFor):
            if n.schedule is not None:
                ri.schedules.append(n.schedule)
            for name in n.lastprivate:
                g = info.globals.get(name)
                if g is None or g.is_array:
                    raise SemanticError(
                        f"lastprivate({name}) must name a shared "
                        f"(file-scope) scalar", n.line)
        # The omp-for loop variable is auto-private: writing the captured
        # loop counter is the one sanctioned exception, handled by codegen
        # promoting it to a region-local slot.
    info.regions.append(ri)
    # Validate the region body in its own scope.
    inner = set(scope) | clause_names | reduction_names
    _check_stmt(region.body, f, info, inner, in_region=True)
