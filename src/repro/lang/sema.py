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

__all__ = ["GlobalSym", "RegionInfo", "SemaInfo", "analyze"]

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
    #: What the body holds, gathered in one walk (:func:`_region_facts`):
    #: names it declares (outside a nested region), names it reads and
    #: assigns, its ``omp for`` loop variables and ``omp for`` nodes.
    declared: Set[str] = field(default_factory=set)
    reads: Set[str] = field(default_factory=set)
    writes: Set[str] = field(default_factory=set)
    for_vars: Set[str] = field(default_factory=set)
    fors: List[A.OmpFor] = field(default_factory=list)


@dataclass
class SemaInfo:
    """Analysis result: symbols plus per-region classification."""
    globals: Dict[str, GlobalSym]
    funcs: Dict[str, A.FuncDef]
    regions: List[RegionInfo]
    #: ``id()`` of each region's OmpParallel node -> its record.
    region_of: Dict[int, RegionInfo] = field(default_factory=dict)


# ------------------------------------------------------------------ walkers

def _body(n):
    return [n.body]


#: A node's children in source order, by class.  Leaves (Num, Var,
#: Break, Continue, OmpBarrier, OmpFlush, OmpSlipstream) have no entry.
_CHILDREN = {
    A.Program: lambda n: n.globals + n.funcs,
    A.FuncDef: _body,
    A.Block: lambda n: n.stmts,
    A.VarDecl: lambda n: () if n.init is None else (n.init,),
    A.Assign: lambda n: (n.target, n.value),
    A.If: lambda n: ((n.cond, n.then) if n.orelse is None
                     else (n.cond, n.then, n.orelse)),
    A.For: lambda n: [p for p in (n.init, n.cond, n.step, n.body)
                      if p is not None],
    A.While: lambda n: (n.cond, n.body),
    A.Return: lambda n: () if n.value is None else (n.value,),
    A.ExprStmt: lambda n: (n.expr,),
    A.Print: lambda n: n.args,
    A.Index: lambda n: n.indices,
    A.BinOp: lambda n: (n.lhs, n.rhs),
    A.UnOp: lambda n: (n.operand,),
    A.Call: lambda n: n.args,
    A.OmpParallel: _body,
    A.OmpFor: lambda n: (n.loop,),
    A.OmpSingle: _body,
    A.OmpMaster: _body,
    A.OmpCritical: _body,
    A.OmpSection: _body,
    A.OmpAtomic: lambda n: (n.stmt,),
    A.OmpSections: lambda n: n.sections,
}


def _children(node: A.Node):
    kids = _CHILDREN.get(type(node))
    return () if kids is None else kids(node)


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
    # Walked in source order with a stack, not recursion (an expression
    # chain ``a + b + ...`` nests one level a term, and its length has
    # no bound): declarations enter ``scope`` before the uses after them
    # are checked.
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
        stack.extend(reversed(_children(node)))


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

    _region_facts(region.body, ri)
    reduction_names = {n for r in region.reductions for n in r.names}
    # omp-for loop variables are automatically private (OpenMP rule).
    ri.private |= ri.for_vars
    clause_names |= ri.private
    # Sorted: the first error names the same local whatever the hash seed.
    for name in sorted(ri.reads):
        if name in ri.declared or name in clause_names or \
           name in reduction_names or name in INTRINSICS or \
           name in info.funcs:
            continue
        if name in info.globals:
            ri.shared_refs.add(name)
        elif name in scope:
            ri.captured.add(name)
            if name in ri.writes:
                raise SemanticError(
                    f"{name!r} is a captured enclosing local and may not "
                    f"be written inside the parallel region (add it to a "
                    f"private() clause or make it file-scope)", region.line)
    for n in ri.fors:
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
    info.region_of[id(region)] = ri
    # Validate the region body in its own scope.
    inner = set(scope) | clause_names | reduction_names
    _check_stmt(region.body, f, info, inner, in_region=True)


def _region_facts(body: A.Node, ri: RegionInfo) -> None:
    """Fill ``ri``'s body facts in one walk in source order: the names
    declared (not under a nested region, which has its own scope), read
    (every ``Var`` and ``Index``, assignment targets included) and
    assigned, the ``omp for`` loop variables and ``omp for`` nodes."""
    declared, reads, writes = ri.declared, ri.reads, ri.writes
    stack = [(body, False)]                 # (node, inside a nested region)
    while stack:
        n, nested = stack.pop()
        t = type(n)
        if t is A.Var or t is A.Index:
            reads.add(n.name)
        elif t is A.Assign:
            if isinstance(n.target, (A.Var, A.Index)):
                writes.add(n.target.name)
        elif t is A.VarDecl:
            if not nested:
                declared.add(n.name)
        elif t is A.OmpFor:
            ri.fors.append(n)
            init = n.loop.init
            if isinstance(init, A.Assign) and isinstance(init.target, A.Var):
                ri.for_vars.add(init.target.name)
        elif t is A.OmpParallel:
            nested = True
        kids = _CHILDREN.get(t)
        if kids is not None:
            stack.extend((kid, nested) for kid in reversed(kids(n)))
