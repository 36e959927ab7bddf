"""AST -> bytecode code generation, including OpenMP lowering.

This module performs the transformations the paper attributes to the
(extended) Omni compiler:

* **outlining** -- each ``parallel`` region becomes a separate function;
  the master posts it to the slave pool and calls it itself (Omni's
  master/slave job-dispatch scheme);
* **worksharing lowering** -- ``omp for``/``sections`` become
  ``sched_init``/``sched_next`` runtime-call loops so one image supports
  static, dynamic, guided, and runtime scheduling;
* **construct lowering** -- single/master/critical/atomic/barrier/flush
  map onto runtime calls whose behaviour is role-dependent at run time
  (R-stream vs A-stream), which is what lets a single binary run in
  normal or slipstream mode;
* **slipstream directive lowering** -- ``#pragma omp slipstream``
  becomes a ``slipstream_set`` runtime call (the paper: "map the
  slipstream directive to a library call").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..lang import ast as A
from ..lang.errors import SemanticError
from ..lang.parser import parse
from ..lang.sema import INTRINSICS, SemaInfo, analyze
from .bytecode import Code, CompiledProgram, GlobalDecl

__all__ = ["compile_program", "compile_source"]

_REDUCTION_IDENTITY = {"+": 0.0, "*": 1.0, "max": -1e308, "min": 1e308}

_RT_INTRINSICS = {
    "omp_get_thread_num": "tid",
    "omp_get_num_threads": "nthreads",
    "omp_get_wtime": "wtime",
    "read_input": "io_read",
    "astream_probe": "astream_probe",
}


def compile_source(source: str, optimize: bool = True) -> CompiledProgram:
    """Front door: SlipC source text -> executable image."""
    program = parse(source)
    cp = compile_program(program, optimize=optimize)
    cp.source = source
    return cp


def compile_program(program: A.Program,
                    optimize: bool = True) -> CompiledProgram:
    """Compile a parsed AST into an executable image."""
    sema = analyze(program)
    pc = _ProgramCompiler(program, sema)
    cp = pc.run()
    if optimize:
        from .optimize import optimize_program
        optimize_program(cp)
    # Generated code: emit the per-function Python source now so it is
    # part of the image, whichever engine the VMs that run it use.
    # Imported late -- the interp package imports this one.
    from ..interp.compile import attach_generated
    attach_generated(cp)
    return cp


class _ProgramCompiler:
    def __init__(self, program: A.Program, sema: SemaInfo):
        self.program = program
        self.sema = sema
        self.globals: List[GlobalDecl] = []
        self.gindex: Dict[str, int] = {}
        self.funcs: List[Code] = []
        self.func_index: Dict[str, int] = {}
        self.sites: Dict[int, str] = {}
        self._site = 0
        self._crit_names: Dict[str, int] = {}
        self._region_count = 0

    def run(self) -> CompiledProgram:
        for i, g in enumerate(self.program.globals):
            init = None
            if g.init is not None:
                init = _const_eval(g.init)
            self.globals.append(GlobalDecl(g.name, g.typ, g.dims, init, i))
            self.gindex[g.name] = i
        # Reserve function indices first so mutual recursion works.
        for f in self.program.funcs:
            self.func_index[f.name] = len(self.funcs)
            self.funcs.append(Code(f.name, [p for _, p in f.params],
                                   line=f.line))
        for f in self.program.funcs:
            fc = _FuncCompiler(self, self.funcs[self.func_index[f.name]])
            fc.compile_function(f)
        return CompiledProgram(
            self.globals, self.funcs, self.func_index,
            self.func_index["main"], self.sites)

    # ---------------------------------------------------------------- sites

    def new_site(self, label: str) -> int:
        self._site += 1
        self.sites[self._site] = label
        return self._site

    def critical_id(self, name: str) -> int:
        if name not in self._crit_names:
            self._crit_names[name] = len(self._crit_names)
        return self._crit_names[name]

    def new_region_code(self, host: str, params: List[str],
                        line: int) -> Tuple[int, Code]:
        self._region_count += 1
        code = Code(f"{host}._region{self._region_count}", list(params),
                    is_region=True, line=line)
        idx = len(self.funcs)
        self.funcs.append(code)
        self.func_index[code.name] = idx
        return idx, code


class _FuncCompiler:
    """Compiles one function (or outlined region) body to bytecode."""

    def __init__(self, prog: _ProgramCompiler, code: Code,
                 redirects: Optional[Dict[str, int]] = None):
        self.prog = prog
        self.code = code
        self.slots: Dict[str, int] = {}
        self.local_dims: Dict[str, Tuple[int, ...]] = {}
        # names that shadow globals with a region-local slot
        self.redirects: Dict[str, int] = redirects or {}
        self.loop_stack: List[Tuple[List[int], List[int]]] = []  # (breaks, conts)
        #: Source line attributed to the instructions being emitted;
        #: updated by compile_stmt/compile_expr from each node's line.
        self._line = code.line
        for p in code.params:
            self._new_slot(p)

    # -------------------------------------------------------------- helpers

    def emit(self, op: str, arg=None) -> int:
        self.code.instrs.append((op, arg) if arg is not None else (op,))
        self.code.lines.append(self._line)
        return len(self.code.instrs) - 1

    @property
    def here(self) -> int:
        return len(self.code.instrs)

    def patch(self, at: int, target: int) -> None:
        op, _ = self.code.instrs[at]
        self.code.instrs[at] = (op, target)

    def _new_slot(self, name: str, dims: Tuple[int, ...] = ()) -> int:
        if name in self.slots:
            raise SemanticError(f"duplicate declaration of {name!r}",
                                self.code.line)
        slot = self.code.n_locals
        self.code.n_locals += 1
        self.slots[name] = slot
        self.code.local_names.append(name)
        self.local_dims[name] = dims
        return slot

    def _temp(self, tag: str) -> int:
        slot = self.code.n_locals
        self.code.n_locals += 1
        self.code.local_names.append(f".{tag}{slot}")
        return slot

    def _resolve(self, name: str, line: int) -> Tuple[str, int]:
        """('local', slot) | ('global', gidx)"""
        if name in self.redirects:
            return ("local", self.redirects[name])
        if name in self.slots:
            return ("local", self.slots[name])
        if name in self.prog.gindex:
            return ("global", self.prog.gindex[name])
        raise SemanticError(f"undeclared variable {name!r}", line)

    def ensure_private_slot(self, name: str) -> int:
        """Make sure ``name`` maps to a function-local slot (auto-private
        loop variables)."""
        kind, idx = (None, None)
        if name in self.redirects or name in self.slots:
            return self.redirects.get(name, self.slots.get(name))
        # shadow a global with a local slot
        slot = self._new_slot(name)
        self.redirects[name] = slot
        return slot

    # ----------------------------------------------------------- functions

    def compile_function(self, f: A.FuncDef) -> None:
        self.compile_stmt(f.body)
        self.emit("const", 0)
        self.emit("ret")

    def compile_region_body(self, region: A.OmpParallel,
                            firstprivate_globals: List[Tuple[int, int]],
                            reductions: List[Tuple[str, int, int]]) -> None:
        """Region prologue + body + reduction epilogue + ret.

        ``firstprivate_globals``: (slot, gidx) pairs to copy in.
        ``reductions``: (op, gidx, slot) triples.
        """
        for slot, gidx in firstprivate_globals:
            self.emit("gload", gidx)
            self.emit("lstore", slot)
        for op, gidx, slot in reductions:
            self.emit("const", _REDUCTION_IDENTITY[op])
            self.emit("lstore", slot)
        self.compile_stmt(region.body)
        for op, gidx, slot in reductions:
            self.emit("lload", slot)
            self.emit("rt", ("reduce", (op, gidx), 1))
        self.emit("const", 0)
        self.emit("ret")

    # ----------------------------------------------------------- statements

    def compile_stmt(self, node: A.Node) -> None:
        m = getattr(self, "_stmt_" + type(node).__name__, None)
        if m is None:
            raise SemanticError(
                f"cannot compile {type(node).__name__} here", node.line)
        if node.line:
            self._line = node.line
        m(node)

    def _stmt_Block(self, node: A.Block) -> None:
        # A slipstream directive immediately preceding a parallel region
        # is region-scoped: "using the directive on a parallel region
        # takes precedence but does not override the global setting".
        before = set(self.slots) if node.is_scope else None
        stmts = node.stmts
        i = 0
        while i < len(stmts):
            s = stmts[i]
            if (isinstance(s, A.OmpSlipstream) and i + 1 < len(stmts)
                    and isinstance(stmts[i + 1], A.OmpParallel)):
                self._emit_slipstream(s, region_scoped=True)
            else:
                self.compile_stmt(s)
            i += 1
        if before is not None:
            # C lexical scoping: names declared in this block die with
            # it (their slots stay allocated; siblings get fresh ones).
            for name in [n for n in self.slots if n not in before]:
                del self.slots[name]
                self.local_dims.pop(name, None)

    def _stmt_VarDecl(self, node: A.VarDecl) -> None:
        slot = self._new_slot(node.name, node.dims)
        if node.dims:
            self.code.private_arrays.append((slot, node.typ, node.dims))
            if node.init is not None:
                raise SemanticError("array initializers are not supported",
                                    node.line)
        elif node.init is not None:
            self.compile_expr(node.init)
            self.emit("lstore", slot)

    def _stmt_Assign(self, node: A.Assign) -> None:
        tgt = node.target
        if isinstance(tgt, A.Var):
            kind, idx = self._resolve(tgt.name, tgt.line)
            if kind == "local":
                self.compile_expr(node.value)
                self.emit("lstore", idx)
            else:
                g = self.prog.globals[idx]
                if g.dims:
                    raise SemanticError(
                        f"cannot assign whole array {g.name!r}", node.line)
                self.compile_expr(node.value)
                self.emit("gstore", idx)
            return
        assert isinstance(tgt, A.Index)
        kind, idx = self._resolve(tgt.name, tgt.line)
        if kind == "local":
            dims = self.local_dims.get(tgt.name) or ()
            if not dims:
                raise SemanticError(f"{tgt.name!r} is not an array",
                                    tgt.line)
            self._emit_flat_index(tgt, dims)
            self.compile_expr(node.value)
            self.emit("astore", idx)
        else:
            g = self.prog.globals[idx]
            if not g.dims:
                raise SemanticError(f"{tgt.name!r} is not an array",
                                    tgt.line)
            self._emit_flat_index(tgt, g.dims)
            self.compile_expr(node.value)
            self.emit("gestore", idx)

    def _stmt_If(self, node: A.If) -> None:
        self.compile_expr(node.cond)
        jf = self.emit("jfalse", -1)
        self.compile_stmt(node.then)
        if node.orelse is not None:
            je = self.emit("jump", -1)
            self.patch(jf, self.here)
            self.compile_stmt(node.orelse)
            self.patch(je, self.here)
        else:
            self.patch(jf, self.here)

    def _stmt_While(self, node: A.While) -> None:
        head = self.here
        self.compile_expr(node.cond)
        jf = self.emit("jfalse", -1)
        self.loop_stack.append(([], []))
        self.compile_stmt(node.body)
        breaks, conts = self.loop_stack.pop()
        for c in conts:
            self.patch(c, head)
        self.emit("jump", head)
        self.patch(jf, self.here)
        for b in breaks:
            self.patch(b, self.here)

    def _stmt_For(self, node: A.For) -> None:
        if node.init is not None:
            self.compile_stmt_or_simple(node.init)
        head = self.here
        jf = None
        if node.cond is not None:
            self.compile_expr(node.cond)
            jf = self.emit("jfalse", -1)
        self.loop_stack.append(([], []))
        self.compile_stmt(node.body)
        breaks, conts = self.loop_stack.pop()
        cont_at = self.here
        for c in conts:
            self.patch(c, cont_at)
        if node.step is not None:
            self.compile_stmt_or_simple(node.step)
        self.emit("jump", head)
        if jf is not None:
            self.patch(jf, self.here)
        for b in breaks:
            self.patch(b, self.here)

    def compile_stmt_or_simple(self, node: A.Node) -> None:
        if isinstance(node, (A.Assign, A.ExprStmt)):
            self.compile_stmt(node)
        else:
            raise SemanticError("bad for-loop header statement", node.line)

    def _stmt_Break(self, node: A.Break) -> None:
        if not self.loop_stack:
            raise SemanticError("break outside loop", node.line)
        self.loop_stack[-1][0].append(self.emit("jump", -1))

    def _stmt_Continue(self, node: A.Continue) -> None:
        if not self.loop_stack:
            raise SemanticError("continue outside loop", node.line)
        self.loop_stack[-1][1].append(self.emit("jump", -1))

    def _stmt_Return(self, node: A.Return) -> None:
        if node.value is not None:
            self.compile_expr(node.value)
        else:
            self.emit("const", 0)
        self.emit("ret")

    def _stmt_ExprStmt(self, node: A.ExprStmt) -> None:
        self.compile_expr(node.expr)
        self.emit("pop")

    def _stmt_Print(self, node: A.Print) -> None:
        for a in node.args:
            if isinstance(a, A.Num) and isinstance(a.value, str):
                self.emit("const", a.value)
            else:
                self.compile_expr(a)
        self.emit("print", len(node.args))

    # ------------------------------------------------------ OpenMP lowering

    def _stmt_OmpSlipstream(self, node: A.OmpSlipstream) -> None:
        self._emit_slipstream(node, region_scoped=False)

    def _emit_slipstream(self, node: A.OmpSlipstream,
                         region_scoped: bool) -> None:
        if node.if_expr is not None:
            self.compile_expr(node.if_expr)
        else:
            self.emit("const", 1)
        self.emit("rt", ("slipstream_set",
                         (node.sync_type, node.tokens, region_scoped), 1))

    def _stmt_OmpBarrier(self, node: A.OmpBarrier) -> None:
        site = self.prog.new_site(f"barrier@{node.line}")
        self.emit("rt", ("barrier", (site,), 0))

    def _stmt_OmpFlush(self, node: A.OmpFlush) -> None:
        # §3.1 item 7: "For hardware cache-coherent systems, this
        # construct maps to void, since the flush semantics are
        # maintained with every transaction to the memory."  The
        # A-stream skipping a void construct is likewise a no-op, so no
        # code is emitted at all (exactly what Omni does on ccNUMA).
        pass

    def _stmt_OmpMaster(self, node: A.OmpMaster) -> None:
        self.emit("rt", ("is_master", (), 0))
        jf = self.emit("jfalse", -1)
        self.compile_stmt(node.body)
        self.patch(jf, self.here)

    def _stmt_OmpSingle(self, node: A.OmpSingle) -> None:
        site = self.prog.new_site(f"single@{node.line}")
        self.emit("rt", ("single_begin", (site,), 0))
        jf = self.emit("jfalse", -1)
        self.compile_stmt(node.body)
        self.patch(jf, self.here)
        if not node.nowait:
            self.emit("rt", ("barrier", (site,), 0))

    def _stmt_OmpCritical(self, node: A.OmpCritical) -> None:
        cid = self.prog.critical_id(node.name)
        self.emit("rt", ("crit_enter", (cid,), 0))
        jf = self.emit("jfalse", -1)
        self.compile_stmt(node.body)
        self.emit("rt", ("crit_exit", (cid,), 0))
        self.patch(jf, self.here)

    def _stmt_OmpAtomic(self, node: A.OmpAtomic) -> None:
        site = self.prog.new_site(f"atomic@{node.line}")
        self.emit("rt", ("atomic_enter", (site,), 0))
        self.compile_stmt(node.stmt)
        self.emit("rt", ("atomic_exit", (site,), 0))

    def _stmt_OmpSections(self, node: A.OmpSections) -> None:
        site = self.prog.new_site(f"sections@{node.line}")
        n = len(node.sections)
        self.emit("rt", ("sections_init", (site, n), 0))
        head = self.here
        self.emit("rt", ("sections_next", (site,), 0))
        jend = self.emit("jnone", -1)
        jumps_home = []
        checks: List[int] = []
        for k, sec in enumerate(node.sections):
            if checks:
                self.patch(checks.pop(), self.here)
            self.emit("dup")
            self.emit("const", k)
            self.emit("binop", "==")
            checks.append(self.emit("jfalse", -1))
            self.emit("pop")
            self.compile_stmt(sec.body)
            jumps_home.append(self.emit("jump", -1))
        if checks:
            self.patch(checks.pop(), self.here)
        self.emit("pop")           # unknown index: drop and refetch
        for j in jumps_home:
            self.patch(j, head)
        self.emit("jump", head)
        self.patch(jend, self.here)
        if not node.nowait:
            self.emit("rt", ("barrier", (site,), 0))

    def _stmt_OmpFor(self, node: A.OmpFor) -> None:
        sched = node.schedule or A.Schedule("static", None)
        loop = node.loop
        lo_e, hi_e, hi_adjust, step_e, negate_step, var = \
            _normalize_omp_loop(loop)
        site = self.prog.new_site(
            f"for@{node.line}({sched.kind},{sched.chunk})")

        # for-level reductions: private slots, scoped redirects
        red_triples: List[Tuple[str, int, int]] = []
        saved_redirects = {}
        for red in node.reductions:
            for name in red.names:
                gidx = self.prog.gindex[name]
                slot = self._temp(f"red_{name}")
                red_triples.append((red.op, gidx, slot))
                saved_redirects[name] = self.redirects.get(name)
                self.redirects[name] = slot
                self.emit("const", _REDUCTION_IDENTITY[red.op])
                self.emit("lstore", slot)
        # lastprivate: private slot during the loop; the thread that
        # executed the sequentially-last iteration writes it back.
        lp_pairs: List[Tuple[int, int]] = []
        for name in node.lastprivate:
            gidx = self.prog.gindex[name]
            slot = self._temp(f"lp_{name}")
            lp_pairs.append((gidx, slot))
            saved_redirects.setdefault(name, self.redirects.get(name))
            self.redirects[name] = slot
        for name in node.private:
            self.ensure_private_slot(name)

        i_slot = self.ensure_private_slot(var)
        lo_t, hi_t, step_t, n_t = (self._temp("lo"), self._temp("hi"),
                                   self._temp("step"), self._temp("n"))
        self.compile_expr(lo_e)
        self.emit("lstore", lo_t)
        self.compile_expr(hi_e)
        if hi_adjust:
            self.emit("const", hi_adjust)
            self.emit("binop", "+")
        self.emit("lstore", hi_t)
        self.compile_expr(step_e)
        if negate_step:
            self.emit("unop", "-")
        self.emit("lstore", step_t)
        self.emit("lload", lo_t)
        self.emit("lload", hi_t)
        self.emit("lload", step_t)
        self.emit("rt", ("sched_init", (site, sched.kind, sched.chunk), 3))

        chunk_head = self.here
        self.emit("rt", ("sched_next", (site,), 0))
        jdone = self.emit("jnone", -1)
        self.emit("unpack2")              # -> start, count (count on top)
        self.emit("lstore", n_t)
        self.emit("lload", step_t)        # i = lo + start*step
        self.emit("binop", "*")
        self.emit("lload", lo_t)
        self.emit("binop", "+")
        self.emit("lstore", i_slot)
        iter_head = self.here
        self.emit("lload", n_t)
        jchunk = self.emit("jfalse", -1)
        self.loop_stack.append(([], []))
        self.compile_stmt(loop.body)
        breaks, conts = self.loop_stack.pop()
        if breaks:
            raise SemanticError("break is not allowed in an omp for loop",
                                node.line)
        cont_at = self.here
        for c in conts:
            self.patch(c, cont_at)
        self.emit("lload", i_slot)
        self.emit("lload", step_t)
        self.emit("binop", "+")
        self.emit("lstore", i_slot)
        self.emit("lload", n_t)
        self.emit("const", 1)
        self.emit("binop", "-")
        self.emit("lstore", n_t)
        self.emit("jump", iter_head)
        self.patch(jchunk, chunk_head)
        self.patch(jdone, self.here)

        for op, gidx, slot in red_triples:
            self.emit("lload", slot)
            self.emit("rt", ("reduce", (op, gidx), 1))
        if lp_pairs:
            self.emit("rt", ("loop_is_last", (site,), 0))
            jskip = self.emit("jfalse", -1)
            for gidx, slot in lp_pairs:
                self.emit("lload", slot)
                self.emit("gstore", gidx)
            self.patch(jskip, self.here)
        for name, old in saved_redirects.items():
            if old is None:
                del self.redirects[name]
            else:
                self.redirects[name] = old
        if not node.nowait:
            self.emit("rt", ("barrier", (site,), 0))

    def _stmt_OmpParallel(self, node: A.OmpParallel) -> None:
        if self.code.is_region:
            raise SemanticError("nested parallel regions are not supported",
                                node.line)
        captured = self._captured_locals(node)
        fidx, code = self.prog.new_region_code(
            self.code.name, captured, node.line)
        rc = _FuncCompiler(self.prog, code)

        # Region-level privatization plumbing.
        fp_pairs: List[Tuple[int, int]] = []
        red_triples: List[Tuple[str, int, int]] = []
        for name in node.private:
            if name not in rc.slots:
                rc.redirects[name] = rc._new_slot(name)
        for name in node.firstprivate:
            if name in captured:
                continue        # captured-by-value is already firstprivate
            gidx = self.prog.gindex.get(name)
            if gidx is None:
                raise SemanticError(
                    f"firstprivate({name}): unknown variable", node.line)
            slot = rc._new_slot(name)
            rc.redirects[name] = slot
            fp_pairs.append((slot, gidx))
        for red in node.reductions:
            for name in red.names:
                gidx = self.prog.gindex[name]
                slot = rc._new_slot(f"{name}")
                rc.redirects[name] = slot
                red_triples.append((red.op, gidx, slot))
        rc.compile_region_body(node, fp_pairs, red_triples)

        # Invocation in the enclosing (serial) code.
        for name in captured:
            self.emit("lload", self.slots[name])
        if node.if_expr is not None:
            self.compile_expr(node.if_expr)
        else:
            self.emit("const", 1)
        if node.num_threads is not None:
            self.compile_expr(node.num_threads)
        else:
            self.emit("const", 0)
        self.emit("rt", ("parallel_begin", (fidx, len(captured)),
                         len(captured) + 2))
        for name in captured:
            self.emit("lload", self.slots[name])
        self.emit("call", (fidx, len(captured)))
        self.emit("pop")
        self.emit("rt", ("parallel_end", (), 0))

    def _captured_locals(self, node: A.OmpParallel) -> List[str]:
        """Enclosing-function locals referenced by the region, captured
        by value as region parameters (sorted for determinism), from
        the facts semantic analysis gathered on the region."""
        ri = self.prog.sema.region_of[id(node)]
        clause = (set(node.private) | set(node.firstprivate)
                  | {n for r in node.reductions for n in r.names})
        captured = []
        for name in sorted(ri.reads):
            if (name in ri.declared or name in clause or name in ri.for_vars
                    or name in self.prog.gindex
                    or name in self.prog.func_index
                    or name in INTRINSICS):
                continue
            if name in self.slots:
                if self.local_dims.get(name):
                    raise SemanticError(
                        f"cannot capture local array {name!r} into a "
                        f"parallel region; make it file-scope", node.line)
                captured.append(name)
        return captured

    # ---------------------------------------------------------- expressions

    def compile_expr(self, e: A.Node) -> None:
        if e.line:
            self._line = e.line
        if isinstance(e, A.Num):
            self.emit("const", e.value)
        elif isinstance(e, A.Var):
            kind, idx = self._resolve(e.name, e.line)
            if kind == "local":
                self.emit("lload", idx)
            else:
                g = self.prog.globals[idx]
                if g.dims:
                    raise SemanticError(
                        f"array {e.name!r} used without indices", e.line)
                self.emit("gload", idx)
        elif isinstance(e, A.Index):
            kind, idx = self._resolve(e.name, e.line)
            if kind == "local":
                dims = self.local_dims.get(e.name) or ()
                if not dims:
                    raise SemanticError(f"{e.name!r} is not an array",
                                        e.line)
                self._emit_flat_index(e, dims)
                self.emit("aload", idx)
            else:
                g = self.prog.globals[idx]
                if not g.dims:
                    raise SemanticError(f"{e.name!r} is not an array",
                                        e.line)
                self._emit_flat_index(e, g.dims)
                self.emit("geload", idx)
        elif isinstance(e, A.BinOp):
            # Down the left spine in a loop, not by recursion: a chain
            # ``a + b + ...`` nests one level a term, without bound.
            spine = [e]
            while isinstance(spine[-1].lhs, A.BinOp):
                spine.append(spine[-1].lhs)
                if spine[-1].line:
                    self._line = spine[-1].line
            self.compile_expr(spine[-1].lhs)
            for node in reversed(spine):
                if node.op in ("&&", "||"):
                    self.emit("dup")
                    if node.op == "||":
                        self.emit("unop", "!")
                    jf = self.emit("jfalse", -1)
                    self.emit("pop")
                    self.compile_expr(node.rhs)
                    self.patch(jf, self.here)
                else:
                    self.compile_expr(node.rhs)
                    self.emit("binop", node.op)
        elif isinstance(e, A.UnOp):
            self.compile_expr(e.operand)
            self.emit("unop", e.op)
        elif isinstance(e, A.Call):
            if e.name in _RT_INTRINSICS:
                self.emit("rt", (_RT_INTRINSICS[e.name], (), 0))
            elif e.name in INTRINSICS:
                for a in e.args:
                    self.compile_expr(a)
                self.emit("icall", (e.name, len(e.args)))
            else:
                fidx = self.prog.func_index.get(e.name)
                if fidx is None:
                    raise SemanticError(f"undeclared function {e.name!r}",
                                        e.line)
                want = self.prog.funcs[fidx].n_params
                if len(e.args) != want:
                    raise SemanticError(
                        f"{e.name} takes {want} argument(s)", e.line)
                for a in e.args:
                    self.compile_expr(a)
                self.emit("call", (fidx, len(e.args)))
        else:
            raise SemanticError(f"cannot compile expression "
                                f"{type(e).__name__}", e.line)

    def _emit_flat_index(self, node: A.Index, dims: Tuple[int, ...]) -> None:
        if len(node.indices) != len(dims):
            raise SemanticError(
                f"{node.name}: expected {len(dims)} indices, got "
                f"{len(node.indices)}", node.line)
        self.compile_expr(node.indices[0])
        for k in range(1, len(dims)):
            self.emit("const", dims[k])
            self.emit("binop", "*")
            self.compile_expr(node.indices[k])
            self.emit("binop", "+")


def _const_eval(e: A.Node) -> float:
    if isinstance(e, A.Num):
        return e.value
    if isinstance(e, A.UnOp) and e.op == "-":
        return -_const_eval(e.operand)
    if isinstance(e, A.BinOp):
        lhs, rhs = _const_eval(e.lhs), _const_eval(e.rhs)
        try:
            return {"+": lhs + rhs, "-": lhs - rhs, "*": lhs * rhs,
                    "/": lhs / rhs}[e.op]
        except KeyError:
            pass
    raise SemanticError("global initializers must be constants", e.line)


def _normalize_omp_loop(loop: A.For):
    """Extract (lo_expr, hi_expr, hi_adjust, step_expr, negate, varname)
    from a canonical omp for loop."""
    line = loop.line
    if not (isinstance(loop.init, A.Assign)
            and isinstance(loop.init.target, A.Var)):
        raise SemanticError("omp for needs 'i = lo' initialization", line)
    var = loop.init.target.name
    lo_e = loop.init.value
    cond = loop.cond
    if not (isinstance(cond, A.BinOp) and isinstance(cond.lhs, A.Var)
            and cond.lhs.name == var and cond.op in ("<", "<=", ">", ">=")):
        raise SemanticError(
            "omp for condition must be 'i < e', 'i <= e', 'i > e' or "
            "'i >= e'", line)
    hi_e = cond.rhs
    hi_adjust = {"<": 0, "<=": 1, ">": 0, ">=": -1}[cond.op]
    step = loop.step
    if not (isinstance(step, A.Assign) and isinstance(step.target, A.Var)
            and step.target.name == var
            and isinstance(step.value, A.BinOp)
            and step.value.op in ("+", "-")):
        raise SemanticError("omp for step must be 'i = i +/- c'", line)
    sv = step.value
    negate = sv.op == "-"
    if isinstance(sv.lhs, A.Var) and sv.lhs.name == var:
        step_e = sv.rhs
    elif (isinstance(sv.rhs, A.Var) and sv.rhs.name == var
          and sv.op == "+"):
        step_e = sv.lhs
    else:
        raise SemanticError("omp for step must be 'i = i +/- c'", line)
    return lo_e, hi_e, hi_adjust, step_e, negate, var
