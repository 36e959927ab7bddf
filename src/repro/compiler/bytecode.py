"""Bytecode IR: the compiled form of a SlipC program.

A :class:`CompiledProgram` is the analogue of the single executable
image in the paper -- "the same binary should run for both normal and
slipstream mode".  Nothing in the bytecode depends on the execution
mode; all mode-dependent behaviour (store suppression, token
synchronization, construct skipping) happens in the runtime/VM when the
image is executed.

Instructions are ``(op, arg)`` tuples executed by a stack VM:

======== ============================ =======================================
op       arg                          effect
======== ============================ =======================================
const    value                        push literal
lload    slot                         push locals[slot]
lstore   slot                         locals[slot] = pop
gload    gidx                         *shared scalar load* (memory op)
gstore   gidx                         *shared scalar store* (memory op)
geload   gidx                         pop flat index; *shared element load*
gestore  gidx                         pop value, pop flat; *shared store*
aload    slot                         pop flat; push private array element
astore   slot                         pop value, pop flat; private store
binop    opname                       pop b, a; push a <op> b
unop     opname                       pop a; push <op> a
dup      --                           duplicate top of stack
pop      --                           discard top of stack
jump     target                       unconditional branch
jfalse   target                       pop; branch if falsy
jnone    target                       if top is None: pop and branch
unpack2  --                           pop (a, b); push a, then b
call     (fidx, nargs)                call user function
icall    (name, nargs)                intrinsic (sqrt, fabs, ...)
rt       (name, static, nargs)        runtime-library call (yields to shell)
print    nargs                        output I/O (yields to shell)
ret      --                           return (value on stack)
======== ============================ =======================================

The optimizer emits only these opcodes, so every consumer -- the
interpreter, the generated-code tier, the profiler's tallying stream,
``VM.corrupt`` and :func:`disassemble` -- handles one set.  The
generated-code tier builds whole expressions (an index polynomial, a
loop's trip test and step) out of the base stack ops itself; see
``interp.compile``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["Code", "GlobalDecl", "CompiledProgram", "OP_COST",
           "RT_RETURNS", "disassemble"]

#: Busy-cycle cost charged per executed instruction (default 1).
OP_COST: Dict[str, float] = {
    "const": 1, "lload": 1, "lstore": 1,
    "aload": 2, "astore": 2,
    "binop": 1, "unop": 1, "dup": 1, "pop": 1,
    "jump": 1, "jfalse": 1, "jnone": 1, "unpack2": 1,
    "call": 4, "ret": 2, "icall": 1,   # + ICALL_COST per intrinsic
    # memory/rt/print ops cost is charged by the shell, not here
    "gload": 0, "gstore": 0, "geload": 0, "gestore": 0,
    "rt": 0, "print": 0,
}

#: Extra cost for expensive arithmetic.
BINOP_COST: Dict[str, float] = {"/": 8, "%": 8}
ICALL_COST: Dict[str, float] = {
    "sqrt": 12, "exp": 16, "log": 16, "pow": 20,
    "fabs": 1, "min": 1, "max": 1, "mod": 8, "floor": 2,
}

#: Runtime calls that push a result value.
RT_RETURNS = frozenset({
    "sched_next", "sections_next", "single_begin", "crit_enter",
    "is_master", "tid", "nthreads", "wtime", "io_read", "astream_probe",
    "loop_is_last",
})


@dataclass
class GlobalDecl:
    """A shared (file-scope) variable of the compiled image."""

    name: str
    typ: str                       # "int" | "double"
    dims: Tuple[int, ...]          # () for scalars
    init: Optional[float] = None   # constant scalar initializer
    index: int = 0

    @property
    def size(self) -> int:
        """Number of elements (1 for scalars)."""
        n = 1
        for d in self.dims:
            n *= d
        return n

    @property
    def nbytes(self) -> int:
        """Footprint in the shared segment (8 bytes per element)."""
        return self.size * 8       # both int and double are 8 bytes


@dataclass
class Code:
    """One compiled function (user function or outlined parallel region)."""

    name: str
    params: List[str]
    instrs: List[Tuple] = field(default_factory=list)
    n_locals: int = 0
    local_names: List[str] = field(default_factory=list)
    #: (slot, typ, dims) -- private arrays allocated per frame
    private_arrays: List[Tuple[int, str, Tuple[int, ...]]] = \
        field(default_factory=list)
    is_region: bool = False
    line: int = 0
    #: Source line per instruction (parallel to ``instrs``); the
    #: profiler's instr-index -> SlipC line map.  Kept in sync by the
    #: peephole optimizer and carried by the image wherever it goes.
    lines: List[int] = field(default_factory=list)
    #: Generated code: ``(python_source, hoisted_consts)`` emitted by
    #: :func:`repro.interp.compile.generate_source` when the image is
    #: built.  Kept with the image in the in-memory compile cache;
    #: exec'd lazily once per process.
    gen_src: Optional[Tuple[str, Tuple]] = None

    @property
    def n_params(self) -> int:
        """Number of declared parameters."""
        return len(self.params)

    def __getstate__(self):
        """Pickle without the interpreter's translated-instruction
        cache (``_fast``): it is derived state, rebuilt on first
        execution, and would only bloat the pickle."""
        state = self.__dict__.copy()
        state.pop("_fast", None)
        return state


@dataclass
class CompiledProgram:
    """The executable image: globals + functions + site metadata."""

    globals: List[GlobalDecl]
    funcs: List[Code]
    func_index: Dict[str, int]
    main_index: int
    #: site id -> descriptive label ("barrier@12", "for@30(dynamic,4)")
    sites: Dict[int, str] = field(default_factory=dict)
    source: str = ""

    def __getstate__(self):
        """Pickle without the exec'd generated-function caches
        (``_cfns``, and ``_afns`` of the A-stream versions): function
        objects are not picklable and are derived state, rebuilt from
        each Code on first run."""
        state = self.__dict__.copy()
        state.pop("_cfns", None)
        state.pop("_afns", None)
        return state

    def func(self, name: str) -> Code:
        """Look a function up by name."""
        return self.funcs[self.func_index[name]]

    def global_named(self, name: str) -> GlobalDecl:
        """Look a shared global up by name."""
        for g in self.globals:
            if g.name == name:
                return g
        raise KeyError(name)

    @property
    def n_instructions(self) -> int:
        """Total bytecode instructions across all functions."""
        return sum(len(f.instrs) for f in self.funcs)


def disassemble(code: Code) -> str:
    """Human-readable listing of one function (for tests and debugging)."""
    lines = [f"{code.name}({', '.join(code.params)})  "
             f"[{code.n_locals} locals]"]
    for i, (op, *rest) in enumerate(code.instrs):
        arg = rest[0] if rest else ""
        lines.append(f"  {i:4d}  {op:<8} {arg!r}")
    return "\n".join(lines)
