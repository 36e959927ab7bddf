"""Mini-EP: embarrassingly parallel random-number kernel.

NAS EP generates pairs of pseudo-random numbers and tallies acceptance
counts -- essentially zero communication until a final reduction.  The
paper singles this class out in §3.2.2: "Cache affinity is not a
problem for embarrassingly parallel applications.  For this class of
application, dynamic scheduling is apparently advantageous" -- unlike
the iterative benchmarks, whose data reuse dynamic scheduling destroys.
Mini-EP exists to test exactly that claim (``ablation_ep_affinity`` in
``benchmarks/exhibits.py``); it is not part of the paper's
five-benchmark evaluation suite.

Each iteration seeds a per-sample LCG from the sample index (so any
schedule computes the identical result), walks it ``steps`` times, and
accumulates two sums reduced at the end.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from .common import KernelSpec, register

_A = 1103515245
_C = 12345
_M = 2 ** 31


def source(n: int = 2048, steps: int = 8) -> str:
    """Generate mini-EP SlipC source."""
    return f"""
/* mini-EP: embarrassingly parallel random sums (NPB EP pattern) */
double sx;
double sy;
int i;

void main() {{
    #pragma omp parallel
    {{
        #pragma omp for schedule(runtime) reduction(+: sx) reduction(+: sy)
        for (i = 0; i < {n}; i = i + 1) {{
            int seed;  int k;
            double x;  double y;
            seed = mod(i * 69069 + 1, {_M});
            x = 0.0;
            y = 0.0;
            for (k = 0; k < {steps}; k = k + 1) {{
                seed = mod(seed * {_A} + {_C}, {_M});
                x = x + (seed % 1000) * 0.001;
                y = y + (seed % 777) * 0.001;
            }}
            sx = sx + x;
            sy = sy + y;
        }}
    }}
    print("ep sums", sx, sy);
}}
"""


def reference(n: int = 2048, steps: int = 8) -> Dict[str, np.ndarray]:
    """NumPy oracle for mini-EP."""
    seeds = (np.arange(n, dtype=np.int64) * 69069 + 1) % _M
    sx = np.zeros(n)
    sy = np.zeros(n)
    for _ in range(steps):
        seeds = (seeds * _A + _C) % _M
        sx += (seeds % 1000) * 0.001
        sy += (seeds % 777) * 0.001
    return {"sx": np.array([sx.sum()]), "sy": np.array([sy.sum()])}


SPEC = register(KernelSpec(
    name="ep",
    description="embarrassingly parallel random sums: no communication "
                "until the final reduction (NPB EP pattern)",
    source=source,
    reference=reference,
    sizes={
        "test": dict(n=256, steps=4),
        "bench": dict(n=2048, steps=8),
    },
    rtol=1e-9,
))
