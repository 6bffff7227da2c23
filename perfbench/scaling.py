"""One-shot scaling report of solve_mfg on the manufactured sine instance
(Huber R=1, nu=1, c_F=1, xz_square with the edge tensor, default SolverConfig).

    python3 perfbench/scaling.py

Prints, per mesh level 4-8, the number of dofs, the wall time of one solve_mfg,
its outer sweeps and Newton steps, and the number of sparse LU factorizations
it made.  Not part of the gated benchmark; level 8 takes about half a minute.
"""

from __future__ import annotations

import sys
import time

import run  # pins the BLAS threads and locates the checkout's sources

LEVELS = range(4, 9)


def main():
    threads = run.pin_threads()
    sys.path.insert(0, str(run.SRC))

    import scipy.sparse.linalg as spla

    import mfgfem as mf
    from mfgfem import analysis
    from tracing import Patches

    factorizations = 0
    original = spla.splu

    def counting_splu(*a, **kw):
        nonlocal factorizations
        factorizations += 1
        return original(*a, **kw)

    ham = mf.huber_ball(1.0)
    problem = mf.make_manufactured(1.0, ham, 1.0, domain="xz_square")
    meshes = analysis.mesh_hierarchy("xz_square", max(LEVELS))
    print(f"# solve_mfg scaling, sine/xz_square, BLAS threads {threads}")
    print("| level | ndof | solve | outer sweeps | Newton steps | factorizations |")
    print("|---|---|---|---|---|---|")
    patches = Patches()
    patches.set(spla, "splu", counting_splu)
    try:
        for level in LEVELS:
            mesh = meshes[level]
            space = mf.P1Space(mesh)
            tensor = mf.build_xz_tensor(mesh, ham.L_H)
            factorizations = 0
            start = time.perf_counter()
            sol = mf.solve_mfg(space, problem, tensor, mf.SolverConfig())
            elapsed = time.perf_counter() - start
            print(f"| {level} | {space.ndof} | {elapsed:.3g} s | {sol.outer_iters} "
                  f"| {sol.newton_iters_total} | {factorizations} |", flush=True)
    finally:
        patches.undo()
    return 0


if __name__ == "__main__":
    sys.exit(main())
