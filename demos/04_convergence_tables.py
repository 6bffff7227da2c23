"""Reproduce the convergence-rate experiments on both mesh families.

On the rhombus family the artificial diffusion has already vanished at these
levels, so the scheme is the plain Galerkin method and shows the textbook
pair (H1 order 1, L2 order 2).  On the square family the edge-tensor
stabilization is active; it preserves the first-order H1 rate (its size is
O(h), the same order as the best-approximation error) but, being a genuine
O(h) perturbation of the operator, it caps the observed L2 rate at first
order as well -- the price of the discrete maximum principle on meshes that
are merely XZ rather than strictly acute.
"""

import mfgfem as mf


def show(table, title):
    print(title)
    header = f"{'level':>5} {'h':>9} {'ndof':>6}"
    for label in ("u_H1", "m_H1", "u_L2", "m_L2"):
        header += f" {'err_' + label:>10} {'eoc':>5}"
    print(header)
    for row in table.rows():
        line = f"{row['level']:>5} {row['h']:>9.4f} {row['ndof']:>6}"
        for label in ("u_H1", "m_H1", "u_L2", "m_L2"):
            eoc = row[f"eoc_{label}"]
            line += f" {row[f'err_{label}']:>10.3e} {eoc:>5.2f}"
        print(line)
    print()


problem_square = mf.make_manufactured(1.0, mf.huber_ball(1.0), 1.0)
table = mf.run_convergence_study(problem_square, "xz_square", range(2, 7), "xz")
show(table, "XZ square family, edge-tensor stabilization")

problem_rhombus = mf.make_manufactured(1.0, mf.huber_ball(1.0), 1.0,
                                       domain="acute_rhombus")
table = mf.run_convergence_study(problem_rhombus, "acute_rhombus", range(2, 7),
                                 "acute")
show(table, "acute rhombus family, artificial diffusion (vanished at these levels)")

print("stabilization terms ||D grad(I_h u*)|| on the square family scale like h:")
table = mf.run_convergence_study(problem_square, "xz_square", range(2, 6), "xz")
for row in table.rows():
    print(f"  level {row['level']}: stab_u = {row['stab_u']:.4e}")
print(f"  fitted slope: {table.fitted_eoc('stab_term_u'):.3f}")
