"""Error measurement against exact or reference solutions, EOC tables, and the
experiment drivers that realize the convergence-rate and maximum-principle
claims as reproducible desk-scale runs.

The best-approximation infimum appearing in the quasi-optimality ratio is
replaced by the nodal interpolation error, a computable upper bound; every
report that quotes the ratio carries this caveat implicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np

from . import assembly
from .errors import ConfigurationError
from .fespace import P1Function, P1Space, interpolate, quadrature, quadrature_xy
from .mesh import MAX_LEVEL, generate_acute_rhombus, generate_structured_square, refine_red
from .solver import SolverConfig, solve_mfg
from .stabilization import DMP_TOL, build_acute_tensor, build_xz_tensor

# degree of the quadrature that measures errors against exact fields
ERROR_QUADRATURE_DEGREE = 4
# the sampled L2 monotonicity inequality may fail by at most this much
MONOTONICITY_SLACK = 1e-9


# -- norms ---------------------------------------------------------------------

def _error_quadrature(fn, exact_value, exact_grad=None):
    """Squared L2 error and squared H1-seminorm error by quadrature."""
    space = fn.space
    mesh = space.mesh
    rule = quadrature(ERROR_QUADRATURE_DEGREE)
    x, y = quadrature_xy(mesh, rule)
    vals_h = fn.values_at_quadrature(rule)
    vals_e = np.asarray(exact_value(x, y), dtype=float)
    vals_e = np.broadcast_to(vals_e, vals_h.shape)
    l2sq = float(np.einsum("tq,q,t->", (vals_e - vals_h) ** 2, rule.weights, mesh.areas))
    if exact_grad is None:
        return l2sq, 0.0
    grad_h = fn.element_gradients()[:, None, :]
    grad_e = np.asarray(exact_grad(x, y), dtype=float)
    diff = grad_e - grad_h
    h1sq = float(np.einsum("tqd,q,t->", diff ** 2, rule.weights, mesh.areas))
    return l2sq, h1sq


def error_l2(fn, exact_value):
    """||exact - fn||_{L2} by quadrature of degree ERROR_QUADRATURE_DEGREE."""
    l2sq, _ = _error_quadrature(fn, exact_value)
    return math.sqrt(l2sq)


def error_h1(fn, exact_value, exact_grad):
    """Full H1 norm of the error, sqrt(L2^2 + seminorm^2)."""
    l2sq, h1sq = _error_quadrature(fn, exact_value, exact_grad)
    return math.sqrt(l2sq + h1sq)


def stabilization_error_term(space, tensor, grads):
    """||D_k g||_{L2} for an element-wise constant gradient field g."""
    if tensor is None:
        return 0.0
    Dg = np.einsum("tde,te->td", tensor.per_element, grads)
    return math.sqrt(float(((Dg ** 2).sum(axis=1) * space.elem_areas).sum()))


# -- nested injection and reference errors --------------------------------------

def inject_to_descendant(fn, fine_space):
    """Exact P1 injection of ``fn`` into the space of a refinement descendant:
    the product of the ``prolongation`` matrices along the parent chain of the
    fine space back to the coarse mesh."""
    chain = []
    space = fine_space
    while space.mesh is not fn.space.mesh:
        if space.parent is None:
            raise ConfigurationError("meshes are not nested")
        chain.append(space)
        space = space.parent
    coeffs = fn.coeffs.copy()
    for space in reversed(chain):
        P = space.prolongation
        coeffs = np.zeros(space.ndof) if P is None else P @ coeffs
    return P1Function(fine_space, coeffs)


def error_vs_reference(fn_coarse, fn_fine):
    """(L2, H1) norms of (injected coarse) - fine, measured on the fine mesh."""
    fine_space = fn_fine.space
    d = inject_to_descendant(fn_coarse, fine_space).coeffs - fn_fine.coeffs
    l2 = math.sqrt(max(float(d @ (fine_space.mass @ d)), 0.0))
    h1 = math.sqrt(max(float(d @ (fine_space.h1_gram @ d)), 0.0))
    return l2, h1


# -- EOC tables ------------------------------------------------------------------

@dataclass
class ErrorRecord:
    level: int
    h_max: float
    ndof: int
    err_u_h1: float
    err_m_h1: float
    err_m_l2: float
    err_u_l2: float
    residual1_dual: float
    residual2_dual: float
    stab_term_u: float
    stab_term_m: float
    outer_iters: int


_CSV_HEADER = ("level,h,ndof,err_u_H1,eoc_u_H1,err_m_H1,eoc_m_H1,err_m_L2,eoc_m_L2,"
               "err_u_L2,eoc_u_L2,stab_u,stab_m,res1,res2,outer_iters")


@dataclass
class EOCTable:
    records: list = field(default_factory=list)

    def eoc(self, field_name, index):
        """EOC between consecutive records index-1 and index (nan if undefined)."""
        if index <= 0 or index >= len(self.records):
            return math.nan
        prev, cur = self.records[index - 1], self.records[index]
        e0, e1 = getattr(prev, field_name), getattr(cur, field_name)
        if e0 <= 0.0 or e1 <= 0.0 or prev.h_max <= cur.h_max:
            return math.nan
        return math.log(e0 / e1) / math.log(prev.h_max / cur.h_max)

    def finest_eoc(self, field_name):
        return self.eoc(field_name, len(self.records) - 1)

    def fitted_eoc(self, field_name):
        """Least-squares slope of log(error) against log(h) over all records."""
        hs = np.array([r.h_max for r in self.records])
        es = np.array([getattr(r, field_name) for r in self.records])
        keep = es > 0
        if keep.sum() < 2:
            return math.nan
        slope = np.polyfit(np.log(hs[keep]), np.log(es[keep]), 1)[0]
        return float(slope)

    def rows(self):
        out = []
        for i, r in enumerate(self.records):
            out.append({
                "level": r.level, "h": r.h_max, "ndof": r.ndof,
                "err_u_H1": r.err_u_h1, "eoc_u_H1": self.eoc("err_u_h1", i),
                "err_m_H1": r.err_m_h1, "eoc_m_H1": self.eoc("err_m_h1", i),
                "err_m_L2": r.err_m_l2, "eoc_m_L2": self.eoc("err_m_l2", i),
                "err_u_L2": r.err_u_l2, "eoc_u_L2": self.eoc("err_u_l2", i),
                "stab_u": r.stab_term_u, "stab_m": r.stab_term_m,
                "res1": r.residual1_dual, "res2": r.residual2_dual,
                "outer_iters": r.outer_iters,
            })
        return out

    def to_csv(self, path, header_comment=None):
        def fmt(v):
            if isinstance(v, float):
                return f"{v:.17g}"
            return str(v)

        with open(path, "w") as fh:
            if header_comment:
                fh.write(f"# {header_comment}\n")
            fh.write(_CSV_HEADER + "\n")
            for row in self.rows():
                fh.write(",".join(fmt(row[k]) for k in _CSV_HEADER.split(",")) + "\n")


# -- experiment drivers ------------------------------------------------------------

FAMILY_ROOTS = {
    "xz_square": lambda: generate_structured_square(1),
    "acute_rhombus": lambda: generate_acute_rhombus(1),
}


def mesh_hierarchy(family, max_level, root=None):
    """Nested meshes of a family up to ``max_level`` (index = level), at most
    ``mesh.MAX_LEVEL``."""
    if max_level > MAX_LEVEL:
        raise ConfigurationError(f"mesh level {max_level} exceeds MAX_LEVEL = {MAX_LEVEL}")
    if root is None:
        try:
            root = FAMILY_ROOTS[family]()
        except KeyError:
            raise ConfigurationError(f"unknown mesh family {family!r}") from None
    meshes = [root]
    for _ in range(max_level):
        meshes.append(refine_red(meshes[-1]))
    return meshes


def tensor_for(mesh, kind, L_H, nu, omega_factor=None, mu=1.1):
    if kind == "xz":
        return build_xz_tensor(mesh, L_H, omega_factor=omega_factor)
    if kind == "acute":
        return build_acute_tensor(mesh, L_H, nu, mu=mu)
    if kind == "none":
        return None
    raise ConfigurationError(f"unknown stabilization kind {kind!r}")


def run_convergence_study(problem, family, levels, stabilization_kind, cfg=None,
                          omega_factor=None, mu=1.1, reference_offset=2,
                          root=None):
    """Solve the MFG system on a refinement sequence and tabulate errors.

    With an exact pair on the problem, errors are measured against it and the
    stabilization terms use the interpolated exact gradients.  Without one, a
    reference solution ``reference_offset`` levels finer than the finest
    requested level is solved once and compared through exact nested injection;
    stabilization terms then use the discrete gradients.  That reference must
    lie at least one level finer.
    """
    levels = sorted(int(l) for l in levels)
    if not levels:
        raise ConfigurationError("no levels requested")
    if len(set(levels)) < len(levels):
        raise ConfigurationError(f"repeated level in {levels}")
    cfg = cfg or SolverConfig()
    use_reference = problem.exact is None
    if use_reference and reference_offset < 1:
        raise ConfigurationError(
            f"reference_offset {reference_offset} must be at least 1: the reference "
            "solution must be finer than every requested level")
    top = levels[-1] + (reference_offset if use_reference else 0)
    meshes = mesh_hierarchy(family, top, root=root)

    reference = None
    if use_reference:
        ref_space = P1Space(meshes[top])
        ref_tensor = tensor_for(meshes[top], stabilization_kind,
                                problem.hamiltonian.L_H, problem.nu,
                                omega_factor=omega_factor, mu=mu)
        reference = solve_mfg(ref_space, problem, ref_tensor, cfg)

    table = EOCTable()
    for level in levels:
        mesh = meshes[level]
        space = P1Space(mesh)
        tensor = tensor_for(mesh, stabilization_kind, problem.hamiltonian.L_H,
                            problem.nu, omega_factor=omega_factor, mu=mu)
        sol = solve_mfg(space, problem, tensor, cfg)

        if use_reference:
            err_u_l2, err_u_h1 = error_vs_reference(sol.u, reference.u)
            err_m_l2, err_m_h1 = error_vs_reference(sol.m, reference.m)
            stab_u = stabilization_error_term(space, tensor, sol.u.element_gradients())
            stab_m = stabilization_error_term(space, tensor, sol.m.element_gradients())
        else:
            ex = problem.exact
            # one quadrature pass per field gives both squared norms
            u_l2sq, u_h1sq = _error_quadrature(sol.u, ex.u.value, ex.u.grad)
            m_l2sq, m_h1sq = _error_quadrature(sol.m, ex.m.value, ex.m.grad)
            err_u_l2, err_u_h1 = math.sqrt(u_l2sq), math.sqrt(u_l2sq + u_h1sq)
            err_m_l2, err_m_h1 = math.sqrt(m_l2sq), math.sqrt(m_l2sq + m_h1sq)
            stab_u = stabilization_error_term(
                space, tensor, interpolate(space, ex.u.value).element_gradients())
            stab_m = stabilization_error_term(
                space, tensor, interpolate(space, ex.m.value).element_gradients())

        table.records.append(ErrorRecord(
            level=level, h_max=mesh.h_max, ndof=space.ndof,
            err_u_h1=err_u_h1, err_m_h1=err_m_h1,
            err_m_l2=err_m_l2, err_u_l2=err_u_l2,
            residual1_dual=sol.residual1_dual, residual2_dual=sol.residual2_dual,
            stab_term_u=stab_u, stab_term_m=stab_m,
            outer_iters=sol.outer_iters))
    return table


def verify_dmp_at_solution(solution, problem):
    """Nodal nonnegativity of the computed density; requires a certified source."""
    if not problem.source.nonneg_certified:
        raise ConfigurationError(
            "source is not certified nonnegative; the discrete maximum principle "
            "claim does not apply")
    coeffs = solution.m.coeffs
    return bool(coeffs.min(initial=0.0) >= DMP_TOL)


def check_l2_monotonicity_inequality(space, problem, tensor, solution, pairs=50,
                                     seed=0):
    """Sample the L2 stability inequality of the discrete system:

        c_F ||mbar - m_k||^2  <=  <R1(mbar, ubar), mbar - m_k>
                                   - <R2(mbar, ubar), ubar - u_k>
                                   (+ MONOTONICITY_SLACK)

    over random pairs with mbar nonnegative (nodal |N(0,1)| values) and ubar
    free.  Returns (all_passed, worst_violation); the violation is the left
    side minus the right side, so nonpositive means satisfied.
    """
    rng = np.random.default_rng(seed)
    system = assembly.DiscreteSystem(space, problem, tensor)
    c_F = problem.coupling.c_F
    worst = -math.inf
    for _ in range(pairs):
        mbar = P1Function(space, np.abs(rng.standard_normal(space.ndof)))
        ubar = P1Function(space, rng.standard_normal(space.ndof))
        r1 = system.hjb_residual(ubar, mbar)
        r2 = system.kfp_residual(ubar, mbar)
        dm = mbar.coeffs - solution.m.coeffs
        du = ubar.coeffs - solution.u.coeffs
        lhs = c_F * float(dm @ (space.mass @ dm))
        rhs = float(r1 @ dm) - float(r2 @ du)
        worst = max(worst, lhs - rhs)
    return worst <= MONOTONICITY_SLACK, worst


def quasi_optimality_ratio(solution, problem, space, tensor=None):
    """Total H1 error over (interpolation-error proxy + stabilization terms).

    Returns 0 for the all-zero instance where both sides vanish.
    """
    if problem.exact is None:
        raise ConfigurationError("quasi-optimality ratio needs an exact solution")
    ex = problem.exact
    num = (error_h1(solution.u, ex.u.value, ex.u.grad)
           + error_h1(solution.m, ex.m.value, ex.m.grad))
    iu = interpolate(space, ex.u.value)
    im = interpolate(space, ex.m.value)
    den = (error_h1(iu, ex.u.value, ex.u.grad)
           + error_h1(im, ex.m.value, ex.m.grad)
           + stabilization_error_term(space, tensor, iu.element_gradients())
           + stabilization_error_term(space, tensor, im.element_gradients()))
    if den == 0.0:
        return 0.0
    return num / den
