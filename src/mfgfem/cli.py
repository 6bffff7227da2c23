"""Command-line entry point: flat key = value config files, four subcommands
(check-mesh, solve, convergence, verify), machine-readable CSV/JSON outputs.

Exit codes: 0 success, 1 verification/verdict failure, 2 input error,
3 solver nonconvergence.  Every CSV begins with a comment line echoing the
config hash; JSON reports carry the hash as their first field.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import analysis, problem as problem_mod, stabilization
from .errors import ConfigurationError, MeshFormatError, MFGError, NonConvergenceError
from .fespace import P1Space, function_to_csv
from .hamiltonian import check_gradient, check_semismooth_bound, finite_control, huber_ball
from .mesh import quality_report, read_mesh, refine_red
from .solver import SolverConfig, solve_mfg

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NONCONVERGENCE = 3


@dataclass
class RunConfig:
    mesh_family: str = "xz_square"          # xz_square | acute_rhombus | file:<path>
    mesh_level: int = 4
    mesh_levels: tuple = (2, 3, 4, 5, 6)
    stabilization: str = "auto"             # auto | xz | acute | none
    allow_unstabilized: bool = False
    omega_factor: float | None = None       # None = family default (delta/3)
    mu: float = 1.1
    problem_kind: str = "manufactured"      # manufactured | g_one | rough | zero
    problem_exact: str = "sine_product"     # sine_product | zero
    nu: float = 1.0
    c_F: float = 1.0
    hamiltonian_kind: str = "huber"         # huber | finite
    hamiltonian_R: float = 1.0
    hamiltonian_epsilon: float = 0.0
    hamiltonian_drifts: tuple = ((1.0, 0.0), (-1.0, 0.0))
    hamiltonian_costs: tuple = (0.0, 0.0)
    tol_outer: float = SolverConfig.tol_outer
    max_outer: int = SolverConfig.max_outer
    damping: float = SolverConfig.damping
    tol_newton: float = SolverConfig.tol_newton
    max_newton: int = SolverConfig.max_newton
    reference_offset: int = 2
    output_dir: str = "."
    seed: int = 0
    verify_trials: int = 200
    verify_pairs: int = 50
    verify_gradient_samples: int = 1000

    def solver_config(self):
        return SolverConfig(**{f.name: getattr(self, f.name) for f in fields(SolverConfig)})


def _parse_bool(text):
    low = text.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ConfigurationError(f"not a boolean: {text!r}")


# Level 15 of either family has 2^31 triangles, past the int32 sparsity
# pattern of its operators; a bound also keeps 'lo:hi' ranges small.
MAX_LEVEL = 14


def _int_in(lo, hi=math.inf):
    """Parser of an integer in lo..hi."""
    def parse(text):
        value = int(text)
        if not lo <= value <= hi:
            raise ConfigurationError(f"{value} outside {lo}..{hi}")
        return value
    return parse


_parse_level = _int_in(0, MAX_LEVEL)


def _parse_levels(text):
    text = text.strip()
    if ":" in text:
        lo, hi = text.split(":", 1)
        return tuple(range(_parse_level(lo), _parse_level(hi) + 1))
    return tuple(_parse_level(tok) for tok in text.replace(",", " ").split())


def _parse_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ConfigurationError(f"not a finite number: {text!r}")
    return value


def _parse_vectors(text):
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.replace(",", " ").split()
        if len(parts) != 2:
            raise ConfigurationError(f"expected 2D vector, got {chunk!r}")
        out.append((_parse_float(parts[0]), _parse_float(parts[1])))
    return tuple(out)


def _parse_scalars(text):
    return tuple(_parse_float(tok)
                 for tok in text.replace(",", " ").replace(";", " ").split())


_KEYS = {
    "mesh.family": ("mesh_family", str),
    "mesh.level": ("mesh_level", _parse_level),
    "mesh.levels": ("mesh_levels", _parse_levels),
    "stabilization": ("stabilization", str),
    "stabilization.omega_factor": ("omega_factor", _parse_float),
    "stabilization.mu": ("mu", _parse_float),
    "allow_unstabilized": ("allow_unstabilized", _parse_bool),
    "problem.kind": ("problem_kind", str),
    "problem.exact": ("problem_exact", str),
    "problem.nu": ("nu", _parse_float),
    "problem.c_F": ("c_F", _parse_float),
    "hamiltonian.kind": ("hamiltonian_kind", str),
    "hamiltonian.R": ("hamiltonian_R", _parse_float),
    "hamiltonian.epsilon": ("hamiltonian_epsilon", _parse_float),
    "hamiltonian.drifts": ("hamiltonian_drifts", _parse_vectors),
    "hamiltonian.costs": ("hamiltonian_costs", _parse_scalars),
    "solver.tol_outer": ("tol_outer", _parse_float),
    "solver.max_outer": ("max_outer", int),
    "solver.damping": ("damping", _parse_float),
    "solver.tol_newton": ("tol_newton", _parse_float),
    "solver.max_newton": ("max_newton", int),
    "reference_offset": ("reference_offset", int),
    "output.dir": ("output_dir", str),
    "seed": ("seed", _int_in(0)),
    "verify.trials": ("verify_trials", _int_in(1)),
    "verify.pairs": ("verify_pairs", _int_in(1)),
    "verify.gradient_samples": ("verify_gradient_samples", _int_in(1)),
}


def parse_config(path):
    """Read a flat 'key = value' file ('#' starts a comment)."""
    config = RunConfig()
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"config file is not UTF-8 text: {exc}") from None
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
        attr, conv = _KEYS[key]
        try:
            setattr(config, attr, conv(value))
        except (ValueError, ConfigurationError) as exc:
            raise ConfigurationError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return config


def config_hash(config):
    text = json.dumps(asdict(config), sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def resolve_stabilization(config):
    kind = config.stabilization
    if kind == "auto":
        if config.mesh_family == "acute_rhombus":
            return "acute"
        return "xz"
    if kind == "none" and not config.allow_unstabilized:
        raise ConfigurationError(
            "stabilization = none voids the maximum-principle guarantees; "
            "set allow_unstabilized = true to override")
    if kind not in ("xz", "acute", "none"):
        raise ConfigurationError(f"unknown stabilization {kind!r}")
    return kind


def build_hamiltonian(config):
    if config.hamiltonian_kind == "huber":
        return huber_ball(config.hamiltonian_R)
    if config.hamiltonian_kind == "finite":
        return finite_control(config.hamiltonian_drifts, config.hamiltonian_costs,
                              smoothing=config.hamiltonian_epsilon)
    raise ConfigurationError(f"unknown hamiltonian kind {config.hamiltonian_kind!r}")


def build_problem(config):
    hamiltonian = build_hamiltonian(config)
    kind = config.problem_kind
    domain = ("acute_rhombus" if config.mesh_family == "acute_rhombus"
              else "xz_square")
    if kind == "manufactured":
        if config.problem_exact == "zero":
            return problem_mod.make_zero_problem(config.nu, hamiltonian, config.c_F,
                                                 domain=domain)
        if config.problem_exact != "sine_product":
            raise ConfigurationError(
                f"unknown exact-solution selector {config.problem_exact!r}")
        return problem_mod.make_manufactured(config.nu, hamiltonian, config.c_F,
                                             domain=domain)
    if kind == "g_one":
        return problem_mod.make_g_one_problem(config.nu, hamiltonian, config.c_F,
                                              domain=domain)
    if kind == "rough":
        if domain != "xz_square":
            raise ConfigurationError("the rough instance is defined on the unit square")
        return problem_mod.make_rough_density_problem(config.nu, hamiltonian, config.c_F)
    if kind == "zero":
        return problem_mod.make_zero_problem(config.nu, hamiltonian, config.c_F,
                                             domain=domain)
    raise ConfigurationError(f"unknown problem kind {kind!r}")


def root_mesh(config):
    """The mesh a ``file:<path>`` family refines; None for a built-in family."""
    family = config.mesh_family
    return read_mesh(family[5:]) if family.startswith("file:") else None


def build_mesh(config, level):
    return analysis.mesh_hierarchy(config.mesh_family, level, root=root_mesh(config))[level]


def discretize(config):
    """``(mesh, space, problem, stabilization kind, tensor)`` at mesh.level."""
    prob = build_problem(config)
    kind = resolve_stabilization(config)
    mesh = build_mesh(config, config.mesh_level)
    tensor = analysis.tensor_for(mesh, kind, prob.hamiltonian.L_H, prob.nu,
                                 omega_factor=config.omega_factor, mu=config.mu)
    return mesh, P1Space(mesh), prob, kind, tensor


def _write_json(payload, path, digest):
    with open(path, "w") as fh:
        fh.write(_to_json({"config_sha256": digest, **payload}))
        fh.write("\n")


def _to_json(payload):
    """Strict JSON text of a report: a non-finite float is written as the
    string "inf", "-inf" or "nan", which every JSON parser accepts."""
    return json.dumps(_plain(payload), indent=2, allow_nan=False, default=str)


def _plain(value):
    """``value`` with numpy containers and scalars made Python ones and
    non-finite floats made strings."""
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_plain(item) for item in value]
    if isinstance(value, (float, np.floating)):
        return float(value) if math.isfinite(value) else str(float(value))
    if isinstance(value, np.integer):
        return int(value)
    return value


# -- commands -------------------------------------------------------------------

def cmd_check_mesh(config):
    mesh = build_mesh(config, config.mesh_level)
    report = quality_report(mesh)
    kind = resolve_stabilization(config)
    if kind == "xz":
        condition_ok = report.xz_satisfied
    elif kind == "acute":
        condition_ok = report.acute_theta > 0.0
    else:
        condition_ok = True
    payload = asdict(report)
    payload.update({
        "level": config.mesh_level,
        "num_vertices": mesh.num_vertices,
        "num_triangles": mesh.num_triangles,
        "num_edges": mesh.num_edges,
        "stabilization": kind,
        "condition_ok": condition_ok,
    })
    print(_to_json({"config_sha256": config_hash(config), **payload}))
    return EXIT_OK if condition_ok else EXIT_VERIFY_FAILED


def cmd_solve(config):
    digest = config_hash(config)
    _, space, prob, kind, tensor = discretize(config)
    os.makedirs(config.output_dir, exist_ok=True)

    telemetry = {
        "config": asdict(config),
        "stabilization": kind,
        "level": config.mesh_level,
        "ndof": space.ndof,
    }
    # wall time goes to stdout, never into the files: identical config + seed
    # must reproduce the outputs byte for byte
    start = time.perf_counter()
    try:
        sol = solve_mfg(space, prob, tensor, config.solver_config())
    except NonConvergenceError as exc:
        telemetry.update({"converged": False, "history": exc.history,
                          "error": str(exc)})
        _write_json(telemetry, os.path.join(config.output_dir, "telemetry.json"), digest)
        return EXIT_NONCONVERGENCE
    elapsed = time.perf_counter() - start

    telemetry.update({
        "converged": True,
        "outer_iters": sol.outer_iters,
        "newton_iters_total": sol.newton_iters_total,
        "residual1_dual": sol.residual1_dual,
        "residual2_dual": sol.residual2_dual,
        "history": sol.history,
        "min_density": float(sol.m.coeffs.min(initial=0.0)),
    })
    function_to_csv(sol.u, os.path.join(config.output_dir, "solution_u.csv"),
                    header_comment=f"config {digest}")
    function_to_csv(sol.m, os.path.join(config.output_dir, "solution_m.csv"),
                    header_comment=f"config {digest}")
    _write_json(telemetry, os.path.join(config.output_dir, "telemetry.json"), digest)
    print(f"solved level {config.mesh_level} ({space.ndof} dofs) in {elapsed:.2f}s: "
          f"{sol.outer_iters} outer sweeps, residuals "
          f"({sol.residual1_dual:.2e}, {sol.residual2_dual:.2e})")
    return EXIT_OK


FIRST_ORDER = (0.85, 1.15)
SECOND_ORDER = (1.7, 2.3)


def _verdict(value, window):
    lo, hi = window
    return {"value": value, "window": [lo, hi], "pass": bool(lo <= value <= hi)}


def _convergence_verdicts(config, table):
    verdicts = {}
    if config.problem_kind in ("manufactured", "zero"):
        if config.problem_kind == "manufactured" and config.problem_exact == "sine_product":
            for fname, label in (("err_u_h1", "eoc_u_H1"), ("err_m_h1", "eoc_m_H1")):
                verdicts[label] = _verdict(table.finest_eoc(fname), FIRST_ORDER)
            # second-order L2 holds only once the stabilization has vanished on
            # both levels of the finest increment; an active tensor is an O(h)
            # perturbation of the diffusion and holds L2 at first order
            vanished = all(r.stab_term_u == 0.0 and r.stab_term_m == 0.0
                           for r in table.records[-2:])
            l2_window = SECOND_ORDER if vanished else FIRST_ORDER
            for fname, label in (("err_u_l2", "eoc_u_L2"), ("err_m_l2", "eoc_m_L2")):
                verdicts[label] = _verdict(table.finest_eoc(fname), l2_window)
    elif config.problem_kind == "rough":
        # the rough instance mixes rates pre-asymptotically, so it is judged on
        # the least-squares slope over all levels
        eoc_u = table.fitted_eoc("err_u_h1")
        eoc_m_h1 = table.fitted_eoc("err_m_h1")
        verdicts["eoc_u_H1"] = _verdict(eoc_u, (0.8, 1.2))
        verdicts["eoc_m_L2"] = _verdict(table.fitted_eoc("err_m_l2"), (0.8, 1.2))
        verdicts["eoc_m_H1_below_u"] = _verdict(eoc_u - eoc_m_h1, (0.2, math.inf))
    return verdicts


def cmd_convergence(config):
    if len(config.mesh_levels) < 3:
        raise ConfigurationError("EOC columns need at least 3 levels")
    digest = config_hash(config)
    prob = build_problem(config)
    kind = resolve_stabilization(config)
    table = analysis.run_convergence_study(
        prob, config.mesh_family, config.mesh_levels, kind, cfg=config.solver_config(),
        omega_factor=config.omega_factor, mu=config.mu,
        reference_offset=config.reference_offset, root=root_mesh(config))

    os.makedirs(config.output_dir, exist_ok=True)
    table.to_csv(os.path.join(config.output_dir, "eoc.csv"),
                 header_comment=f"config {digest}")
    verdicts = _convergence_verdicts(config, table)
    report = {
        "config": asdict(config),
        "stabilization": kind,
        "records": table.rows(),
        "verdicts": verdicts,
        "all_pass": bool(all(v["pass"] for v in verdicts.values())) if verdicts else True,
    }
    _write_json(report, os.path.join(config.output_dir, "report.json"), digest)
    return EXIT_OK if report["all_pass"] else EXIT_VERIFY_FAILED


def cmd_verify(config):
    digest = config_hash(config)
    mesh, space, prob, kind, tensor = discretize(config)
    if not prob.hamiltonian.smooth:
        raise ConfigurationError("Newton solver requires a smooth Hamiltonian")

    results = {}
    h1_report = stabilization.verify_h1(tensor, mesh)
    results["h1_tensor"] = {"pass": True,
                            "c_d_observed": h1_report.c_d_observed,
                            "min_eigenvalue": h1_report.min_eigenvalue}

    # a certified class needs only a sampled cross-check; otherwise sampling decides
    certified, margin = stabilization.certify_dmp(space, prob.nu, tensor,
                                                  prob.hamiltonian.L_H)
    trials = (min(config.verify_trials, stabilization.DMP_CROSS_CHECK_TRIALS)
              if certified else config.verify_trials)
    dmp_ok = stabilization.verify_h2_dmp(space, prob.nu, tensor,
                                         L_H=prob.hamiltonian.L_H,
                                         trials=trials, seed=config.seed)
    results["h2_dmp"] = {"pass": bool(dmp_ok), "certified": certified,
                         "margin": margin, "trials": trials}

    # the L2 monotonicity inequality is sampled around a tightly solved state
    # of the certified-nonnegative instance
    g_one = problem_mod.make_g_one_problem(config.nu, prob.hamiltonian, config.c_F,
                                           domain=prob.domain)
    tight = SolverConfig(tol_outer=1e-12, max_outer=max(config.max_outer, 400),
                         damping=config.damping, tol_newton=1e-12,
                         max_newton=config.max_newton)
    sol = solve_mfg(space, g_one, tensor, tight)
    mono_ok, worst = analysis.check_l2_monotonicity_inequality(
        space, g_one, tensor, sol, pairs=config.verify_pairs, seed=config.seed)
    results["l2_monotonicity"] = {"pass": bool(mono_ok), "worst_violation": worst,
                                  "pairs": config.verify_pairs}
    results["dmp_at_solution"] = {
        "pass": bool(analysis.verify_dmp_at_solution(sol, g_one)),
        "min_density": float(sol.m.coeffs.min(initial=0.0))}

    grad_err = check_gradient(prob.hamiltonian, samples=config.verify_gradient_samples,
                              seed=config.seed)
    results["gradient_check"] = {"pass": bool(grad_err < 1e-5),
                                 "max_relative_error": grad_err}
    ratio_here = check_semismooth_bound(prob.hamiltonian, space, seed=config.seed)
    finer = P1Space(refine_red(mesh))
    ratio_finer = check_semismooth_bound(prob.hamiltonian, finer, seed=config.seed)
    hi = max(ratio_here, ratio_finer)
    lo = max(min(ratio_here, ratio_finer), 1e-300)
    results["semismooth_ratio"] = {"pass": bool(hi / lo <= 2.0),
                                   "ratio_here": ratio_here,
                                   "ratio_finer": ratio_finer}

    all_pass = all(entry["pass"] for entry in results.values())
    report = {"config": asdict(config), "stabilization": kind,
              "results": results, "all_pass": bool(all_pass)}
    os.makedirs(config.output_dir, exist_ok=True)
    _write_json(report, os.path.join(config.output_dir, "report.json"), digest)
    print(json.dumps({"all_pass": all_pass}, indent=2))
    return EXIT_OK if all_pass else EXIT_VERIFY_FAILED


_COMMANDS = {
    "check-mesh": cmd_check_mesh,
    "solve": cmd_solve,
    "convergence": cmd_convergence,
    "verify": cmd_verify,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="mfgfem",
        description="Monotone stabilized P1 FEM for stationary mean field games")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("config", help="path to a flat key = value config file")
    args = parser.parse_args(argv)
    try:
        config = parse_config(args.config)
        return _COMMANDS[args.command](config)
    except (ConfigurationError, MeshFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except NonConvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except MFGError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
