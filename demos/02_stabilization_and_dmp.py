"""Build both stabilization tensors, certify the discrete maximum principle
for the whole advection class and probe it by sampling.

The edge tensor adds a rank-one diffusion omega_E t_E t_E^T per internal edge
(weights proportional to L_H times the edge length), sized so that every
advection operator with drift bounded by L_H becomes monotone.  On strictly
acute meshes an isotropic artificial diffusion does the same job, and it
switches itself off once nu dominates on fine meshes.
"""

import numpy as np

import mfgfem as mf

L_H = 1.0
NU = 1.0

print("edge tensor on the XZ square family")
mesh = mf.generate_structured_square(1)
for _ in range(5):
    mesh = mf.refine_red(mesh)
    tensor = mf.build_xz_tensor(mesh, L_H)
    report = mf.verify_h1(tensor, mesh)
    print(f"  level {mesh.level}: c_d observed = {report.c_d_observed:.4f} "
          f"(level-independent), min eigenvalue = {report.min_eigenvalue:.2e}")

print()
print("artificial diffusion on the rhombus family: the clamp level")
mesh = mf.generate_acute_rhombus(1)
for level in range(5):
    tensor = mf.build_acute_tensor(mesh, L_H, NU, mu=1.1)
    size = np.abs(tensor.per_element).max()
    print(f"  level {mesh.level}: max |D| = {size:.4f}"
          + ("  (vanished)" if tensor.is_zero else ""))
    mesh = mf.refine_red(mesh)

print()
print("the discrete maximum principle for every drift with |b| <= L_H:")
print("certified once per mesh (largest off-diagonal of K + drift bound < 0), then sampled")
for family, make_mesh, make_tensor in (
        ("xz_square", mf.generate_structured_square,
         lambda m: mf.build_xz_tensor(m, L_H)),
        ("acute_rhombus", mf.generate_acute_rhombus,
         lambda m: mf.build_acute_tensor(m, L_H, NU))):
    mesh = make_mesh(16)
    space = mf.P1Space(mesh)
    tensor = make_tensor(mesh)
    certified, margin = mf.certify_dmp(space, NU, tensor, L_H)
    print(f"  {family}: certificate margin = {margin:.4f}, certified: {certified}")
    ok = mf.verify_h2_dmp(space, NU, tensor, L_H=L_H, trials=100, seed=0)
    print(f"  {family}: 100 random drift/load trials, nonnegative solutions: {ok}")

print()
print("without stabilization, strong drift breaks monotonicity on the square")
mesh = mf.generate_structured_square(8)
space = mf.P1Space(mesh)
certified, margin = mf.certify_dmp(space, 0.05, None, 8.0 * np.sqrt(2.0))
print(f"  nu = 0.05, |b| <= 8 sqrt(2), no tensor -> certificate margin = {margin:+.4f}, "
      f"certified: {certified}")
drift = np.tile([8.0, 8.0], (mesh.num_triangles, 1))
ok = mf.verify_h2_dmp(space, 0.05, None, drift=drift, trials=40, seed=3)
print(f"  nu = 0.05, |b| = 8 sqrt(2), no tensor -> all trials nonnegative: {ok}")
