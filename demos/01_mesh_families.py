"""Walk through the two built-in mesh families and the angle conditions that
decide which stabilization each one supports.

The structured square family satisfies the Xu-Zikatanov condition (every edge
sees opposite angles summing to at most pi: the diagonals pair two right
angles, the axis edges two 45-degree angles), but its right triangles are not
strictly acute.  The rhombus family is made of equilateral triangles, so it is
strictly acute with margin theta = pi/6 -- and strict acuteness implies XZ.
"""

import math
import os
import tempfile

import mfgfem as mf

print("structured square family")
mesh = mf.generate_structured_square(1)
for level in range(4):
    ok, worst = mf.check_xz(mesh)
    theta = mf.check_acute(mesh)
    print(f"  level {mesh.level}: {mesh.num_triangles:4d} triangles, "
          f"h = {mesh.h_max:.4f}, XZ: {ok} (worst cot sum {worst:.3f}), "
          f"acute theta = {theta:.4f}")
    mesh = mf.refine_red(mesh)

print()
print("acute rhombus family")
mesh = mf.generate_acute_rhombus(1)
for level in range(4):
    report = mf.quality_report(mesh)
    print(f"  level {mesh.level}: {mesh.num_triangles:4d} triangles, "
          f"h = {report.h_max:.4f}, XZ: {report.xz_satisfied}, "
          f"acute theta = {report.acute_theta:.4f} (pi/6 = {math.pi / 6:.4f}), "
          f"shape regularity = {report.shape_regularity:.3f}")
    mesh = mf.refine_red(mesh)

print()
print("a mesh that violates the XZ condition (two 100-degree angles across one edge)")
height = 0.5 / math.tan(math.radians(50.0))
kite = mf.Mesh2D([(0, 0), (1, 0), (0.5, height), (0.5, -height)],
                 [(0, 1, 2), (0, 3, 1)])
ok, worst = mf.check_xz(kite)
print(f"  XZ satisfied: {ok}, worst cotangent sum = {worst:.5f}")

print()
print("MFGMESH round trip")
square = mf.generate_structured_square(2)
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "square.txt")
    mf.write_mesh(square, path)
    back = mf.read_mesh(path)
print(f"  wrote and re-read {back.num_vertices} vertices, "
      f"{back.num_triangles} triangles; vertices identical: "
      f"{(back.vertices == square.vertices).all()}")
