"""2D conforming triangulations: structured families, nested red refinement,
and the angle conditions (XZ / strict acuteness) that gate the stabilizations.

Conventions
-----------
* Triangles are stored counterclockwise; construction reorients clockwise input.
* An edge joins vertex ``i < j``.  Edges adjacent to exactly one triangle lie on
  the boundary; their endpoints are the boundary vertices.
* An edge is *internal* if it touches at least one interior vertex.  This is the
  set of edges that carries stabilization weights; it is a subset of the edges
  shared by two triangles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import GeometryError, MeshFormatError

GEOM_TOL = 1e-12

# Sentinel worst cotangent sum when a mesh has no two-triangle edges at all.
XZ_VACUOUS = math.inf


def _cross2(a, b):
    """z-component of the cross product of 2D vectors (vectorized)."""
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


class Mesh2D:
    """Conforming triangulation of a polygon with full edge connectivity.

    Parameters
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array
        Vertex index triples; clockwise triples are silently reoriented.
    parent : Mesh2D, optional
        The coarser mesh this one refines (set by :func:`refine_red`); the
        refinement ``level`` is 0 without one and the parent's plus 1 with one.

    Each relation is stored once: ``edges`` (ne, 2) and ``tri_edges`` (nt, 3),
    the edge opposite each local vertex; the triangles of an edge are the rows
    of ``tri_edges`` that name it.  ``areas`` are the absolute signed areas of
    the orientation pass.  The instance is immutable after construction;
    arrays are write-protected.
    """

    def __init__(self, vertices, triangles, parent=None):
        vertices = np.ascontiguousarray(vertices, dtype=float)
        triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise GeometryError("vertices must be an (nv, 2) array")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise GeometryError("triangles must be an (nt, 3) array")
        if not np.all(np.isfinite(vertices)):
            raise GeometryError("non-finite vertex coordinates")
        nv = len(vertices)
        if triangles.size and (triangles.min() < 0 or triangles.max() >= nv):
            raise GeometryError("triangle vertex index out of range")

        # orient counterclockwise, which negates a signed area exactly, so the
        # areas are the absolute signed areas; reject degenerate triangles by the
        # ratio of area to squared longest edge, which red refinement leaves unchanged
        p = vertices[triangles]
        signed = 0.5 * _cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        areas = np.abs(signed)
        sides = p - p[:, [2, 0, 1]]
        thin = areas <= GEOM_TOL * (sides ** 2).sum(axis=2).max(axis=1, initial=0.0)
        if np.any(thin):
            raise GeometryError(f"triangle {int(np.argmax(thin))} has (near-)zero area")
        flip = signed < 0
        if np.any(flip):
            triangles = triangles.copy()
            triangles[flip] = triangles[flip][:, [0, 2, 1]]

        self.vertices = vertices
        self.triangles = triangles
        self.areas = areas
        self.level = 0 if parent is None else parent.level + 1
        self.parent: Optional[Mesh2D] = parent

        self._build_edges()
        for arr in (self.vertices, self.triangles, self.areas, self.edges, self.tri_edges):
            arr.setflags(write=False)

    # -- connectivity -----------------------------------------------------

    def _build_edges(self):
        tris = self.triangles
        nt = len(tris)
        # local edge s is opposite local vertex s
        locals_ = [(1, 2), (2, 0), (0, 1)]
        pairs = np.empty((3 * nt, 2), dtype=np.int64)
        for s, (a, b) in enumerate(locals_):
            pairs[s::3, 0] = tris[:, a]
            pairs[s::3, 1] = tris[:, b]
        pairs.sort(axis=1)
        # one sort of the key a * nv + b orders the pairs as edges are numbered,
        # lexicographically
        key = pairs[:, 0] * len(self.vertices) + pairs[:, 1]
        order = np.argsort(key)
        first = np.diff(key[order], prepend=-1) != 0
        sorted_edges = np.cumsum(first) - 1
        inverse = np.empty_like(sorted_edges)
        inverse[order] = sorted_edges
        edges = pairs[order[first]]

        counts = np.bincount(inverse, minlength=len(edges))
        if np.any(counts > 2):
            raise GeometryError("non-conforming mesh: an edge is shared by more than two triangles")

        self.edges = edges
        self.tri_edges = inverse.reshape(nt, 3)

        boundary_edges = counts == 1
        flags = np.zeros(len(self.vertices), dtype=bool)
        flags[edges[boundary_edges].ravel()] = True
        self.boundary_vertex_flags = flags
        self.boundary_edge_flags = boundary_edges
        self.boundary_vertex_flags.setflags(write=False)
        self.boundary_edge_flags.setflags(write=False)

        if np.any(np.bincount(tris.ravel(), minlength=len(self.vertices)) == 0):
            raise GeometryError("mesh contains a vertex not used by any triangle")

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_triangles(self):
        return len(self.triangles)

    @property
    def num_edges(self):
        return len(self.edges)

    @cached_property
    def interior_vertex_mask(self):
        return ~self.boundary_vertex_flags

    @cached_property
    def internal_edge_mask(self):
        """Edges touching at least one interior vertex (stabilization support)."""
        return self.interior_vertex_mask[self.edges].any(axis=1)

    # -- geometry ---------------------------------------------------------

    @cached_property
    def edge_lengths(self):
        d = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
        return np.hypot(d[:, 0], d[:, 1])

    @cached_property
    def diameters(self):
        """Per-triangle diameter (longest edge)."""
        return self.edge_lengths[self.tri_edges].max(axis=1)

    @cached_property
    def inradii(self):
        s = 0.5 * self.edge_lengths[self.tri_edges].sum(axis=1)
        return self.areas / s

    @cached_property
    def basis_gradients(self):
        """Constant P1 basis gradients per triangle, shape (nt, 3, 2).

        grad xi_i = (y_j - y_k, x_k - x_j) / (2 area) with (i, j, k) cyclic.
        """
        p = self.vertices[self.triangles]
        g = np.empty((len(self.triangles), 3, 2))
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            g[:, i, 0] = p[:, j, 1] - p[:, k, 1]
            g[:, i, 1] = p[:, k, 0] - p[:, j, 0]
        g /= (2.0 * self.areas)[:, None, None]
        return g

    @cached_property
    def barycenters(self):
        return self.vertices[self.triangles].mean(axis=1)

    @property
    def h_max(self):
        return float(self.diameters.max())

    @property
    def shape_regularity(self):
        """Observed max of diam(K) / inradius(K); constant within a family."""
        return float((self.diameters / self.inradii).max())

    def __repr__(self):
        return (f"Mesh2D(level={self.level}, nv={self.num_vertices}, "
                f"nt={self.num_triangles}, h={self.h_max:.4g})")


@dataclass
class MeshQualityReport:
    """Geometric quality summary used to gate the stabilization choices."""
    h_max: float
    shape_regularity: float
    xz_satisfied: bool
    xz_worst_edge_sum: float
    acute_theta: float


# -- generators -----------------------------------------------------------

def generate_structured_square(n):
    """Uniform n-by-n triangulation of the unit square.

    Each cell is cut by the diagonal from its lower-left to its upper-right
    corner; all 2 n^2 right triangles are congruent and the family satisfies
    the XZ condition at every refinement level.
    """
    if n < 1:
        raise GeometryError("n must be >= 1")
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    i = np.arange(n)
    I, J = np.meshgrid(i, i, indexing="xy")
    ll = (J * (n + 1) + I).ravel()
    lr = ll + 1
    ul = ll + (n + 1)
    ur = ul + 1
    lower = np.column_stack([ll, lr, ur])
    upper = np.column_stack([ll, ur, ul])
    triangles = np.vstack([lower, upper])
    return Mesh2D(vertices, triangles)


def generate_acute_rhombus(n):
    """Rhombus (0,0), (1,0), (3/2, sqrt3/2), (1/2, sqrt3/2) cut into 2 n^2
    congruent equilateral triangles of side 1/n (strictly acute, theta = pi/6)."""
    if n < 1:
        raise GeometryError("n must be >= 1")
    u = np.array([1.0, 0.0]) / n
    v = np.array([0.5, math.sqrt(3.0) / 2.0]) / n
    I, J = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="xy")
    vertices = I.ravel()[:, None] * u + J.ravel()[:, None] * v

    i = np.arange(n)
    I, J = np.meshgrid(i, i, indexing="xy")
    a = (J * (n + 1) + I).ravel()
    b = a + 1
    d = a + (n + 1)
    c = d + 1
    # short diagonal (b, d) splits each cell into two equilateral triangles
    triangles = np.vstack([np.column_stack([a, b, d]),
                           np.column_stack([b, c, d])])
    return Mesh2D(vertices, triangles)


def refine_red(mesh):
    """Split every triangle into 4 similar children through edge midpoints.

    Inherited vertices keep their indices; one new vertex per parent edge is
    appended in edge order, which makes nested P1 injection a direct lookup.
    """
    nv = mesh.num_vertices
    mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    vertices = np.vstack([mesh.vertices, mids])

    tris = mesh.triangles
    m = nv + mesh.tri_edges  # midpoint vertex ids per (triangle, opposite-local-vertex)
    v0, v1, v2 = tris[:, 0], tris[:, 1], tris[:, 2]
    m0, m1, m2 = m[:, 0], m[:, 1], m[:, 2]
    children = np.vstack([
        np.column_stack([v0, m2, m1]),
        np.column_stack([v1, m0, m2]),
        np.column_stack([v2, m1, m0]),
        np.column_stack([m0, m1, m2]),
    ])
    return Mesh2D(vertices, children, parent=mesh)


# -- angle conditions ------------------------------------------------------

def _cotangents(mesh):
    """Cotangent of the angle opposite each local edge, shape (nt, 3)."""
    p = mesh.vertices[mesh.triangles]
    cots = np.empty((mesh.num_triangles, 3))
    for s in range(3):
        # edge s is opposite local vertex s; the angle sits at vertex s
        a = p[:, (s + 1) % 3] - p[:, s]
        b = p[:, (s + 2) % 3] - p[:, s]
        cross = np.abs(_cross2(a, b))
        if np.any(cross <= 0.0):
            raise GeometryError("degenerate triangle in cotangent computation")
        cots[:, s] = (a * b).sum(axis=1) / cross
    return cots


def check_xz(mesh):
    """Check the XZ condition: for every edge shared by two triangles, the sum
    of cotangents of the two opposite angles must be nonnegative (equivalently
    the two opposite angles sum to at most pi).

    Returns ``(satisfied, worst_sum)``; ``worst_sum`` is +inf when the mesh has
    no two-triangle edges (vacuous condition).
    """
    cots = _cotangents(mesh)
    sums = np.bincount(mesh.tri_edges.ravel(), weights=cots.ravel(),
                       minlength=mesh.num_edges)
    shared = ~mesh.boundary_edge_flags
    if not shared.any():
        return True, XZ_VACUOUS
    worst = float(sums[shared].min())
    return worst >= -GEOM_TOL, worst


def check_acute(mesh):
    """Largest theta >= 0 such that every triangle's largest angle is at most
    pi/2 - theta; 0 when the mesh is not strictly acute."""
    cots = _cotangents(mesh)
    # angle in (0, pi) from its cotangent
    angles = np.arctan2(1.0, cots)
    theta = math.pi / 2.0 - float(angles.max())
    return max(theta, 0.0)


def quality_report(mesh):
    ok, worst = check_xz(mesh)
    return MeshQualityReport(
        h_max=mesh.h_max,
        shape_regularity=mesh.shape_regularity,
        xz_satisfied=ok,
        xz_worst_edge_sum=worst,
        acute_theta=check_acute(mesh),
    )


# -- MFGMESH ASCII I/O -----------------------------------------------------

def write_mesh(mesh, path):
    """Write the MFGMESH 1 ASCII format (17 significant digit coordinates)."""
    with open(path, "w") as fh:
        fh.write("MFGMESH 1\n")
        fh.write(f"vertices {mesh.num_vertices}\n")
        for x, y in mesh.vertices:
            fh.write(f"{x:.17g} {y:.17g}\n")
        fh.write(f"triangles {mesh.num_triangles}\n")
        for a, b, c in mesh.triangles:
            fh.write(f"{a} {b} {c}\n")


def read_mesh(path):
    """Read an MFGMESH 1 file; raises :class:`MeshFormatError` with the
    offending line number on malformed input."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise MeshFormatError(f"not UTF-8 text: {exc}") from None
    except OSError as exc:
        raise MeshFormatError(f"cannot read mesh file: {exc}") from None

    def need(idx):
        if idx >= len(lines):
            raise MeshFormatError("unexpected end of file", line=len(lines) + 1)
        return lines[idx]

    def count(row, name):
        """The count N of the 'name N' line at ``row``, checked against the
        lines that follow it before anything of that size is allocated."""
        head = need(row).split()
        if len(head) != 2 or head[0] != name:
            raise MeshFormatError(f"expected '{name} N'", line=row + 1)
        try:
            n = int(head[1])
        except ValueError:
            raise MeshFormatError(f"{name} count is not an integer", line=row + 1) from None
        if n < 0:
            raise MeshFormatError(f"{name} count {n} is negative", line=row + 1)
        if n > len(lines) - row - 1:
            raise MeshFormatError(f"{name} count {n} exceeds the lines that follow",
                                  line=row + 1)
        return n

    if need(0).strip() != "MFGMESH 1":
        raise MeshFormatError("expected header 'MFGMESH 1'", line=1)
    nv = count(1, "vertices")
    vertices = np.empty((nv, 2))
    for k in range(nv):
        parts = lines[2 + k].split()
        if len(parts) != 2:
            raise MeshFormatError("expected 'x y'", line=3 + k)
        try:
            vertices[k] = [float(parts[0]), float(parts[1])]
        except ValueError:
            raise MeshFormatError("coordinate is not a number", line=3 + k) from None

    row = 2 + nv
    nt = count(row, "triangles")
    triangles = np.empty((nt, 3), dtype=np.int64)
    for k in range(nt):
        parts = lines[row + 1 + k].split()
        if len(parts) != 3:
            raise MeshFormatError("expected 'i j k'", line=row + 2 + k)
        try:
            idx = [int(v) for v in parts]
        except ValueError:
            raise MeshFormatError("vertex index is not an integer", line=row + 2 + k) from None
        if min(idx) < 0 or max(idx) >= nv:
            raise MeshFormatError("vertex index out of range", line=row + 2 + k)
        triangles[k] = idx

    try:
        return Mesh2D(vertices, triangles)
    except GeometryError as exc:
        raise MeshFormatError(str(exc)) from exc
