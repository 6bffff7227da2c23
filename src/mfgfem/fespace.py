"""Nodal P1 finite element space on a :class:`~mfgfem.mesh.Mesh2D`.

Degrees of freedom are the interior vertices only; boundary values are
identically zero (homogeneous Dirichlet).  Gradients of discrete functions are
constant on each triangle, which is what makes the Hamiltonian terms of the
discrete system computable element by element.  A mesh has one space:
``P1Space(mesh)`` returns the mesh's live space while there is one, so a
ladder, its ``parent`` chain and every solve on a mesh share it.  The space of
a red refinement knows the space it refines (``parent``) and the exact nested
injection from it (``prolongation``), which the multigrid hierarchy and the
reference-error injection both use.

A space holds what depends on it alone, each built by ``assembly`` on first
use: the CSR pattern of its operators (``pattern``), its mass matrix
(``mass``) and its H1 Gram matrix, mass plus unit stiffness (``h1_gram``).
Per-element data it reads from its mesh where used: ``elem_dofs`` is gathered
on each read (the scatters gather it per element block), and ``elem_grads`` is
the mesh's ``basis_gradients``, so a parent space that only serves a
prolongation never computes basis gradients.
``quadrature_xy`` gives the physical quadrature points of any range of
elements, so loads and errors can walk the mesh in blocks.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import assembly
from .errors import ConfigurationError, NumericError


class P1Space:
    """Interior-vertex P1 space: dof maps, and the element areas, dofs and
    basis gradients of its mesh.  Of these it stores the dof maps and the
    mesh's ``areas``; ``elem_dofs`` and ``elem_grads`` are read from the mesh
    when used."""

    _live = weakref.WeakValueDictionary()  # mesh -> its space, while one is referenced

    def __new__(cls, mesh):
        return P1Space._live.get(mesh) or super().__new__(cls)

    def __init__(self, mesh):
        if P1Space._live.get(mesh) is self:  # built already
            return
        self.mesh = mesh
        interior = np.nonzero(mesh.interior_vertex_mask)[0]
        self.vertex_of_dof = interior
        self.dof_of_vertex = -np.ones(mesh.num_vertices, dtype=np.int64)
        self.dof_of_vertex[interior] = np.arange(len(interior))
        self.ndof = len(interior)
        self.elem_areas = mesh.areas
        for arr in (self.vertex_of_dof, self.dof_of_vertex):
            arr.setflags(write=False)
        P1Space._live[mesh] = self

    @property
    def elem_dofs(self):
        """Dofs of the vertices of every triangle, (nt, 3); -1 marks a
        boundary vertex.  Gathered on each read."""
        return self.dof_of_vertex[self.mesh.triangles]

    @property
    def elem_grads(self):
        """Basis gradients per triangle, (nt, 3, 2): the mesh's
        ``basis_gradients``, computed on the first read and kept by the mesh."""
        return self.mesh.basis_gradients

    @cached_property
    def pattern(self):
        """CSR pattern of the operators on interior dofs (``assembly.csr_pattern``)."""
        return assembly.csr_pattern(self.mesh, self.dof_of_vertex)

    @cached_property
    def mass(self):
        """Mass matrix on ``pattern``."""
        return assembly.assemble_mass(self)

    @cached_property
    def h1_gram(self):
        """H1 Gram matrix, mass plus unit stiffness, on ``pattern``."""
        return assembly.assemble_h1_gram(self)

    @cached_property
    def parent(self):
        """The live space of the mesh this one refines; None for a root mesh."""
        return None if self.mesh.parent is None else P1Space(self.mesh.parent)

    @cached_property
    def prolongation(self):
        """Exact nested P1 injection from the parent space, an (ndof x parent
        ndof) CSR matrix; None without a parent or when it has no interior dof.

        Red refinement keeps the parent's vertices and appends one midpoint per
        parent edge in the parent's edge order, so a coarse function keeps its
        values there and takes the average of the two edge ends at each
        midpoint; boundary values are zero, so their columns are dropped.
        """
        parent = self.parent
        if parent is None or parent.ndof == 0:
            return None
        inherited = parent.mesh.num_vertices
        pairs = parent.mesh.edges
        rows = np.concatenate([self.dof_of_vertex[:inherited],
                               np.repeat(self.dof_of_vertex[inherited:], 2)])
        cols = parent.dof_of_vertex[np.concatenate([np.arange(inherited), pairs.ravel()])]
        vals = np.concatenate([np.ones(inherited), np.full(pairs.size, 0.5)])
        keep = (rows >= 0) & (cols >= 0)
        return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])),
                             shape=(self.ndof, parent.ndof))

    def zero_function(self):
        return P1Function(self, np.zeros(self.ndof))

    def __repr__(self):
        return f"P1Space(ndof={self.ndof}, mesh={self.mesh!r})"


@dataclass
class P1Function:
    """Piecewise affine function vanishing on the boundary.

    ``coeffs`` holds the interior nodal values in dof order.
    """
    space: P1Space
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.space.ndof,):
            raise ConfigurationError(
                f"coefficient vector has length {self.coeffs.shape}, expected {self.space.ndof}")

    def nodal_values(self):
        """Full per-vertex value vector, zeros at boundary vertices."""
        full = np.zeros(self.space.mesh.num_vertices)
        full[self.space.vertex_of_dof] = self.coeffs
        return full

    def element_gradients(self, blk=slice(None), nodal=None):
        """Gradients on the triangles ``blk`` (all by default), shape (k, 2);
        ``nodal`` is ``nodal_values()``, computed here if None.  Each
        gradient is bitwise the same whatever the slice."""
        if nodal is None:
            nodal = self.nodal_values()
        vals = nodal[self.space.mesh.triangles[blk]]  # (k, 3)
        return np.einsum("ti,tid->td", vals, self.space.elem_grads[blk])

    def values_at_quadrature(self, rule):
        """Values at the physical quadrature points of every triangle, (nt, nq)."""
        vals = self.nodal_values()[self.space.mesh.triangles]
        return vals @ rule.points.T


def interpolate(space, f):
    """Nodal interpolant: coeffs[i] = f(x_i, y_i) at interior vertices.

    ``f`` must accept numpy arrays (x, y) elementwise.
    """
    xy = space.mesh.vertices[space.vertex_of_dof]
    values = np.asarray(f(xy[:, 0], xy[:, 1]), dtype=float)
    values = np.broadcast_to(values, (space.ndof,)).copy()
    if not np.all(np.isfinite(values)):
        raise NumericError("interpolated field is non-finite at an interior vertex")
    return P1Function(space, values)


@dataclass(frozen=True)
class QuadratureRule:
    """Symmetric rule on the reference triangle; weights sum to one and are
    scaled by the element area at the point of use."""
    points: np.ndarray   # (nq, 3) barycentric coordinates
    weights: np.ndarray  # (nq,), positive
    degree: int


def _perm3(a):
    b = 1.0 - 2.0 * a
    return [(b, a, a), (a, b, a), (a, a, b)]


def _perm6(a, b):
    c = 1.0 - a - b
    return [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]


def _rule(points, weights, degree):
    return QuadratureRule(points=np.array(points), weights=np.array(weights), degree=degree)


_CENTROID = _rule([(1 / 3, 1 / 3, 1 / 3)], [1.0], 1)

_DEG2 = _rule(_perm3(1 / 6), [1 / 3] * 3, 2)

# Strang-Fix degree 4, 6 points (also serves requested degree 3)
_A4, _WA4 = 0.445948490915965, 0.223381589678011
_B4, _WB4 = 0.091576213509771, 0.109951743655322
_DEG4 = _rule(_perm3(_A4) + _perm3(_B4), [_WA4] * 3 + [_WB4] * 3, 4)

_SQ15 = np.sqrt(15.0)
_DEG5 = _rule(
    [(1 / 3, 1 / 3, 1 / 3)] + _perm3((6 + _SQ15) / 21) + _perm3((6 - _SQ15) / 21),
    [9 / 40] + [(155 + _SQ15) / 1200] * 3 + [(155 - _SQ15) / 1200] * 3,
    5)

_DEG6 = _rule(
    _perm3(0.063089014491502) + _perm3(0.249286745170910)
    + _perm6(0.636502499121399, 0.310352451033785),
    [0.050844906370207] * 3 + [0.116786275726379] * 3 + [0.082851075618374] * 6,
    6)

_RULES = {1: _CENTROID, 2: _DEG2, 3: _DEG4, 4: _DEG4, 5: _DEG5, 6: _DEG6}


def quadrature(degree):
    """Positive-weight symmetric rule exact at least to ``degree`` (1..6)."""
    try:
        return _RULES[int(degree)]
    except (KeyError, ValueError):
        raise ConfigurationError(f"unsupported quadrature degree {degree!r}") from None


def quadrature_xy(mesh, rule, start=0, stop=None):
    """Physical quadrature points of the triangles ``start:stop`` as contiguous
    ``(x, y)`` arrays of shape (stop - start, nq): per coordinate, the sum of
    the three vertex terms in vertex order."""
    tris = mesh.triangles[start:stop]
    lam = rule.points
    out = []
    for coord in mesh.vertices.T:
        c = coord[tris]
        out.append(lam[:, 0] * c[:, :1] + lam[:, 1] * c[:, 1:2] + lam[:, 2] * c[:, 2:])
    return out


def function_to_csv(fn, path, header_comment=None):
    """Export 'vertex_index,x,y,value' rows, boundary vertices included."""
    mesh = fn.space.mesh
    full = fn.nodal_values()
    with open(path, "w") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.write("vertex_index,x,y,value\n")
        for i, ((x, y), v) in enumerate(zip(mesh.vertices, full)):
            fh.write(f"{i},{x:.17g},{y:.17g},{v:.17g}\n")
