"""Span tracer that times calls into mfgfem's layers from outside the package.

Nothing in ``src/mfgfem`` is instrumented.  While ``Tracer.installed()`` is
active, the public functions listed in ``TARGETS`` are swapped, in every
``mfgfem`` module namespace that refers to them, for wrappers that record one
span per call: its layer name, start, end and parent span.  SciPy's ``splu``
and the ``solve`` method of the factorization it returns are wrapped the same
way, as are ``value``/``grad_p`` of every Huber Hamiltonian built meanwhile.
Spans stay in memory until ``dump`` writes them out.

A layer's self time is its span duration minus the time its direct child
spans cover; calls run on one thread, so siblings never overlap and the
covered time is the sum of the children's durations.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import scipy.sparse.linalg as spla

# (layer, module, attribute): each call of mfgfem.<module>.<attribute> is one
# span named after its layer.  "Class.method" attributes are patched on the class.
TARGETS = (
    ("mesh.refine", "mesh", "refine_red"),
    ("fespace.space", "fespace", "P1Space.__init__"),
    ("stabilization.build", "stabilization", "build_xz_tensor"),
    ("stabilization.build", "stabilization", "build_acute_tensor"),
    ("stabilization.verify_dmp", "stabilization", "verify_h2_dmp"),
    ("hamiltonian.check", "hamiltonian", "check_gradient"),
    ("hamiltonian.check", "hamiltonian", "check_semismooth_bound"),
    ("problem.certify", "problem", "make_manufactured"),
    ("problem.certify", "problem", "make_rough_density_problem"),
    ("problem.certify", "problem", "make_g_one_problem"),
    ("problem.load", "problem", "source_load"),
    ("problem.load", "problem", "scalar_load"),
    ("problem.load", "problem", "vector_load"),
    ("problem.load", "problem", "CouplingF.load_vector"),
    ("problem.load", "problem", "SourceG.load_vector"),
    ("assembly.diffusion", "assembly", "assemble_diffusion"),
    ("assembly.drift", "assembly", "assemble_hjb_drift"),
    ("assembly.drift", "assembly", "assemble_kfp_drift"),
    ("assembly.hamiltonian_load", "assembly", "hamiltonian_load"),
    ("assembly.residual", "assembly", "assemble_hjb_nonlinear_residual"),
    ("assembly.residual", "assembly", "assemble_kfp_residual"),
    ("assembly.mass_gram", "assembly", "assemble_mass"),
    ("assembly.mass_gram", "assembly", "assemble_h1_gram"),
    ("solver.mfg", "solver", "solve_mfg"),
    ("solver.hjb", "solver", "solve_hjb"),
    ("solver.kfp", "solver", "solve_kfp"),
    ("solver.dual_norm", "solver", "riesz_dual_norm"),
    ("analysis.error", "analysis", "error_h1"),
    ("analysis.error", "analysis", "error_l2"),
    ("analysis.error", "analysis", "error_vs_reference"),
    ("analysis.error", "analysis", "stabilization_error_term"),
    ("analysis.inject", "analysis", "inject_to_descendant"),
    ("analysis.monotonicity", "analysis", "check_l2_monotonicity_inequality"),
    ("cli.verify", "cli", "main"),
)

# What a span's value holds, per layer: the result summary the metrics need.
_VALUE_OF = {
    "solver.mfg": lambda sol: (sol.outer_iters, sol.newton_iters_total),
    "solver.hjb": lambda result: result[1],
}

# Per-layer metrics in output order, with their units.  "<layer>_s" is self
# time and "<layer>_calls" the number of spans; the rest are derived below.
PER_LAYER = (
    ("mesh.refine_s", "s"), ("mesh.refine_calls", "count"),
    ("fespace.space_s", "s"),
    ("stabilization.build_s", "s"), ("stabilization.verify_dmp_s", "s"),
    ("hamiltonian.eval_calls", "count"), ("hamiltonian.eval_s", "s"),
    ("hamiltonian.check_s", "s"),
    ("problem.load_s", "s"), ("problem.certify_s", "s"),
    ("assembly.diffusion_calls", "count"), ("assembly.diffusion_s", "s"),
    ("assembly.drift_calls", "count"), ("assembly.drift_s", "s"),
    ("assembly.hamiltonian_load_s", "s"), ("assembly.residual_s", "s"),
    ("assembly.mass_gram_s", "s"),
    ("lu.factor_calls", "count"), ("lu.factor_s", "s"), ("lu.fill_nnz", "nnz"),
    ("lu.solve_calls", "count"), ("lu.solve_s", "s"),
    ("solver.outer_sweeps", "count"), ("solver.newton_steps", "count"),
    ("solver.linesearch_halvings", "count"),
    ("solver.hjb_s", "s"), ("solver.kfp_s", "s"),
    ("solver.dual_norm_calls", "count"), ("solver.dual_norm_s", "s"),
    ("analysis.error_s", "s"), ("analysis.inject_s", "s"),
    ("analysis.monotonicity_s", "s"),
    ("cli.verify_s", "s"),
)

NAME, START, END, PARENT, ROOT, VALUE = range(6)


def mfgfem_namespaces():
    return [mod for name, mod in list(sys.modules.items())
            if name == "mfgfem" or name.startswith("mfgfem.")]


class Patches:
    """Attribute swaps that are undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def everywhere(self, original, replacement):
        """Swap ``original`` in every mfgfem namespace that refers to it."""
        for mod in mfgfem_namespaces():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, replacement)

    def undo(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class _TracedLU:
    """A SuperLU factorization whose ``solve`` calls are spans."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._solve = tracer.wrap("lu.solve", lu.solve)

    def solve(self, *args, **kwargs):
        return self._solve(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent, root, value]
        self._stack = []

    def _enter(self, name, value=None):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][ROOT] if parent >= 0 else index
        self._stack.append(index)
        self.spans.append([name, time.perf_counter(), 0.0, parent, root, value])
        return index

    def _exit(self, index):
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name, value=None):
        index = self._enter(name, value)
        try:
            yield index
        finally:
            self._exit(index)

    def wrap(self, name, fn, value_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if value_of is not None:
                self.spans[index][VALUE] = value_of(out)
            return out
        return traced

    def _splu(self, original):
        @functools.wraps(original)
        def splu(*args, **kwargs):
            index = self._enter("lu.factor")
            try:
                lu = original(*args, **kwargs)
            finally:
                self._exit(index)
            # fill is computed from the factors, not measured; computing it is
            # a span of its own so that its cost is charged to no layer
            with self.span("trace.fill"):
                self.spans[index][VALUE] = lu.L.nnz + lu.U.nnz
            return _TracedLU(lu, self)
        return splu

    def _huber_ball(self, original):
        @functools.wraps(original)
        def huber_ball(*args, **kwargs):
            spec = original(*args, **kwargs)
            return dataclasses.replace(
                spec, value=self.wrap("hamiltonian.eval", spec.value),
                grad_p=self.wrap("hamiltonian.eval", spec.grad_p))
        return huber_ball

    @contextmanager
    def installed(self):
        """Route calls into the traced layers through span-recording wrappers."""
        import mfgfem

        patches = Patches()
        try:
            for layer, module, attr in TARGETS:
                owner = getattr(mfgfem, module)
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name, None)
                original = getattr(owner, attr, None)
                if original is None:
                    continue  # a function the package no longer has is no layer call
                wrapped = self.wrap(layer, original, _VALUE_OF.get(layer))
                if isinstance(owner, type):
                    patches.set(owner, attr, wrapped)
                else:
                    patches.everywhere(original, wrapped)
            original = mfgfem.hamiltonian.huber_ball
            patches.everywhere(original, self._huber_ball(original))
            patches.set(spla, "splu", self._splu(spla.splu))
            yield self
        finally:
            patches.undo()

    def self_times(self):
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        return [span[END] - span[START] - cov for span, cov in zip(self.spans, covered)]

    def layer_metrics(self, roots, self_time):
        """Per-layer metrics summed over the spans below the given root spans."""
        roots = set(roots)
        seconds = defaultdict(float)
        calls = defaultdict(int)
        loads_in = defaultdict(int)
        fill = sweeps = newton = halvings = 0
        for index, span in enumerate(self.spans):
            if span[ROOT] not in roots:
                continue
            name = span[NAME]
            seconds[name] += self_time[index]
            calls[name] += 1
            if name == "lu.factor" and span[VALUE] is not None:
                fill += span[VALUE]
            elif name == "solver.mfg" and span[VALUE] is not None:
                sweeps += span[VALUE][0]
                newton += span[VALUE][1]
            elif name == "assembly.hamiltonian_load":
                loads_in[span[PARENT]] += 1
        for index, span in enumerate(self.spans):
            if span[ROOT] in roots and span[NAME] == "solver.hjb" and span[VALUE] is not None:
                # one load for the initial residual, two per Newton step, one per halving
                halvings += loads_in[index] - 1 - 2 * span[VALUE]
        derived = {"lu.fill_nnz": fill, "solver.outer_sweeps": sweeps,
                   "solver.newton_steps": newton, "solver.linesearch_halvings": halvings}
        out = {}
        for metric, _unit in PER_LAYER:
            if metric in derived:
                out[metric] = derived[metric]
            elif metric.endswith("_calls"):
                out[metric] = calls[metric[:-len("_calls")]]
            else:
                out[metric] = seconds[metric[:-len("_s")]]
        return out

    def median_layer_metrics(self, iterations):
        """Median over iterations of each metric; ``iterations`` holds, per
        iteration, the indices of the root spans whose layers it counts."""
        self_time = self.self_times()
        per_iteration = [self.layer_metrics(roots, self_time) for roots in iterations]
        return {metric: statistics.median(m[metric] for m in per_iteration)
                for metric, _unit in PER_LAYER}

    def dump(self, path, meta):
        spans = [{"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT]}
                 for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"meta": meta, "spans": spans}, fh)
