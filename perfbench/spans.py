"""Spans and counters around qcfeff's public functions, installed from outside.

``Recorder.install`` wraps every public module-level function and every
public method (plus ``__init__``) of the public classes in each qcfeff
module, and rebinds each wrapped name in every qcfeff module that
imported it, so calls made inside the package are caught as well as
calls from the CLI.  Each call records a span (name, start, end, parent span, command
index, a few shape attributes) in memory; ``write`` dumps them as JSON
lines at the end and ``layer_metrics`` derives the per-layer figures.

Element-level operations (``ELEMENTWISE``) are left unwrapped: they run
once per coefficient, vector, jet or sample point, hundreds of thousands
of times per command, so a span per call would cost more than the work
it times.  Their time counts towards the span that called them, as does
the time of private helpers and private classes (``exact._ModPLU``, the
modular LU factorisation inside ``kernel_basis``).
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import time

import numpy as np

LAYERS = ("exact", "gradedlie", "cohomology", "inclusions", "jets", "charts", "models", "cli")

# value types: every method is element-level
ELEMENTWISE_CLASSES = {
    "exact.Quaternion",
    "exact.ExactMatrix",
    "jets.Jet",
    "jets.JetSpace",
    "cohomology.Cochain",
}

ELEMENTWISE = {
    "exact.as_quat",
    "gradedlie.matrix_to_coordvec",
    "gradedlie.GradedLieAlgebra.bracket_indices",
    "gradedlie.GradedLieAlgebra.bracket_vec",
    "gradedlie.GradedLieAlgebra.killing_vec",
    "gradedlie.GradedLieAlgebra.degree_of_index",
    "gradedlie.GradedLieAlgebra.minus_indices",
    "gradedlie.GradedLieAlgebra.plus_indices",
    "gradedlie.GradedLieAlgebra.component",
    "gradedlie.GradedLieAlgebra.ambient_of_vec",
    "gradedlie.GradedLieAlgebra.native_of_vec",
    "cohomology.codiff_part2_at",
    "inclusions.part1_at",
    "inclusions.GradedInclusion.apply",
    "inclusions.GradedInclusion.component_split",
    "inclusions.GradedInclusion.minus_part",
    "inclusions.GradedInclusion.degree_part",
    "inclusions.GradedInclusion.preimage",
    "models.QcData.eta_matrix",
    "models.QcData.deta",
    "models.QcData.horizontal_frame",
    "models.QcData.reeb_fields",
    "models.QcData.complex_structure",
}

# private functions that are layer boundaries all the same
EXTRA = {"cli._emit"}


def _point_key(chart, point):
    raw = np.asarray(point, dtype=float).tobytes()
    return hashlib.sha1(chart.name.encode() + raw).hexdigest()[:16]


def _kernel_attrs(bound, out):
    return {"rows": len(bound["rows"]), "columns": bound["ncols"], "nullity": len(out)}


def _laplacian_attrs(bound, out):
    return {"columns": len(out)}


def _curvature_attrs(bound, out):
    return {"point": _point_key(bound["chart"], bound["point"])}


ATTRS = {
    "exact.kernel_basis": _kernel_attrs,
    "cohomology.laplacian_block": _laplacian_attrs,
    "charts.CurvatureData.__init__": _curvature_attrs,
}


class Recorder:
    """Spans kept in memory as [name, parent, start, end, command, attrs]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.command = -1
        self.wrapped = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        attrs_fn = ATTRS.get(name)
        sig = inspect.signature(fn) if attrs_fn else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, clock(), 0.0, self.command, None]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if attrs_fn is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = attrs_fn(bound.arguments, out)
            return out

        self.wrapped.append(name)
        return wrapper

    def install(self, package):
        """Wrap the public callables of every layer module of ``package``."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                qual = "%s.%s" % (layer, attr)
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    if (attr.startswith("_") or qual in ELEMENTWISE_CLASSES
                            or issubclass(obj, BaseException)):
                        continue
                    self._wrap_class(qual, obj)
                elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    if (attr.startswith("_") and qual not in EXTRA) or qual in ELEMENTWISE:
                        continue
                    replaced[id(obj)] = (obj, self._wrap(qual, obj))
        # rebind every name that refers to a wrapped function, in every module
        for mod in [package, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def _wrap_class(self, qual, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = "%s.%s" % (qual, attr)
            if name in ELEMENTWISE:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, attr, type(raw)(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrap(name, raw))

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, parent, start, end, cmd, attrs) in enumerate(self.spans):
                rec = {"id": i, "name": name, "parent": parent, "start": start,
                       "end": end, "command": cmd}
                if attrs:
                    rec.update(attrs)
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


class _Stats:
    def __init__(self, spans):
        self.dur = [s[3] - s[2] for s in spans]
        self.self_time = list(self.dur)
        self.by_name = {}
        for i, s in enumerate(spans):
            if s[1] >= 0:
                self.self_time[s[1]] -= self.dur[i]
            self.by_name.setdefault(s[0], []).append(i)
        self.spans = spans

    def ids(self, names):
        out = []
        for nm in names:
            out.extend(self.by_name.get(nm, ()))
        return out

    def calls(self, *names):
        return len(self.ids(names))

    def self_s(self, *names):
        return sum((self.self_time[i] for i in self.ids(names)), 0.0)

    def prefix_self_s(self, prefix):
        return self.self_s(*[nm for nm in self.by_name if nm.startswith(prefix)])

    def attrs(self, i):
        """Shape attributes of span i; none when the call raised."""
        return self.spans[i][5] or {}

    def attr_sum(self, key, *names):
        return sum(self.attrs(i).get(key, 0) for i in self.ids(names))

    def longest_call_s(self, *names):
        return max((self.dur[i] for i in self.ids(names)), default=0.0)

    def largest(self, *names):
        """The call with the most columns (then rows), by span attributes."""
        ids = [i for i in self.ids(names) if self.attrs(i)]
        return max(ids, key=lambda i: (self.attrs(i)["columns"], self.attrs(i)["rows"]),
                   default=None)

    def inside(self, i, names):
        """Whether span i has an ancestor named in ``names``."""
        p = self.spans[i][1]
        while p >= 0:
            if self.spans[p][0] in names:
                return True
            p = self.spans[p][1]
        return False


OPERATORS = (
    "cohomology.differential",
    "cohomology.codifferential",
    "cohomology.codifferential_minus",
    "cohomology.codifferential_wedge",
)
BUILDS = ("gradedlie.build_qc", "gradedlie.build_cr", "gradedlie.build_co")
CONSTRUCT = (
    "models.quadric_model",
    "models.heisenberg_qc",
    "models.fefferman_metric",
    "models.sp1_fundamental_fields",
)
SUITES = (
    "cli.suite_cohomology",
    "cli.suite_inclusions",
    "cli.suite_model",
    "cli.suite_random_metrics",
)


def layer_metrics(spans):
    """Per-layer figures of one traced round: {metric name: value}."""
    st = _Stats(spans)
    kb = "exact.kernel_basis"

    # an operator application is an operator span not nested in another one
    apps = [i for i in st.ids(OPERATORS) if not st.inside(i, OPERATORS)]
    lap = "cohomology.laplacian_block"
    apps_in_lap = sum(1 for i in apps if st.inside(i, (lap,)))
    lap_cols = st.attr_sum("columns", lap)

    curv = "charts.CurvatureData.__init__"
    points = {st.attrs(i)["point"] for i in st.ids([curv]) if st.attrs(i)}

    return {
        "exact.kernel_basis.calls": st.calls(kb),
        "exact.kernel_basis.self_s": st.self_s(kb),
        "exact.kernel_basis.max_call_s": st.longest_call_s(kb),
        "exact.kernel_basis.columns": st.attr_sum("columns", kb),
        "exact.kernel_basis.nullity": st.attr_sum("nullity", kb),
        "exact.solve_exact.calls": st.calls("exact.solve_exact"),
        "exact.solve_exact.self_s": st.self_s("exact.solve_exact"),
        "exact.span_solver.self_s": st.prefix_self_s("exact.SpanSolver."),
        "gradedlie.build.calls": st.calls(*BUILDS),
        "gradedlie.build.self_s": st.self_s(*BUILDS, "gradedlie.GradedLieAlgebra.__init__"),
        "gradedlie.dual_basis.self_s": st.self_s("gradedlie.GradedLieAlgebra.dual_basis"),
        "cohomology.laplacian_block.calls": st.calls(lap),
        "cohomology.laplacian_block.self_s": st.self_s(lap),
        "cohomology.laplacian_block.columns": lap_cols,
        "cohomology.operator_applications": len(apps),
        "cohomology.applications_per_column": apps_in_lap / lap_cols if lap_cols else 0.0,
        "cohomology.differential.self_s": st.self_s("cohomology.differential"),
        "cohomology.codifferential_wedge.self_s": st.self_s("cohomology.codifferential_wedge"),
        "cohomology.codifferential_minus.self_s": st.self_s("cohomology.codifferential_minus"),
        "cohomology.harmonic_space.self_s": st.self_s("cohomology.harmonic_space"),
        "cohomology.hodge_check.self_s": st.self_s("cohomology.hodge_check"),
        "inclusions.del1_identity_check.calls": st.calls("inclusions.del1_identity_check"),
        "inclusions.del1_identity_check.self_s": st.self_s("inclusions.del1_identity_check"),
        "inclusions.del2_identity_check.self_s": st.self_s("inclusions.del2_identity_check"),
        "inclusions.project_to_image.calls": st.calls("inclusions.GradedInclusion.project_to_image"),
        "inclusions.project_to_image.self_s": st.self_s("inclusions.GradedInclusion.project_to_image"),
        "inclusions.induce_cochain.self_s": st.self_s("inclusions.GradedInclusion.induce_cochain"),
        "inclusions.normality_transfer_check.self_s": st.self_s("inclusions.normality_transfer_check"),
        "inclusions.inverse_normality_check.self_s": st.self_s("inclusions.inverse_normality_check"),
        "inclusions.check_structural_conditions.self_s": st.self_s(
            "inclusions.check_structural_conditions"
        ),
        "jets.metric_jets.calls": st.calls("charts.MetricChart.metric_jets"),
        "jets.metric_jets.self_s": st.self_s("charts.MetricChart.metric_jets"),
        "jets.field_jets.self_s": st.self_s("charts.VectorFieldOnChart.jets"),
        "charts.curvature_data.builds": st.calls(curv),
        "charts.curvature_data.self_s": st.self_s(curv),
        "charts.curvature_builds_per_point": st.calls(curv) / len(points) if points else 0.0,
        "charts.tractor_data.builds": st.calls("charts.TractorData.__init__"),
        "charts.tractor_data.self_s": st.self_s("charts.TractorData.__init__"),
        "charts.sparling_invariants.self_s": st.self_s("charts.sparling_invariants"),
        "charts.conformal_killing_residual.self_s": st.self_s("charts.conformal_killing_residual"),
        "charts.trace_contraction_check.self_s": st.self_s("charts.trace_contraction_check"),
        "models.construct.self_s": st.self_s(*CONSTRUCT),
        "models.structure_report.self_s": st.self_s("models.QcData.structure_report"),
        "cli.suite.self_s": st.self_s(*SUITES),
        "cli.emit.self_s": st.self_s("cli._emit"),
    }


def largest_kernel(spans):
    """(command index, rows, columns, nullity, seconds) of the largest kernel call."""
    st = _Stats(spans)
    big = st.largest("exact.kernel_basis")
    if big is None:
        return None
    s = st.spans[big]
    return s[4], s[5]["rows"], s[5]["columns"], s[5]["nullity"], st.dur[big]
