"""Exact and numerical verification suites for qc Fefferman structures.

The package splits into an exact layer (quaternion scalars and exact
linear algebra, graded Lie algebras with their basis matrices held as
entry dicts, Lie algebra cohomology, graded inclusions) and a
numerical layer (jets, chart calculus, model geometries), glued by the
report-generating CLI in :mod:`qcfeff.cli`.
"""

from .exact import kernel_basis
from .gradedlie import (
    GradedLieAlgebra,
    build_chain,
    build_co,
    build_cr,
    build_qc,
)
from .cohomology import harmonic_space, hodge_check
from .inclusions import (
    GradedInclusion,
    build_phi_cr_co,
    build_phi_qc_cr,
    check_structural_conditions,
    compose,
)
from .jets import Jet
from .charts import CurvatureData, MetricChart, VectorFieldOnChart

__all__ = [
    "CurvatureData",
    "GradedInclusion",
    "GradedLieAlgebra",
    "Jet",
    "MetricChart",
    "VectorFieldOnChart",
    "build_chain",
    "build_co",
    "build_cr",
    "build_phi_cr_co",
    "build_phi_qc_cr",
    "build_qc",
    "check_structural_conditions",
    "compose",
    "harmonic_space",
    "hodge_check",
    "kernel_basis",
]

__version__ = "0.1.0"
