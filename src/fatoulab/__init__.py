"""fatoulab: a numerical laboratory for boundaries of unbounded Fatou components.

Orbit/grid classification of a closed catalog of entire maps, inverse-branch
pullback machinery with hyperbolic-metric contraction audits, boundary
periodic points and access curves, Blaschke-product circle dynamics, and
walk-on-spheres harmonic-measure estimation.
"""

from .blaschke import (
    BlaschkeProduct,
    CirclePeriodicPoint,
    DenjoyWolff,
    RationalCircleMap,
    circle_lift,
    circle_periodic_points,
    denjoy_wolff,
    verify_inner_candidate,
)
from .boundary import (
    AccessCurve,
    PeriodicBoundaryPoint,
    access_curve,
    escaping_component_scan,
    find_periodic_boundary_point,
    newton_periodic,
    parabolic_boundary_scan,
)
from .branches import (
    BranchChain,
    apply_chain,
    chain_fixing,
    inverse,
    pullback_chain,
)
from .catalog import (
    EntireMap,
    PostsingularCloud,
    SingularData,
    exp_lambda,
    fatou_minus,
    fatou_plus,
    postsingular_sample,
    ps_audit,
    singular_values,
    z_exp,
    z_plus_exp,
)
from .grid import ClassificationGrid, classify_grid, label_components
from .hyperbolic import (
    DensityBound,
    contraction_audit,
    density_bound,
    density_lower,
    density_upper,
    punctured_disk_density,
    segment_complement_density,
)
from .measure import (
    MeasureReport,
    calibrate_disk,
    disk_grid,
    measure_report,
)
from .orbits import Kind, default_attractors
from .raster import fill_from_infinity

__version__ = "0.1.0"

__all__ = [
    "BlaschkeProduct",
    "CirclePeriodicPoint",
    "DenjoyWolff",
    "RationalCircleMap",
    "circle_lift",
    "circle_periodic_points",
    "denjoy_wolff",
    "verify_inner_candidate",
    "AccessCurve",
    "PeriodicBoundaryPoint",
    "access_curve",
    "escaping_component_scan",
    "find_periodic_boundary_point",
    "newton_periodic",
    "parabolic_boundary_scan",
    "BranchChain",
    "apply_chain",
    "chain_fixing",
    "inverse",
    "pullback_chain",
    "EntireMap",
    "PostsingularCloud",
    "SingularData",
    "exp_lambda",
    "fatou_minus",
    "fatou_plus",
    "postsingular_sample",
    "ps_audit",
    "singular_values",
    "z_exp",
    "z_plus_exp",
    "ClassificationGrid",
    "classify_grid",
    "label_components",
    "DensityBound",
    "contraction_audit",
    "density_bound",
    "density_lower",
    "density_upper",
    "punctured_disk_density",
    "segment_complement_density",
    "MeasureReport",
    "calibrate_disk",
    "disk_grid",
    "measure_report",
    "Kind",
    "default_attractors",
    "fill_from_infinity",
]
