"""Exact distances and unique geodesics in orthoscheme complexes of graded
posets: rooted cube complexes of graphs, median complexes of posets with
inconsistent pairs, and modular semilattices given explicitly."""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .arch import Arch, arch_from_xi, extreme_arch, is_concave, v_sq, xi
from .engine import Geodesic, geodesic, geodesic_median
from .errors import (
    CycleError,
    EmptyBlock,
    InfiniteFlow,
    InvalidPoint,
    InvalidStructure,
    JoinUndefined,
    NotBipartitePip,
    NotCommonSimplex,
    NotGraded,
    NotMedian,
    NotModular,
    NotModularSemilattice,
    OrthogeoError,
    SizeCap,
    SupportMismatch,
    SupportOutsideFrame,
    UnknownElement,
)
from .flow import Separation, max_flow, solve_msip
from .frames import Frame, build_frame
from .points import (
    BPolyPath,
    Point,
    PolyPath,
    as_fraction,
    b_coordinates,
    check_b_point,
    check_point,
    convex_combo,
    level_decomposition,
    point_from_b,
    point_join,
    point_meet,
    sq_simplex_distance,
    tau,
)
from .poset import (
    BirkhoffResult,
    GradedPoset,
    MetricInterval,
    Pip,
    birkhoff,
    boolean_gated_sets,
    classify,
    dedup_chain,
    extend_to_maximal_chain,
    ideal_name,
    metric_interval,
    omega,
    parse_ideal_name,
    size_cap,
    stable_ideals,
)
from .radicals import SqrtSum, frac_sqrt, sqrt_reduce, squarefree_split

__version__ = "0.1.0"

# the grid oracle serves checks only, so it is compiled on first use (PEP 562)
_ORACLE_NAMES = ("cat0_check", "enumerate_arches", "oracle_distance")


def __getattr__(name):
    if name != "oracle" and name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    oracle = _import_module(".oracle", __name__)
    return oracle if name == "oracle" else getattr(oracle, name)


# the names imported above; the submodules they come from stay attributes only
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + list(_ORACLE_NAMES)
