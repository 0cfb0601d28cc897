"""depthlab: half-space (Tukey) depth of points and flats for discrete
measures, deep-line search, and cone-structure verification suites."""

from .geometry import (
    Flat,
    SimplicialCone,
    canonical_direction,
    line,
    sample_directions,
)
from .measures import (
    DiscreteMeasure,
    MeasureSpec,
    generate_measure,
    load_measure,
    make_measure,
    project_measure,
    save_measure,
)
from .depth import (
    DepthResult,
    LineSearchResult,
    certified_depth_floor,
    deep_line_search,
    depth_oracle,
    direction_profile,
    flat_depth,
    line_depth_thresholds,
    point_depth,
)
from .median import (
    MedianResult,
    NormalSet,
    WitnessSearchError,
    balanced_median,
    min_normal_set,
    recenter,
    tukey_median,
    witness_tuple,
)
from .cones import (
    BmesReport,
    ConeTuple,
    GeneratingTuple,
    MatchReport,
    MatchingError,
    bmes_report,
    cones_of,
    is_generating,
    match_tuples,
    tuple_weight,
)
from .central import (
    CentralConeApprox,
    StructuralTuple,
    central_cone,
    central_patch,
    containment_check,
    structural_map,
)

__version__ = "0.1.0"
