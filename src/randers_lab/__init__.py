"""randers-lab: Randers metrics from navigation data on model spaces,
with Clifford-Wolf translation and direction-exhaustion verifiers."""

__version__ = "0.1.0"

from .spaces import (  # noqa: F401
    CompactGroup,
    Euclidean,
    Product,
    Sphere,
    SpaceError,
    frame,
    random_tangent,
    space_from_config,
)
from .killing import (  # noqa: F401
    EuclideanKilling,
    GroupKilling,
    KillingField,
    ProductKilling,
    SphereKilling,
    UnsupportedWind,
    commutator,
    constant_length_family,
    hopf_field,
    killing_from_config,
    standard_J,
    zero_field,
)
from .randers import (  # noqa: F401
    DefiningForm,
    NavigationData,
    NotRanders,
    WindTooStrong,
    defining_to_nav_matrices,
    from_navigation,
    fundamental_tensor,
    nav_to_defining_matrices,
    riemannian,
    to_navigation,
)
from .geodesics import (  # noqa: F401
    GeodesicCurve,
    NoMatchingField,
    RootNotBracketed,
    f_distance,
    f_distance_batch,
    f_geodesic_flowcurve,
    f_geodesic_ode,
)
from .oracle import (  # noqa: F401
    GraphDisconnected,
    NetGraph,
    build_graph,
    oracle_distance,
    oracle_distance_pairs,
)
from .cw import (  # noqa: F401
    ConnectResult,
    CwReport,
    ExhaustionReport,
    SearchFailed,
    cw_connect,
    cw_displacement_check,
    direction_exhaustion_check,
    small_time_threshold,
)
from .config import ConfigError, ExperimentConfig  # noqa: F401
