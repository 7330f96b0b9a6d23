"""randers-lab: Randers metrics from navigation data on model spaces,
with Clifford-Wolf translation and direction-exhaustion verifiers.

The names below load on first use (PEP 562): the first access to any of
them imports every module listed and binds every name, so `import
randers_lab` alone costs nothing, and code that imports submodules
directly (the CLI) pays only for the modules it uses; scipy is loaded by
`oracle` alone.
"""

__version__ = "0.1.0"

# exported names by defining module, in import order
_EXPORTS = {
    "spaces": ("CompactGroup", "Euclidean", "Product", "Sphere", "SpaceError", "frame",
               "random_tangent", "space_from_config"),
    "killing": ("EuclideanKilling", "GroupKilling", "KillingField", "ProductKilling",
                "SphereKilling", "UnsupportedWind", "constant_length_family", "hopf_field",
                "killing_from_config", "standard_J", "zero_field"),
    "randers": ("DefiningForm", "NavigationData", "NotRanders", "WindTooStrong",
                "defining_to_nav_matrices", "from_navigation", "fundamental_tensor",
                "nav_to_defining_matrices", "riemannian", "to_navigation"),
    "geodesics": ("GeodesicCurve", "NoMatchingField", "RootNotBracketed", "f_distance",
                  "f_distance_batch", "f_geodesic_flowcurve", "f_geodesic_ode"),
    "oracle": ("GraphDisconnected", "GraphMismatch", "NetGraph", "build_graph",
               "oracle_distance", "oracle_distance_pairs"),
    "cw": ("ConnectResult", "CwReport", "ExhaustionReport", "SearchFailed", "cw_connect",
           "cw_displacement_check", "direction_exhaustion_check", "small_time_threshold"),
    "config": ("ConfigError", "ExperimentConfig"),
}
__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name):
    # any other name fails at once: `from . import quat` asks here first,
    # and must fall through to importing the submodule
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    for module, names in _EXPORTS.items():
        mod = import_module(f".{module}", __name__)
        for n in names:
            globals()[n] = getattr(mod, n)
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))
