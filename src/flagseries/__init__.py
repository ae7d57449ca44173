"""Exact generating series of Euler characteristics of punctual nested
Hilbert and Quot schemes of points on surfaces, their closed rational
forms, motivic refinements for small nestings, and globalization to
arbitrary surfaces at the Euler level.

The names below are exported lazily (PEP 562):
``flagseries.rational_form`` imports :mod:`flagseries.engine` on first
use, so a caller, the command line included, loads only the modules it
runs.  The value is looked up in its home module on every access, never
copied into this namespace, so a name rebound in its home module is seen
here too.
"""

import importlib

#: home module -> names it exports here: the one list of public names
_HOMES = {
    "engine": (
        "rational_form",
        "rational_form_lambda",
    ),
    "motives": (
        "BASE_NESTED_MOTIVES",
        "GLOBAL_PLANE_MOTIVES",
        "HSVector",
        "LEFSCHETZ",
        "LPoly",
        "StrataMotives",
        "a_coefficients",
        "component_count",
        "gottsche_punctual",
        "hs_dimension",
        "hs_motive_exponent",
        "motive_2n",
        "motive_3n",
        "motive_Y1112",
        "motive_strata",
        "projective_space",
        "series_2bullet",
        "series_3bullet",
    ),
    "partitions": (
        "FlagSpec",
        "Partition",
        "coloured_flag_counts",
        "count_coloured_flags",
        "count_nested_flags",
        "enum_partitions",
        "nested_pair_counts",
        "partition_count",
    ),
    "quot": (
        "identity_suite",
        "verify_exponential_identity",
        "verify_fq2_example",
        "verify_fq_functional",
        "verify_q_identity",
    ),
    "series": (
        "QSeries",
        "RationalForm",
        "ps_add",
        "ps_mul",
        "ps_pow",
    ),
    "shapes": (
        "ConnectedSkew",
        "NWPath",
        "SkewShape",
        "enum_connected_skew",
        "filling_counts",
    ),
    "surfaces": (
        "DEL_PEZZO_TARGET",
        "SurfaceProfile",
        "SurfaceResolutionError",
        "globalize",
        "punctual_nested_table",
        "resolve_dp6_exponent",
    ),
}

#: exported name -> (home module, attribute there)
_EXPORTS = {"KERNEL_BACKEND": ("kernels", "BACKEND")}
_EXPORTS.update(
    (name, (module, name)) for module, names in _HOMES.items() for name in names
)

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    try:
        module, attribute = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{module}"), attribute)


def __dir__():
    return sorted(set(globals()) | set(__all__))
