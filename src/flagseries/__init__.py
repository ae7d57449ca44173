"""Exact generating series of Euler characteristics of punctual nested
Hilbert and Quot schemes of points on surfaces, their closed rational
forms, motivic refinements for small nestings, and globalization to
arbitrary surfaces at the Euler level.
"""

from .engine import (
    fz_D,
    fz_k,
    fz_lambda,
    fz_ratio_D,
    fz_ratio_k,
    fz_ratio_lambda,
    partition_series,
    rational_form_D,
    rational_form_k,
    rational_form_lambda,
)
from .kernels import BACKEND as KERNEL_BACKEND
from .motives import (
    HSVector,
    a_coefficients,
    component_count,
    gottsche_punctual,
    hs_dimension,
    hs_motive_exponent,
    motive_2n,
    motive_3n,
    motive_strata,
    series_2bullet,
    series_3bullet,
)
from .partitions import (
    FlagSpec,
    Partition,
    coloured_flag_counts,
    contains,
    count_coloured_flags,
    count_nested_flags,
    count_partitions_with_k_parts,
    enum_partitions,
    insertion_count,
    nested_pair_counts,
    partition_count,
)
from .quot import (
    fq_rD,
    q_rank_series,
    rational_form_rD,
    verify_exponential_identity,
    verify_fq2_example,
    verify_fq_functional,
    verify_q_identity,
)
from .series import (
    LEFSCHETZ,
    LPoly,
    QSeries,
    RationalForm,
    lpoly_eval_at_one,
    projective_space,
    ps_add,
    ps_inv,
    ps_mul,
    ps_pow,
)
from .shapes import (
    ConnectedSkew,
    NWPath,
    SkewShape,
    enum_connected_skew,
    enum_skew_classes,
    nw_path,
    rp_count,
    sym_factor,
    transpose,
)
from .surfaces import (
    SurfaceProfile,
    globalize,
    punctual_nested_table,
    resolve_dp6_exponent,
)

__version__ = "0.1.0"
