"""Exact bases and verification for graded local Weyl modules of the sl2
(hyper) current algebra, realized inside a divided-power polynomial algebra."""

from .basis_enum import (
    BasisSet,
    count_B,
    count_g,
    cv_basis,
    is_reduced_lex,
    lex_basis,
    revlex_basis,
    truncated_basis,
)
from .dpalgebra import (
    CoeffRing,
    DPoly,
    MonomialOrder,
    RATIONALS,
    compare,
    mono_mul,
    normal_form,
    parse_dpoly,
    prime_field,
    try_divide,
)
from .partitions import (
    Partition,
    check_mu_equals_nu,
    cmp_revlex,
    dominates,
    enumerate_partitions,
    eta_stretch,
    make_partition,
    nu_greatest,
    parse_partition,
    transpose,
    uplus,
)
from .quotient_oracle import (
    OracleSession,
    build_slice,
    reduce_element,
    truncated_quotient,
)
from .symfunc import (
    OPoly,
    coinvariant_reduce,
    complete_h,
    forgotten_coeff,
    kostka,
    mono_sym,
    schur_nonvanishing,
    schur_poly,
)
from .weyl_ideal import (
    GeneratorSet,
    defining_generators,
    forgotten_dpoly,
    forgotten_family,
    lowering_series,
    schur_dpoly,
    schur_family,
    series_forgotten_identity_holds,
    series_power_coefficient,
    transition_identity_holds,
)

__version__ = "0.1.0"
