"""Exact arithmetic for monogenic orders over F_q[x] in characteristic p:
finite fields, the rational function field with its places and valuations,
extension towers with discriminants, order membership and equality, the
constructive x+y=1 solver for finitely generated groups, bounded power-pair
searches with Frobenius-pattern fitting, and scripted verification of the
worked families.
"""

from .gf import FqCtx, FqElem
from .funcfield import (
    MINUS_INF,
    Place,
    PlaceSet,
    Poly,
    RatFunc,
    is_T_integer,
    is_T_unit,
    product_formula_sum,
    split_over,
    support,
    unit_class,
    unit_group_rank,
    valuation,
)
from .bivar import BivarPoly
from .tower import (
    AlgElem,
    Tower,
    discriminant,
    frobenius_power,
    minimal_polynomial,
)
from .monorder import (
    GeneratorRelation,
    MonOrder,
    OrdersEqual,
    POLY_RING,
    disc_form_predicate,
    express_in_power_basis,
    fit_generator_relation,
    in_order,
    orders_equal,
    sym_in_order,
    sym_orders_equal,
)
from .unitgrp import (
    GroupCtx,
    GroupElem,
    SolutionFamily,
    brute_force_xy1,
    build_group,
    four_term_delta_set,
    pth_power_decompose,
    solve_xy1,
    subsum_bound_violations,
    subsum_exponent_bound,
)
from .frobsearch import (
    AddendumReport,
    BoundReport,
    FrobPattern,
    MSearchResult,
    StableExponent,
    SymPowerPair,
    TowerPowerPair,
    addendum_report,
    bound_calculator,
    compute_ef,
    enumerate_M,
    fit_patterns,
)
from .verify import (
    EtaSequence,
    VerificationReport,
    verify_quartic_twist_family,
    verify_shifted_generator_family,
    verify_symmetric_quadratic_powers,
)
