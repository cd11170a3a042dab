"""Exact decision procedures for coidempotent-style submodule properties
over Z, Z/nZ and finite products of Z/nZ, with a law-verification harness.
"""

from .rings import (
    Ideal,
    IntegerRing,
    ModularRing,
    ProductRing,
    RingMismatchError,
    UnsupportedRingError,
    Z,
    all_ideals,
    ideal_from_generators,
    ideal_intersect,
    ideal_product,
    maximal_ideals,
    product_ring,
    units,
)
from .multsets import (
    MultSet,
    ZComplementOfPrimes,
    ZGeneratedBy,
    ZNonZero,
    ZUnits,
    closure_in_ring,
    meets_ideal,
    one_multset,
    product_multset,
    reduce_presentation,
    satisfies_max_multiple,
    saturation,
)
from .modules import (
    FinModule,
    ProductModule,
    Submodule,
    ZModule,
    annihilator,
    colon_into,
    colon_ring,
    full_submodule,
    ideal_action,
    localize_module,
    module_from_factors,
    product_module,
    quotient_module,
    s_torsion,
    scalar_submodule,
    sub_intersect,
    sub_leq,
    sub_sum,
    submodule_as_module,
    submodule_from_generators,
    zero_submodule,
)
from .lattice import (
    LatticeCapExceeded,
    SubmoduleLattice,
    enumerate_submodules,
)
from .predicates import (
    Verdict,
    coidempotent,
    comultiplication,
    copure,
    direct_summand,
    fully,
    fully_coidempotent_z,
    idempotent,
    multiplication,
    pure,
    s_finite,
    s_noetherian,
    semisimple,
)
from .theorems import (
    THEOREMS,
    CorpusConfig,
    Instance,
    Report,
    generate_corpus,
    reproduce_examples,
    verify_all,
)

__version__ = "0.1.0"
