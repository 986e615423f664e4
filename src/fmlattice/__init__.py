"""Exact-arithmetic lattice calculus for transforms between surfaces with
torsion canonical class: Euler pairings, Mukai vectors, canonical-cover
transfer maps, descent gcd certificates, isometry lifting and descent,
and the cyclic averaging identity.  No floating point anywhere."""

from .averaging import (
    CyclicRep,
    descend_invariant,
    difference_operator,
    norm_operator,
    random_rep,
    verify_ker_im,
)
from .catalog import Catalog, builtin_catalog, reproduce
from .covers import (
    CoverTransfer,
    chi_adjunction_check,
    pullback_ch,
    pushforward_ch,
    validate_cover,
)
from .defsio import DefsError, DefsParseError, load_definitions
from .descent import (
    GcdCertificate,
    divisibility_obstruction,
    freeness_gcd,
    generator_set,
    orbit_sum,
)
from .lattice import (
    BilinearForm,
    Matrix,
    kernel_basis,
    smith_normal_form,
    solve_integer,
)
from .surfaces import (
    ChernCharacter,
    ExtendedVector,
    MukaiVector,
    NumericalSurface,
    euler_pairing,
    moduli_dim_expectation,
    mukai_pairing,
    mukai_vector,
)
from .transport import (
    DescentOutcome,
    GActionLattice,
    LatticeIsometry,
    LiftFamily,
    check_equivariant,
    check_order_compatibility,
    descend_isometry,
    identity_isometry,
    lift_isometry,
    minus_one,
    num_negation,
    tensor_twist,
)

__version__ = "0.1.0"
