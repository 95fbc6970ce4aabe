"""csawitness: exact, machine-checkable rational-curve witnesses for the
linear algebra of central simple algebras.

The package constructs and verifies explicit algebraic certificates:
pencils of right ideals and flags, generator lines between separable
subalgebras, exponent-2 path chains through symplectic involutions, conic
segments on quadrics, and linkage graphs of zero cycles over finite fields.
All arithmetic is exact (Q, F_p, F_{p^k}); every constructor emits a
validity polynomial and every object re-verifies on load.
"""

from .algebra import (
    Algebra, AlgebraElement, NoWitnessFound, SplitWitness,
    certified_exponent_divides_2, index_evidence, make_matrix_algebra,
    make_quaternion, poly_eval_at_element, reduced_char_poly, tensor_product,
)
from .arith import gaussian_binomial, pi_degree_prime_to_p, vp_factorial
from .errors import (
    BudgetExceededError, ConstructionFailedError, CsawError,
    FieldTooSmallError, InvalidFormError, InvalidInputError, NotAPowerError,
    NotEtaleError, StructuralError, UnsupportedFieldError,
)
from .etale import (
    EtaleSubalgebra, Partition, etale_type, generate_etale,
    independent_ideals_check, is_et_m_point, subalgebra_to_ideal_tuple,
)
from .fields import (
    QQ, ExtensionField, PrimeField, Rationals, field_from_spec,
    parse_field_flag, standard_extension,
)
from .ideals import (
    Flag, RightIdeal, corner_algebra, flag_check, full_ideal, ideal_generated,
    induce_from_corner, module_presentation, random_flag, random_ideal,
    restrict_to_corner, splitting_idempotent, zero_ideal,
)
from .involutions import (
    Involution, ORTHOGONAL, SYMPLECTIC, adjoint_involution, involution_type,
    pfaffian_char_poly, quaternion_conjugation, standard_alternating_matrix,
    sym_basis, transpose_involution,
)
from .pointcount import (
    ClosedPoint, GrassmannianModel, InvolutionQuadricModel, QPointSearch,
    QuadricCurves, QuadricModel, ZeroCycle, enumerate_points, link_graph,
    symmetric_power_points, transfer_cycle,
)
from .poly import Poly, factor, poly_nth_root, poly_squarefree
from .quadrics import (
    QuadraticForm, plucker_embed, plucker_form, plucker_quadric_value,
    points_on_quadric, symp_quadric_model,
)
from .witness import (
    PencilWitness, WitnessChain, connect_exp2, connect_flags, connect_ideals,
    connect_max_etale, connect_quadric_points, solve_inner_twist,
    symplectic_fixing_involution, verify_witness,
)

__version__ = "0.1.0"
