"""asymkit: symmetry analysis for finite groups.

Decompose unitary representations into irreducible blocks, compute
characteristic functions and reductions of quantum states, decide exact and
approximate interconvertibility of pure states under symmetric dynamics with
explicit unitary witnesses, validate and reconstruct characteristic functions,
and check covariance of quantum channels.
"""

from .approx import (
    OverlapReport,
    fidelity,
    irrep_component,
    max_overlap,
)
from .bochner import BochnerReport, GnsResult, gns_construct, is_positive_definite
from .channels import (
    CovarianceCheck,
    QuantumChannel,
    apply,
    channel_from_unitary,
    embed_channel,
    is_g_covariant,
    random_channel,
    shift_channel,
    twirl_channel,
    uniform_twirl_over_subgroup,
)
from .equivalence import (
    EquivalenceStatus,
    EquivalenceVerdict,
    decide_g_equivalence,
    decide_unitary_g_equivalence,
    extend_isometry_to_ginv_unitary,
    gram,
    u1_shift_equivalence,
    unitary_set_interconversion,
)
from .errors import (
    AsymkitError,
    DimensionMismatchError,
    GroupMismatchError,
    InvalidCharacteristicFunctionError,
    InvalidParameterError,
    InvalidSubgroupError,
    NotInvariantIsometryError,
    NotPositiveSemidefiniteError,
    NumericalDegeneracyError,
    PureStateRequiredError,
    SizeLimitError,
    ToleranceError,
    ValidationError,
)
from .groups import (
    GROUP_ORDER_CAP,
    GroupTable,
    SubgroupRef,
    direct_product,
    group_from_json,
    group_to_json,
    is_normal,
    make_cyclic,
    make_dihedral,
    make_symmetric,
    same_group,
    subgroup,
)
from .reps import (
    IrrepBlock,
    IrrepDecomposition,
    UnitaryRep,
    decompose,
    direct_sum_rep,
    number_rep,
    one_dim_reps,
    random_invariant_unitary,
    regular_rep,
    tensor_rep,
    trivial_rep,
    twirl_operator,
)
from .states import (
    CharFunction,
    IrrepReduction,
    QuantumState,
    WeightState,
    charfunc,
    charfunc_from_reduction,
    convolve,
    fourier_inverse,
    random_mixed_state,
    random_pure_state,
    reduction_onto_irreps,
    symmetry_subgroup,
    tensor_state,
    u1_cumulant,
    u1_moments,
    weight_tensor,
)

__version__ = "0.1.0"
