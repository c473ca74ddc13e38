"""ringlab: an exact-arithmetic workbench for decomposing bilinear maps,
rings and nilpotent Lie algebras via their largest scalar rings."""

from .artinian import (
    CommutativeAlgebra,
    FieldOfRepresentatives,
    JSeriesReport,
    LocalFactor,
    field_of_representatives,
    j_series,
    local_decomposition,
    r_k_module,
    radical,
)
from .bilinear import (
    BilinearMap,
    BilinearSplit,
    Carrier,
    Subspace,
    WidthReport,
    field_carrier,
    foundation_addition_split,
    image_submodule,
    is_full,
    is_identically_degenerate,
    is_nondegenerate,
    module_carrier,
    torsion_split,
    two_sided_kernel,
    width,
)
from .domains import Extension, Integers, PrimeField, QQ, Rationals, Residues, ZZ
from .errors import RinglabError
from .lie import (
    BCH_CLASS_CAP,
    GroupElement,
    NilpotentLieAlgebra,
    bch,
    central_series_and_center,
    group_commutator,
    group_decompose,
    group_identity,
    group_inv,
    group_mul,
    group_pow,
    verify_nilpotent_lie,
)
from .linalg import Matrix, echelon, kernel_basis, rref, smith_normal_form, solve
from .modules import (
    Lattice,
    ModuleDesc,
    ModuleElement,
    cyclic,
    divisible_bounded_split,
    free_line,
    rational_line,
    split_complement,
    torsion_part,
)
from .polynomials import Poly, poly_factor
from .rings import (
    RingPresentation,
    annihilator,
    categoricity_check,
    central_split_mixed,
    decompose_bounded,
    decompose_char0,
    foundation_addition,
    is_regular,
    model_construct,
    square_ideal,
    verbal_ideal,
)
from .scalars import (
    EndoAlgebra,
    ScalarRingReport,
    decompose_via_scalars,
    largest_scalar_action,
    p_of_f,
    symmetric_endos,
    z_center,
    z_n_diagnostic,
)

__version__ = "0.1.0"
