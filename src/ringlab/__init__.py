"""ringlab: an exact-arithmetic workbench for decomposing bilinear maps,
rings and nilpotent Lie algebras via their largest scalar rings.

``import ringlab`` runs no submodule.  Each submodule but ``cli`` is
registered in ``sys.modules`` behind ``importlib.util.LazyLoader``, so it is
compiled and run when one of its attributes is first read, and the public
names resolve on first access (PEP 562).  ``cli`` stays unregistered, so
``python -m ringlab.cli`` loads it once.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

# every submodule but cli, with the public names it defines
_EXPORTS = {
    "artinian": (
        "CommutativeAlgebra", "FieldOfRepresentatives", "JSeriesReport", "LocalFactor",
        "field_of_representatives", "j_series", "local_decomposition", "r_k_module",
        "radical",
    ),
    "bilinear": (
        "BilinearMap", "BilinearSplit", "Carrier", "RingPresentation", "Subspace",
        "WidthReport", "field_carrier", "foundation_addition_split", "image_submodule",
        "is_full", "is_identically_degenerate", "is_nondegenerate", "module_carrier",
        "torsion_split", "two_sided_kernel", "width",
    ),
    "documents": (),
    "domains": ("Extension", "Integers", "PrimeField", "QQ", "Rationals", "Residues", "ZZ"),
    "errors": ("RinglabError",),
    "gfenum": (),
    "lie": (
        "BCH_CLASS_CAP", "GroupElement", "NilpotentLieAlgebra", "bch",
        "central_series_and_center", "group_commutator", "group_decompose",
        "group_identity", "group_inv", "group_mul", "group_pow", "verify_nilpotent_lie",
    ),
    "linalg": ("Matrix", "echelon", "kernel_basis", "rref", "smith_normal_form", "solve"),
    "modules": (
        "Lattice", "ModuleDesc", "ModuleElement", "cyclic", "divisible_bounded_split",
        "free_line", "rational_line", "split_complement", "torsion_part",
    ),
    "polynomials": ("Poly", "poly_factor"),
    "records": (),
    "reports": (),
    "rings": (
        "annihilator", "categoricity_check", "central_split_mixed", "decompose_bounded",
        "decompose_char0", "foundation_addition", "is_regular", "model_construct",
        "square_ideal", "verbal_ideal",
    ),
    "scalars": (
        "EndoAlgebra", "ScalarRingReport", "decompose_via_scalars",
        "largest_scalar_action", "p_of_f", "symmetric_endos", "z_center",
        "z_n_diagnostic",
    ),
    "selftest": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

for _name in _EXPORTS:
    _spec = find_spec(f"{__name__}.{_name}")
    _spec.loader = LazyLoader(_spec.loader)
    _module = sys.modules[_spec.name] = globals()[_name] = module_from_spec(_spec)
    _spec.loader.exec_module(_module)
del _name, _spec, _module


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


__version__ = "0.1.0"
