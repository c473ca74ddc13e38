"""The names `ringlab` re-exports, each the object its submodule defines.

The package resolves them on first access; this list is the one its
`__init__` imported eagerly before, written out so that a name cannot be
lost or moved without a test edit.
"""

import importlib

import pytest

import ringlab

PUBLIC = {
    "artinian": (
        "CommutativeAlgebra", "FieldOfRepresentatives", "JSeriesReport", "LocalFactor",
        "field_of_representatives", "j_series", "local_decomposition", "r_k_module", "radical",
    ),
    "bilinear": (
        "BilinearMap", "BilinearSplit", "Carrier", "RingPresentation", "Subspace", "WidthReport",
        "field_carrier", "foundation_addition_split", "image_submodule", "is_full",
        "is_identically_degenerate", "is_nondegenerate", "module_carrier", "torsion_split",
        "two_sided_kernel", "width",
    ),
    "domains": ("Extension", "Integers", "PrimeField", "QQ", "Rationals", "Residues", "ZZ"),
    "errors": ("RinglabError",),
    "lie": (
        "BCH_CLASS_CAP", "GroupElement", "NilpotentLieAlgebra", "bch",
        "central_series_and_center", "group_commutator", "group_decompose", "group_identity",
        "group_inv", "group_mul", "group_pow", "verify_nilpotent_lie",
    ),
    "linalg": ("Matrix", "echelon", "kernel_basis", "rref", "smith_normal_form", "solve"),
    "modules": (
        "Lattice", "ModuleDesc", "ModuleElement", "cyclic", "divisible_bounded_split",
        "free_line", "rational_line", "split_complement", "torsion_part",
    ),
    "polynomials": ("Poly", "poly_factor"),
    "rings": (
        "annihilator", "categoricity_check", "central_split_mixed", "decompose_bounded",
        "decompose_char0", "foundation_addition", "is_regular", "model_construct", "square_ideal",
        "verbal_ideal",
    ),
    "scalars": (
        "EndoAlgebra", "ScalarRingReport", "decompose_via_scalars", "largest_scalar_action",
        "p_of_f", "symmetric_endos", "z_center", "z_n_diagnostic",
    ),
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]


def test_the_package_exports_these_80_names():
    assert len(NAMES) == 80
    assert sorted(ringlab._HOME.items()) == sorted((name, module) for module, name in NAMES)


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_a_public_name_is_its_submodules_object(module, name):
    namespace = {}
    exec(f"from ringlab import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"ringlab.{module}"), name)
    assert getattr(ringlab, name) is namespace[name]


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'ringlab' has no attribute 'no_such_name'"):
        ringlab.no_such_name
    with pytest.raises(ImportError):
        exec("from ringlab import no_such_name", {})
