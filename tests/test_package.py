import hermtensor
from hermtensor import cli, hermite, mixed6, quadrature, symtensor, transforms

MODULES = (symtensor, hermite, quadrature, transforms, mixed6)

# the 71 names the root exported while its list was written out by hand, less REMOVED; none other may go
EARLIER_EXPORTS = [
    "AdmissibilityResult", "BasisEvaluation", "BlockRotation", "ExpansionCoefficients",
    "HermiteConvention", "MixedPoint", "MultiIndex", "NonFiniteIntegrandError",
    "PHYSICIST", "PROBABILIST", "PolyScalar", "ProbeResult",
    "QuadratureRule", "ScalingMap", "SpeciesPair", "SymTensor",
    "TranslationMap", "TranslationTerm", "WeightSpec", "alpha_from_temperatures",
    "assemble_translation", "canonical_index_tuples", "canonicalize", "com_relative_from_velocities",
    "convergence_probe", "convert", "distribution_invariance", "equivariance_residual",
    "evaluate_basis", "expand", "from_com_relative", "gauss_hermite_rule",
    "grad_check", "grid_points", "grid_weights", "hermite_1d",
    "hermite_phys", "hermite_prob", "hermite_symbolic", "identity",
    "inner", "integrate3", "l2_admissible", "max_component_diff",
    "mixed_hermite", "mixed_reconstruct", "multiplicity", "multiplicity_vector",
    "n_components", "ortho_matrix", "orthogonality_after_translation", "outer_power",
    "perm_delta", "product_distribution", "product_oracle", "product_rows",
    "reconstruct", "rotate_coefficients", "rotate_rank_n", "scalar",
    "scaling_admissible", "species_point_from_velocities", "stack_coefficients", "sym_product",
    "sym_raw", "temperature_window", "to_com_relative", "translate_basis",
    "translated_hermite", "translation_roundtrip", "truncation_error",
]

# names no library route calls and no test compares against, deleted; product_rows and product_oracle, the
# product-form oracle, live in tests/hermite_oracles.py; MAX_MIXED_RANK was never in the root list;
# translate_basis takes the partner tensors and returns the translated one, so its term record and assembler went;
# hermite_phys and hermite_prob return the tensor list, so its record and the converter that alone read it went
REMOVED = [
    "MultiIndex", "canonicalize", "sym_raw", "hermite_1d", "product_oracle", "product_rows", "MAX_MIXED_RANK",
    "TranslationTerm", "assemble_translation", "BasisEvaluation", "convert",
]

# the root's __all__, module by module in the order of MODULES
EXPORTS = [
    "SUPPORTED_DIMS", "SymTensor", "canonical_index_tuples", "identity", "inner", "max_component_diff",
    "multiplicity", "multiplicity_vector", "n_components", "outer_power", "perm_delta", "scalar", "sym_product",
    "HermiteConvention", "PHYSICIST", "PROBABILIST", "PolyScalar", "evaluate_basis",
    "grad_check", "hermite_phys", "hermite_prob", "hermite_symbolic",
    "AdmissibilityResult", "ExpansionCoefficients", "NonFiniteIntegrandError", "QuadratureRule", "WeightSpec",
    "expand", "gauss_hermite_rule", "grid_points", "grid_weights", "integrate3", "l2_admissible", "ortho_matrix",
    "reconstruct", "truncation_error",
    "ProbeResult", "ScalingMap", "TranslationMap", "alpha_from_temperatures", "convergence_probe",
    "orthogonality_after_translation", "scaling_admissible", "temperature_window", "translate_basis",
    "translated_hermite", "translation_roundtrip",
    "BOLTZMANN", "BlockRotation", "COM_RELATIVE_FRAME", "MixedPoint", "SPECIES_FRAME", "SpeciesPair",
    "com_relative_from_velocities", "distribution_invariance", "equivariance_residual", "from_com_relative",
    "mixed_hermite", "mixed_reconstruct", "product_distribution", "rotate_coefficients", "rotate_rank_n",
    "species_point_from_velocities", "stack_coefficients", "to_com_relative",
]


def test_root_exports_each_module_name_once():
    names = hermtensor.__all__
    assert len(names) == len(set(names))
    assert names == [name for module in MODULES for name in module.__all__]
    for module in MODULES:
        for name in module.__all__:
            assert getattr(hermtensor, name) is getattr(module, name), name


def test_root_exports_are_pinned():
    assert hermtensor.__all__ == EXPORTS


def test_root_keeps_every_earlier_export():
    assert len(set(EARLIER_EXPORTS)) == 71
    assert set(EARLIER_EXPORTS) - set(REMOVED) <= set(hermtensor.__all__)


def test_removed_names_are_gone_everywhere():
    for name in REMOVED:
        assert not hasattr(hermtensor, name), name
        for module in (*MODULES, cli):
            assert not hasattr(module, name), (module.__name__, name)


# forwarding constructors and block views that no route called: a MixedPoint is read through coords, and a tensor
# is built from its component list
REMOVED_MEMBERS = [("MixedPoint", "stack"), ("MixedPoint", "upper"), ("MixedPoint", "lower"), ("SymTensor", "from_function")]


def test_removed_members_are_gone():
    for owner, name in REMOVED_MEMBERS:
        assert not hasattr(getattr(hermtensor, owner), name), (owner, name)


def test_star_import_matches_all():
    namespace = {}
    exec("from hermtensor import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(hermtensor.__all__)
