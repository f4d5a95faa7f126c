"""Every rank cap and input guard in one table each: each refuses what is out of range the same way.

The tables: rank caps (``_RANK_CAPS``), positive scalars (``_require_positive``), the series scale f0
(``_require_nonzero``), integrand samples (``quadrature._sample``), integer parameters, the
dimension and the other shape and kind refusals (``_require_integer``, ``_check_dim``, the series reader
``_read_series`` and its refusal of exact components, the kind guard ``_require_kind``, the tensor-pair guard
``_require_pair`` and its refusal of an exact tensor with a float one, the tensor read's integer labels; every integer
entry also refuses a float, an np.float64, a str and a bool, and takes an np.int64; every rule and translation-map
parameter refuses a number), points (the point reader ``_read_points``), and 6-D points (the
``mixed6`` reader on top of it).  Each refusal is a ``ValueError`` naming the parameter.
"""
import functools
import io
import math
import re
from pathlib import Path

import numpy as np
import pytest

from hermtensor.cli import main
from hermtensor.hermite import (
    PolyScalar,
    _hermite_table,
    evaluate_basis,
    grad_check,
    hermite_phys,
    hermite_prob,
    hermite_symbolic,
)
from hermtensor.mixed6 import (
    SPECIES_FRAME,
    BlockRotation,
    MixedPoint,
    SpeciesPair,
    com_relative_from_velocities,
    distribution_invariance,
    equivariance_residual,
    from_com_relative,
    mixed_hermite,
    mixed_reconstruct,
    product_distribution,
    rotate_coefficients,
    rotate_rank_n,
    species_point_from_velocities,
    stack_coefficients,
    to_com_relative,
)
from hermtensor.quadrature import (
    _RANK_CAPS,
    ATOMIC_MASS,
    ExpansionCoefficients,
    QuadratureRule,
    WeightSpec,
    expand,
    gauss_hermite_rule,
    grid_points,
    grid_weights,
    integrate3,
    l2_admissible,
    ortho_matrix,
    reconstruct,
    truncation_error,
)
from hermtensor.symtensor import (
    SymTensor,
    canonical_index_tuples,
    inner,
    max_component_diff,
    multiplicity_vector,
    n_components,
    outer_power,
    perm_delta,
    sym_product,
)
from hermtensor.transforms import (
    TO_CENTERED,
    ScalingMap,
    TranslationMap,
    alpha_from_temperatures,
    convergence_probe,
    orthogonality_after_translation,
    scaling_admissible,
    temperature_window,
    translate_basis,
    translated_hermite,
    translation_roundtrip,
)

from hermite_oracles import product_rows

PAIR = SpeciesPair(1.0, 4.0, 300.0)
TMAP = TranslationMap((0.1, -0.2, 0.3), (0.5, 0.0, -0.4))


def zeros(dim, rank):
    return SymTensor(dim, rank, np.zeros(n_components(rank, dim)))


def expansion(top):
    return ExpansionCoefficients(top, tuple(zeros(3, n) for n in range(top + 1)))


# (entry, reader) -> a call of the reader at the given rank
LIBRARY = {
    ("ortho_matrix", "ortho_matrix"): lambda r: ortho_matrix(r, r, gauss_hermite_rule(2 * r + 2)),
    ("mixed", "mixed_hermite"): lambda r: mixed_hermite(r, np.zeros(6)),
    ("mixed", "rotate_rank_n"): lambda r: rotate_rank_n(BlockRotation.from_pair(PAIR), zeros(6, r)),
    ("mixed", "stack_coefficients"): lambda r: stack_coefficients(expansion(r // 2), expansion(r - r // 2)),
    ("mixed", "mixed_reconstruct"): lambda r: mixed_reconstruct([zeros(6, n) for n in range(r + 1)], np.zeros(6)),
    ("invariance_per_species", "distribution_invariance"): (
        lambda r: distribution_invariance(expansion(0), expansion(r), PAIR, np.zeros((3, 6)))
    ),
    ("translate_basis", "translate_basis"): lambda r: translate_basis([zeros(3, n) for n in range(r + 1)], TMAP, TO_CENTERED),
    ("translation_roundtrip", "translation_roundtrip"): lambda r: translation_roundtrip(r, TMAP, np.array([0.3, -1.2, 0.8])),
}

# entry -> argv with the rank left as "{}"
CLI = {
    "ortho_matrix": ["verify", "ortho", "--max-rank", "{}"],
    "translation_roundtrip": ["verify", "translate", "--max-rank", "{}"],
    "basis": ["basis", "--rank", "{}", "--point", "0.3,1,2"],
    "basis_symbolic": ["basis", "--rank", "{}", "--symbolic"],
    "expand": ["expand", "--mass", "28", "--temperature", "300", "--max-rank", "{}"],
    "verify_rotate": ["verify", "rotate", "--max-rank", "{}"],
}

# library entries reached through the CLI: the lowest rank their command accepts
CLI_LOW = {"translation_roundtrip": 1}


def test_every_cap_is_exercised():
    assert {entry for entry, _ in LIBRARY} | set(CLI) == set(_RANK_CAPS)


@pytest.mark.parametrize("entry,reader", sorted(LIBRARY))
def test_library_cap_accepts_top_and_refuses_next(entry, reader):
    call, top = LIBRARY[entry, reader], _RANK_CAPS[entry]
    call(top)
    with pytest.raises(ValueError, match=re.escape(f"{entry} rank must be an integer within 0..{top}, got {top + 1}")):
        call(top + 1)


def invoke(entry, rank):
    buf = io.StringIO()
    code = main([arg.format(rank) for arg in CLI[entry]], buf)
    return code, buf.getvalue()


@pytest.mark.parametrize("entry", sorted(CLI))
def test_cli_cap_accepts_top_and_refuses_next(entry, capsys):
    top, low = _RANK_CAPS[entry], CLI_LOW.get(entry, 0)
    code, out = invoke(entry, top)
    assert code == 0 and out
    capsys.readouterr()
    for rank in (low - 1, top + 1):
        assert invoke(entry, rank) == (2, "")
        assert capsys.readouterr().err == f"error: {entry} rank must be an integer within {low}..{top}, got {rank}\n"


def maxwellian(points):
    return np.exp(-np.sum(points**2, axis=1))


@pytest.mark.parametrize(
    "call",
    [
        lambda rule: ortho_matrix(-1, 0, rule),
        lambda rule: ortho_matrix(0, -1, rule),
        lambda rule: ortho_matrix(-1, -1, rule),
        lambda rule: orthogonality_after_translation(-1, 1, TMAP, rule),
        lambda rule: expand(maxwellian, -1, rule, vectorized=True),
        lambda rule: truncation_error(maxwellian, -1, rule, vectorized=True),
    ],
    ids=["ortho-m", "ortho-n", "ortho-both", "translated-gram", "expand", "truncation-error"],
)
def test_negative_ranks_are_refused(call):
    with pytest.raises(ValueError, match="got -1"):
        call(gauss_hermite_rule(8))


def test_readme_limits_table_matches_code():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Limits\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (\d+) \|", section, re.M)
    assert len(rows) == len(_RANK_CAPS)
    assert {name: int(top) for name, top in rows} == _RANK_CAPS


# (entry, parameter) -> a call with that parameter set to the given value and every other input admissible
POSITIVE = {
    ("WeightSpec", "density"): lambda v: WeightSpec(v, 28 * ATOMIC_MASS, 300.0),
    ("WeightSpec", "mass"): lambda v: WeightSpec(1.0, v, 300.0),
    ("WeightSpec", "temperature"): lambda v: WeightSpec(1.0, 28 * ATOMIC_MASS, v),
    ("SpeciesPair", "m_s"): lambda v: SpeciesPair(v, 4.0, 300.0),
    ("SpeciesPair", "m_sp"): lambda v: SpeciesPair(1.0, v, 300.0),
    ("SpeciesPair", "T"): lambda v: SpeciesPair(1.0, 4.0, v),
    ("ScalingMap", "alpha"): lambda v: ScalingMap(v),
    ("scaling_admissible", "alpha"): lambda v: scaling_admissible(v),
    ("alpha_from_temperatures", "T"): lambda v: alpha_from_temperatures(v, 300.0),
    ("alpha_from_temperatures", "T_s"): lambda v: alpha_from_temperatures(300.0, v),
    ("temperature_window", "T_i"): lambda v: temperature_window(v, 1000.0),
    ("temperature_window", "T_n"): lambda v: temperature_window(2000.0, v),
}


# a value that is not one real number (a str, None, a bool, an array even of one value or 0-d) is refused the way
# a number out of range is
@pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan, "a", None, True, np.array([1.2]), np.array(1.2)], ids=repr)
@pytest.mark.parametrize("entry,parameter", sorted(POSITIVE))
def test_positive_guard_names_the_parameter(entry, parameter, value):
    with pytest.raises(ValueError, match=re.escape(f"{parameter} must be finite and positive, got {value}")):
        POSITIVE[entry, parameter](value)


# entry -> a call with the series scale f0 set to the given value and every other input admissible
F0 = {
    "expand": lambda v: expand(maxwellian, 1, gauss_hermite_rule(8), v, vectorized=True),
    "truncation_error": lambda v: truncation_error(maxwellian, 1, gauss_hermite_rule(8), v, vectorized=True),
    "ExpansionCoefficients": lambda v: ExpansionCoefficients(0, (zeros(3, 0),), v),
    "mixed_reconstruct": lambda v: mixed_reconstruct([zeros(6, 0)], np.zeros(6), v),
}


@pytest.mark.parametrize("value", ["x", 0.0, math.nan, math.inf, True, np.array([1.0])], ids=repr)
@pytest.mark.parametrize("entry", sorted(F0))
def test_series_scale_guard_names_f0(entry, value):
    with pytest.raises(ValueError, match=f"^{re.escape(f'f0 must be finite and nonzero, got {value}')}$"):
        F0[entry](value)


def test_series_scale_takes_either_sign():
    assert ExpansionCoefficients(0, (zeros(3, 0),), -2.0).f0 == -2.0
    assert mixed_reconstruct([SymTensor(6, 0, [1.0])], np.zeros(6), -2.0) == -2.0


# (integrand, vectorized) for each result that is not one number per point: a point's sample of several numbers,
# samples of different lengths, text, None, and a vectorized result of the wrong length
INTEGRANDS = {
    "pointwise 2-vector": (lambda p: np.zeros(2), False),
    "pointwise (1,) array": (lambda p: np.zeros(1), False),
    "pointwise ragged": (lambda p: [0.0] * (1 + int(p[0] > 0)), False),
    "pointwise text": (lambda p: "a", False),
    "vectorized ragged": (lambda p: [[0.0], [0.0, 0.0]], True),
    "vectorized text": (lambda p: "a", True),
    "vectorized wrong length": (lambda p: np.zeros(len(p) - 1), True),
    "pointwise None": (lambda p: None, False),
    "vectorized None": (lambda p: [None] * len(p), True),
}


@pytest.mark.parametrize("entry", sorted(INTEGRANDS))
def test_integrand_guard_reads_both_kinds_one_way(entry):
    f, vectorized = INTEGRANDS[entry]
    with pytest.raises(ValueError, match="^integrand must return one number per point$"):
        integrate3(f, RULE, vectorized=vectorized)


Z = (0.3, -0.1, 0.5)
RULE = gauss_hermite_rule(8)


def series(name, dim):
    """The series reader's refusal of the parameter ``name``."""
    return f"{name} must be a list or tuple of {dim}-D SymTensors of ranks 0, 1, 2, ... in order"


def not_expansion(name):
    """The kind guard's refusal of the float given as ``name`` where an expansion belongs."""
    return f"{name} must be an ExpansionCoefficients, got float"


def not_dim(value):
    """The dimension guard's refusal of ``value``."""
    return f"dimension must be one of (3, 6), got {value}"


def not_key(key):
    """The tensor read's refusal of ``key``, which is not a sequence of integer axis labels."""
    return f"key must be a tuple or list of integer axis labels, got {key!r}"


def not_float(name):
    """The series reader's refusal of exact (PolyScalar) components given as ``name``."""
    return f"{name} must hold float components, got exact ones"


# the pair guard's refusal of one exact and one float tensor
MIXED_KINDS = "a and b must both hold exact or both hold float components"


# entry -> (a call with one input refused and every other input admissible, the refusal): an integer, the
# dimension or the step out of range, or an input of the wrong shape or kind; outer_power's power is the rank of
# its result.  _require_order's refusal is pinned by test_negative_ranks_are_refused
INTEGER = {
    "canonical_index_tuples": (lambda: canonical_index_tuples(-1, 3), "rank must be an integer >= 0, got -1"),
    "canonical_index_tuples 2.0 after 2": (
        lambda: (canonical_index_tuples(2, 3), canonical_index_tuples(2.0, 3)), "rank must be an integer >= 0, got 2.0"
    ),
    "n_components": (lambda: n_components(-1, 3), "rank must be an integer >= 0, got -1"),
    "SymTensor": (lambda: SymTensor(3, -1, []), "rank must be an integer >= 0, got -1"),
    "outer_power": (lambda: outer_power(np.ones(3), -1), "rank must be an integer >= 0, got -1"),
    "evaluate_basis": (lambda: evaluate_basis(-1, Z), "max_rank must be an integer >= 0, got -1"),
    "evaluate_basis dim": (lambda: evaluate_basis(2, (*Z, 0.0), dim=4), "dimension must be one of (3, 6), got 4"),
    "evaluate_basis coordinates": (lambda: evaluate_basis(2, Z[:2]), "expected 3 coordinates, got 2"),
    "_hermite_table": (lambda: _hermite_table(-1, 0.5), "max_n must be an integer >= 0, got -1"),
    "grad_check": (lambda: grad_check(-1, Z), "rank must be an integer >= 1, got -1"),
    "grad_check rank 0": (lambda: grad_check(0, Z), "rank must be an integer >= 1, got 0"),
    "grad_check dim": (lambda: grad_check(2, (*Z, 0.0)), "dimension must be one of (3, 6), got 4"),
    "grad_check h": (lambda: grad_check(2, Z, h=0.0), "h must be finite and positive, got 0.0"),
    "grad_check h text": (lambda: grad_check(2, Z, h="a"), "h must be finite and positive, got a"),
    "WeightSpec density array": (
        lambda: WeightSpec(np.array([1.0, 2.0]), 28 * ATOMIC_MASS, 300.0), "density must be finite and positive, got [1. 2.]"
    ),
    "BlockRotation text": (lambda: BlockRotation("a", 1.0), "block coefficients must be finite and satisfy y**2 + y'**2 == 1"),
    "BlockRotation bool": (lambda: BlockRotation(True, False), "block coefficients must be finite and satisfy y**2 + y'**2 == 1"),
    "gauss_hermite_rule": (lambda: gauss_hermite_rule(65), "order must be an integer within 1..64, got 65"),
    "QuadratureRule": (lambda: QuadratureRule(0, [], []), "order must be an integer >= 1, got 0"),
    "ExpansionCoefficients count": (
        lambda: ExpansionCoefficients(1, (zeros(3, 0),)), "need one coefficient tensor per rank 0..max_rank"
    ),
    "ExpansionCoefficients rank": (lambda: ExpansionCoefficients(1, (zeros(3, 0), zeros(3, 2))), series("coeffs", 3)),
    "ExpansionCoefficients dim": (lambda: ExpansionCoefficients(1, (zeros(3, 0), zeros(6, 1))), series("coeffs", 3)),
    "ExpansionCoefficients floats": (lambda: ExpansionCoefficients(1, (1.0, 2.0)), series("coeffs", 3)),
    "ExpansionCoefficients int": (lambda: ExpansionCoefficients(1, 5), series("coeffs", 3)),
    "mixed_reconstruct float": (lambda: mixed_reconstruct(3.0, np.zeros(6)), series("alphas", 6)),
    "rotate_coefficients float": (lambda: rotate_coefficients(3.0, BlockRotation.from_pair(PAIR)), series("alphas", 6)),
    "rotate_coefficients floats": (lambda: rotate_coefficients([1.0], BlockRotation.from_pair(PAIR)), series("alphas", 6)),
    "reconstruct float": (lambda: reconstruct(3.0, Z), not_expansion("coeffs")),
    "stack_coefficients floats": (lambda: stack_coefficients(3.0, 4.0), not_expansion("coeff_s")),
    "stack_coefficients coeff_sp": (lambda: stack_coefficients(expansion(1), 4.0), not_expansion("coeff_sp")),
    "product_distribution float": (lambda: product_distribution(3.0, expansion(1), np.zeros(6)), not_expansion("coeff_s")),
    "distribution_invariance float": (
        lambda: distribution_invariance(expansion(1), 3.0, PAIR, np.zeros(6)), not_expansion("coeff_sp")
    ),
    "BlockRotation.from_pair float": (lambda: BlockRotation.from_pair(3.0), "pair must be a SpeciesPair, got float"),
    "equivariance_residual pair": (
        lambda: equivariance_residual(2, np.zeros(6), 3.0), "pair must be a SpeciesPair, got float"
    ),
    "distribution_invariance pair": (
        lambda: distribution_invariance(expansion(1), expansion(1), 3.0, np.zeros(6)), "pair must be a SpeciesPair, got float"
    ),
    "species_point_from_velocities pair": (
        lambda: species_point_from_velocities(3.0, np.zeros(3), np.zeros(3)), "pair must be a SpeciesPair, got float"
    ),
    "com_relative_from_velocities pair": (
        lambda: com_relative_from_velocities(3.0, np.zeros(3), np.zeros(3)), "pair must be a SpeciesPair, got float"
    ),
    "rotate_rank_n rot": (lambda: rotate_rank_n(3.0, zeros(6, 2)), "rot must be a BlockRotation, got float"),
    "rotate_rank_n rot rank 0": (lambda: rotate_rank_n(3.0, zeros(6, 0)), "rot must be a BlockRotation, got float"),
    "rotate_coefficients rot": (lambda: rotate_coefficients([zeros(6, 0)], 3.0), "rot must be a BlockRotation, got float"),
    "canonical_index_tuples dim 3.0": (lambda: canonical_index_tuples(2, 3.0), not_dim(3.0)),
    "SymTensor dim 3.0": (lambda: SymTensor(3.0, 1, [0.0, 0.0, 0.0]), not_dim(3.0)),
    "SymTensor dim np.float64": (lambda: SymTensor(np.float64(3.0), 1, [0.0, 0.0, 0.0]), not_dim(3.0)),
    "evaluate_basis dim 3.0": (lambda: evaluate_basis(2, Z, dim=3.0), not_dim(3.0)),
    "hermite_symbolic dim 3.0": (lambda: hermite_symbolic(2, dim=3.0), not_dim(3.0)),
    "multiplicity_vector dim '3'": (lambda: multiplicity_vector(2, "3"), not_dim("3")),
    "translate_basis 1.5": (lambda: translate_basis(1.5, TMAP, TO_CENTERED), series("values", 3)),
    "translate_basis '2'": (lambda: translate_basis("2", TMAP, TO_CENTERED), series("values", 3)),
    "translate_basis 6-D": (lambda: translate_basis([zeros(6, 0), zeros(6, 1)], TMAP, TO_CENTERED), series("values", 3)),
    "translate_basis order": (lambda: translate_basis([zeros(3, 1), zeros(3, 0)], TMAP, TO_CENTERED), series("values", 3)),
    "expand vectorized": (
        lambda: expand(lambda p: np.zeros(3), 1, RULE, vectorized=True), "integrand must return one number per point"
    ),
    "SymTensor index rank": (lambda: zeros(3, 2)[(0,)], "index of rank 1 for rank-2 tensor"),
    "SymTensor index label": (lambda: zeros(3, 2)[(0, 5)], "axis labels out of range for dim 3: (0, 5)"),
    "SymTensor negative label": (lambda: zeros(3, 2)[(2, -1)], "axis labels out of range for dim 3: (-1, 2)"),
    "SymTensor MultiIndex": (lambda: zeros(3, 2)[(1,)], "index of rank 1 for rank-2 tensor"),
    "SymTensor float label": (lambda: zeros(3, 2)[(0, 1.7)], not_key((0, 1.7))),
    "SymTensor bool label": (lambda: zeros(3, 2)[(True, 0)], not_key((True, 0))),
    "SymTensor text label": (lambda: zeros(3, 2)[("a", 0)], not_key(("a", 0))),
    "SymTensor bare label": (lambda: zeros(3, 1)[0], not_key(0)),
    "ExpansionCoefficients exact": (lambda: ExpansionCoefficients(2, tuple(hermite_symbolic(2))), not_float("coeffs")),
    "mixed_reconstruct exact": (lambda: mixed_reconstruct(hermite_symbolic(1, dim=6), np.zeros(6)), not_float("alphas")),
    "rotate_coefficients exact": (
        lambda: rotate_coefficients(hermite_symbolic(1, dim=6), BlockRotation.from_pair(PAIR)), not_float("alphas")
    ),
    "translate_basis exact": (lambda: translate_basis(hermite_symbolic(2), TMAP, TO_CENTERED), not_float("values")),
    "sym_product exact float": (lambda: sym_product(hermite_symbolic(1)[1], zeros(3, 1)), MIXED_KINDS),
    "sym_product float exact": (lambda: sym_product(zeros(3, 2), hermite_symbolic(1)[0]), MIXED_KINDS),
    "SymTensor + exact float": (lambda: hermite_symbolic(1)[1] + zeros(3, 1), MIXED_KINDS),
    "SymTensor - float exact": (lambda: zeros(3, 1) - hermite_symbolic(1)[1], MIXED_KINDS),
    "inner exact float": (lambda: inner(hermite_symbolic(1)[1], zeros(3, 1)), MIXED_KINDS),
    "max_component_diff exact": (
        lambda: max_component_diff(hermite_symbolic(1)[1], hermite_symbolic(1)[1]),
        "a and b must hold float components, got exact ones",
    ),
    "convergence_probe smap": (lambda: convergence_probe(3.0, RULE), "smap must be a ScalingMap, got float"),
    "to_com_relative p": (lambda: to_com_relative((0.0,) * 6, PAIR), "p must be a MixedPoint, got tuple"),
    "from_com_relative p": (lambda: from_com_relative(3.0, PAIR), "p must be a MixedPoint, got float"),
    "rotate_rank_n t": (lambda: rotate_rank_n(BlockRotation.from_pair(PAIR), 3.0), "t must be a SymTensor, got float"),
    "sym_product float": (lambda: sym_product(zeros(3, 1), 3.0), "b must be a SymTensor, got float"),
    "inner float": (lambda: inner(zeros(3, 1), 3.0), "b must be a SymTensor, got float"),
    "max_component_diff float": (lambda: max_component_diff(zeros(3, 1), 3.0), "b must be a SymTensor, got float"),
    "outer_power text": (lambda: outer_power("ab", 2), "vector must be a 3-vector or 6-vector, got ragged or non-numeric input"),
    "SymTensor + rank": (lambda: zeros(3, 1) + zeros(3, 2), "rank/dim mismatch"),
    "SymTensor - dim": (lambda: zeros(3, 1) - zeros(6, 1), "rank/dim mismatch"),
    "sym_product dim": (lambda: sym_product(zeros(3, 1), zeros(6, 1)), "dim mismatch"),
    "perm_delta": (lambda: perm_delta((0, 1), (0,)), "index ranks differ"),
    "max_component_diff": (lambda: max_component_diff(zeros(3, 1), zeros(3, 2)), "rank/dim mismatch"),
    "from_dense": (lambda: SymTensor.from_dense(np.zeros((3, 2))), "dense array must be hypercubic"),
    "to_dense exact": (lambda: hermite_symbolic(1)[1].to_dense(), "to_dense requires numeric components"),
    "product_rows": (lambda: product_rows(2, np.zeros(3)), "points must have shape (K, d)"),
    "PolyScalar": (lambda: PolyScalar.variable(3, 0) + PolyScalar.variable(6, 0), "dimension mismatch"),
}

# entry -> (a call with its integer parameter set to the given value and every other input admissible at 2, the
# parameter and the bound its refusal names)
INTEGER_PARAMETERS = {
    "canonical_index_tuples": (lambda v: canonical_index_tuples(v, 3), "rank", ">= 0"),
    "n_components": (lambda v: n_components(v, 3), "rank", ">= 0"),
    "multiplicity_vector": (lambda v: multiplicity_vector(v, 3), "rank", ">= 0"),
    "SymTensor": (lambda v: SymTensor(3, v, np.zeros(6)), "rank", ">= 0"),
    "outer_power": (lambda v: outer_power(np.ones(3), v), "rank", ">= 0"),
    "evaluate_basis": (lambda v: evaluate_basis(v, Z), "max_rank", ">= 0"),
    "hermite_phys": (lambda v: hermite_phys(v, Z), "max_rank", ">= 0"),
    "hermite_prob": (lambda v: hermite_prob(v, Z), "max_rank", ">= 0"),
    "hermite_symbolic": (lambda v: hermite_symbolic(v), "max_rank", ">= 0"),
    "product_rows": (lambda v: product_rows(v, np.zeros((1, 3))), "max_rank", ">= 0"),
    "grad_check": (lambda v: grad_check(v, Z), "rank", ">= 1"),
    "gauss_hermite_rule": (lambda v: gauss_hermite_rule(v), "order", "within 1..64"),
    "QuadratureRule": (lambda v: QuadratureRule(v, gauss_hermite_rule(2).nodes, gauss_hermite_rule(2).weights), "order", ">= 1"),
    "ortho_matrix": (lambda v: ortho_matrix(v, 1, RULE), "ortho_matrix rank", "within 0..4"),
    "orthogonality_after_translation": (lambda v: orthogonality_after_translation(v, 1, TMAP, RULE), "rank", ">= 0"),
    "expand": (lambda v: expand(maxwellian, v, RULE, vectorized=True), "rank", ">= 0"),
    "truncation_error": (lambda v: truncation_error(maxwellian, v, RULE, vectorized=True), "rank", ">= 0"),
    "ExpansionCoefficients": (lambda v: ExpansionCoefficients(v, tuple(zeros(3, n) for n in range(3))), "max_rank", ">= 0"),
    "translated_hermite": (lambda v: translated_hermite(v, TMAP, TO_CENTERED, Z), "translate_basis rank", "within 0..6"),
    "translation_roundtrip": (lambda v: translation_roundtrip(v, TMAP, Z), "translation_roundtrip rank", "within 0..5"),
    "mixed_hermite": (lambda v: mixed_hermite(v, np.zeros(6)), "mixed rank", "within 0..4"),
    "equivariance_residual": (lambda v: equivariance_residual(v, np.zeros(6), PAIR), "mixed rank", "within 0..4"),
}

# an integer parameter refuses 1.5, each twin of 2 that has no __index__, and a bool
INTEGER.update(
    (f"{entry} {value!r}", (functools.partial(call, value), f"{name} must be an integer {bound}, got {value!r}"))
    for entry, (call, name, bound) in INTEGER_PARAMETERS.items()
    for value in (1.5, 2.0, np.float64(2.0), "2", True)
)


# entry -> a call with its rule set to the given value and every other input admissible
RULE_PARAMETERS = {
    "expand": lambda r: expand(maxwellian, 2, r, vectorized=True),
    "truncation_error": lambda r: truncation_error(maxwellian, 2, r, vectorized=True),
    "l2_admissible": lambda r: l2_admissible(maxwellian, r, vectorized=True),
    "integrate3": lambda r: integrate3(maxwellian, r, vectorized=True),
    "ortho_matrix": lambda r: ortho_matrix(1, 1, r),
    "grid_points": grid_points,
    "grid_weights": grid_weights,
    "convergence_probe": lambda r: convergence_probe(ScalingMap(1.2), r),
    "orthogonality_after_translation": lambda r: orthogonality_after_translation(1, 1, TMAP, r),
}

# entry -> a call with its translation map set to the given value and every other input admissible
TMAP_PARAMETERS = {
    "translate_basis": lambda t: translate_basis(hermite_phys(2, Z), t, TO_CENTERED),
    "translated_hermite": lambda t: translated_hermite(2, t, TO_CENTERED, Z),
    "translation_roundtrip": lambda t: translation_roundtrip(2, t, Z),
    "orthogonality_after_translation": lambda t: orthogonality_after_translation(1, 1, t, RULE),
}

# a rule or a translation map given as a number is refused by kind where it is first read
INTEGER.update(
    (f"{entry} rule", (functools.partial(call, 8), "rule must be a QuadratureRule, got int"))
    for entry, call in RULE_PARAMETERS.items()
)
INTEGER.update(
    (f"{entry} tmap", (functools.partial(call, 3.0), "tmap must be a TranslationMap, got float"))
    for entry, call in TMAP_PARAMETERS.items()
)


@pytest.mark.parametrize("entry", sorted(INTEGER))
def test_integer_guard_names_the_parameter(entry):
    call, message = INTEGER[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("entry", sorted(INTEGER_PARAMETERS))
def test_integer_parameters_take_numpy_integers(entry):
    INTEGER_PARAMETERS[entry][0](np.int64(2))


@pytest.mark.parametrize("call", [
    lambda d: canonical_index_tuples(2, d),
    lambda d: SymTensor(d, 1, [0.0] * 3),
    lambda d: evaluate_basis(2, Z, dim=d),
    lambda d: hermite_symbolic(1, dim=d),
], ids=["canonical_index_tuples", "SymTensor", "evaluate_basis", "hermite_symbolic"])
def test_dimension_takes_numpy_integers(call):
    call(np.int64(3))


# inputs that are no array of points at all: a ragged list and the text of a point
NOT_POINTS = {"ragged": [[0.1, 0.2, 0.3], [0.1, 0.2]], "text": "0.1,0.2,0.3"}


def bad_points(shape):
    """The input ``shape`` names (zeros of that shape, or one of NOT_POINTS) and how a refusal describes it."""
    if shape in NOT_POINTS:
        return NOT_POINTS[shape], "ragged or non-numeric input"
    return np.zeros(shape), f"shape {shape}"


BATCH3 = "a 3-vector, or a (K, 3) batch of them"

# entry -> (a call at the given points, the parameter it names, what it takes); reconstruct's shape test is
# test_reconstruct_refuses_points_of_the_wrong_shape, the 6-D entries' is below
POINTS = {
    "translated_hermite": (lambda x: translated_hermite(2, TMAP, TO_CENTERED, x), "z", "a 3-vector"),
    "translation_roundtrip": (lambda x: translation_roundtrip(2, TMAP, x), "z", "a 3-vector"),
    "hermite_phys": (lambda x: hermite_phys(2, x), "z", "a 3-vector or 6-vector"),
    "hermite_prob": (lambda x: hermite_prob(2, x), "z", "a 3-vector or 6-vector"),
    "grad_check": (lambda x: grad_check(2, x), "z", "a 3-vector or 6-vector"),
    "ScalingMap.apply": (lambda x: ScalingMap(1.5).apply(x), "z", BATCH3),
    "WeightSpec.weight_z": (lambda x: WeightSpec(1.0, 28 * ATOMIC_MASS, 300.0).weight_z(x), "z", BATCH3),
    "MixedPoint": (lambda x: MixedPoint(x, SPECIES_FRAME), "coords", "a 6-vector"),
    "BlockRotation.apply": (lambda x: BlockRotation.from_pair(PAIR).apply(x), "x", "a 6-vector"),
    "species_point_from_velocities v_s": (lambda x: species_point_from_velocities(PAIR, x, Z), "v_s", "a 3-vector"),
    "species_point_from_velocities v_sp": (lambda x: species_point_from_velocities(PAIR, Z, x), "v_sp", "a 3-vector"),
    "com_relative_from_velocities v_s": (lambda x: com_relative_from_velocities(PAIR, x, Z), "v_s", "a 3-vector"),
    "com_relative_from_velocities v_sp": (lambda x: com_relative_from_velocities(PAIR, Z, x), "v_sp", "a 3-vector"),
}


@pytest.mark.parametrize("shape", [(2,), (2, 3), (6, 6, 1), "ragged", "text"], ids=str)
@pytest.mark.parametrize("entry", sorted(POINTS))
def test_point_guard_names_the_parameter(entry, shape):
    call, name, kind = POINTS[entry]
    x, got = bad_points(shape)
    if shape == (2, 3) and kind == BATCH3:
        assert len(call(x)) == 2  # two 3-D points
        return
    # a 1-D point of an unsupported length is refused as a dimension
    message = "dimension must be one of (3, 6), got 2" if shape == (2,) and "or 6" in kind else f"{name} must be {kind}, got {got}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(x)


# entry -> (a call at the given 6-D points, the parameter it names, whether it takes a batch)
POINTS6 = {
    "mixed_hermite": (lambda x: mixed_hermite(2, x), "x", False),
    "equivariance_residual": (lambda x: equivariance_residual(2, x, PAIR), "x", False),
    "mixed_reconstruct": (lambda x: mixed_reconstruct([zeros(6, 0), zeros(6, 1)], x), "x", True),
    "product_distribution": (lambda x: product_distribution(expansion(1), expansion(1), x), "points", True),
    "distribution_invariance": (lambda x: distribution_invariance(expansion(1), expansion(1), PAIR, x), "points", True),
}


@pytest.mark.parametrize("shape", [(1, 3), (2, 5), (6, 6, 1), (2,), (2, 3), "ragged", "text"], ids=str)
@pytest.mark.parametrize("entry", sorted(POINTS6))
def test_6d_point_guard_names_the_parameter(entry, shape):
    call, name, batch = POINTS6[entry]
    x, got = bad_points(shape)
    kind = "a 6-vector or MixedPoint" + (", or a (K, 6) batch of them" if batch else "")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be {kind}, got {got}')}$"):
        call(x)
