"""Every rank cap and input guard in one table each: each refuses what is out of range the same way.

The tables: rank caps (``_RANK_CAPS``), positive scalars (``_require_positive``), integer parameters and the
dimension (``_require_at_least``, ``_check_dim``), and 6-D points (the ``mixed6`` point reader).  Each refusal is a
``ValueError`` naming the parameter.
"""
import io
import math
import re
from pathlib import Path

import numpy as np
import pytest

from hermtensor.cli import main
from hermtensor.hermite import _hermite_table, evaluate_basis, grad_check
from hermtensor.mixed6 import (
    MAX_MIXED_RANK,
    BlockRotation,
    SpeciesPair,
    distribution_invariance,
    equivariance_residual,
    mixed_hermite,
    mixed_reconstruct,
    product_distribution,
    rotate_rank_n,
    stack_coefficients,
)
from hermtensor.quadrature import (
    _RANK_CAPS,
    ATOMIC_MASS,
    ExpansionCoefficients,
    WeightSpec,
    expand,
    gauss_hermite_rule,
    ortho_matrix,
    truncation_error,
)
from hermtensor.symtensor import SymTensor, canonical_index_tuples, n_components, outer_power
from hermtensor.transforms import (
    TO_CENTERED,
    ScalingMap,
    TranslationMap,
    alpha_from_temperatures,
    orthogonality_after_translation,
    scaling_admissible,
    temperature_window,
    translate_basis,
    translation_roundtrip,
)

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
    ("translate_basis", "translate_basis"): lambda r: translate_basis(r, TMAP, TO_CENTERED),
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
    assert MAX_MIXED_RANK == _RANK_CAPS["mixed"]


@pytest.mark.parametrize("entry,reader", sorted(LIBRARY))
def test_library_cap_accepts_top_and_refuses_next(entry, reader):
    call, top = LIBRARY[entry, reader], _RANK_CAPS[entry]
    call(top)
    with pytest.raises(ValueError, match=re.escape(f"{entry} supports ranks 0..{top}, got {top + 1}")):
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
        assert capsys.readouterr().err == f"error: {entry} supports ranks {low}..{top}, got {rank}\n"


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


@pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan], ids=repr)
@pytest.mark.parametrize("entry,parameter", sorted(POSITIVE))
def test_positive_guard_names_the_parameter(entry, parameter, value):
    with pytest.raises(ValueError, match=re.escape(f"{parameter} must be finite and positive, got {value}")):
        POSITIVE[entry, parameter](value)


Z = (0.3, -0.1, 0.5)

# entry -> (a call with one integer input, the dimension or the step out of range and every other input
# admissible, the refusal); outer_power's power is the rank of its result.  _require_order and
# ExpansionCoefficients refused with this wording already: test_negative_ranks_are_refused and
# test_negative_max_rank_refused_at_construction pin them
INTEGER = {
    "canonical_index_tuples": (lambda: canonical_index_tuples(-1, 3), "rank must be >= 0, got -1"),
    "SymTensor": (lambda: SymTensor(3, -1, []), "rank must be >= 0, got -1"),
    "outer_power": (lambda: outer_power(np.ones(3), -1), "rank must be >= 0, got -1"),
    "evaluate_basis": (lambda: evaluate_basis(-1, Z), "max_rank must be >= 0, got -1"),
    "evaluate_basis dim": (lambda: evaluate_basis(2, (*Z, 0.0), dim=4), "dimension must be one of (3, 6), got 4"),
    "_hermite_table": (lambda: _hermite_table(-1, 0.5), "max_n must be >= 0, got -1"),
    "grad_check": (lambda: grad_check(-1, Z), "rank must be >= 1, got -1"),
    "grad_check rank 0": (lambda: grad_check(0, Z), "rank must be >= 1, got 0"),
    "grad_check dim": (lambda: grad_check(2, (*Z, 0.0)), "dimension must be one of (3, 6), got 4"),
    "grad_check h": (lambda: grad_check(2, Z, h=0.0), "h must be finite and positive, got 0.0"),
}


@pytest.mark.parametrize("entry", sorted(INTEGER))
def test_integer_guard_names_the_parameter(entry):
    call, message = INTEGER[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# entry -> (a call at the given 6-D points, the parameter it names, whether it takes a batch)
POINTS6 = {
    "mixed_hermite": (lambda x: mixed_hermite(2, x), "x", False),
    "equivariance_residual": (lambda x: equivariance_residual(2, x, PAIR), "x", False),
    "mixed_reconstruct": (lambda x: mixed_reconstruct([zeros(6, 0), zeros(6, 1)], x), "x", True),
    "product_distribution": (lambda x: product_distribution(expansion(1), expansion(1), x), "points", True),
    "distribution_invariance": (lambda x: distribution_invariance(expansion(1), expansion(1), PAIR, x), "points", True),
}


@pytest.mark.parametrize("shape", [(1, 3), (2, 5), (6, 6, 1)], ids=str)
@pytest.mark.parametrize("entry", sorted(POINTS6))
def test_6d_point_guard_names_the_parameter(entry, shape):
    call, name, batch = POINTS6[entry]
    kind = "a 6-vector or MixedPoint" + (", or a (K, 6) batch of them" if batch else "")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be {kind}, got shape {shape}')}$"):
        call(np.zeros(shape))
