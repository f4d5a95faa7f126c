"""End-to-end acceptance checks, one per contract criterion.

Each test prints a single pass/fail line with the measured value, the
tolerance it was held to, and the elapsed time, then asserts.
"""
import math
import time

import numpy as np

from hermtensor.cli import main
from hermtensor.hermite import (
    PHYSICIST,
    PROBABILIST,
    PolyScalar,
    grad_check,
    hermite_phys,
    hermite_symbolic,
)
from hermtensor.mixed6 import (
    SPECIES_FRAME,
    BlockRotation,
    MixedPoint,
    SpeciesPair,
    distribution_invariance,
    equivariance_residual,
    product_distribution,
)
from hermtensor.quadrature import (
    ExpansionCoefficients,
    gauss_hermite_rule,
    ortho_matrix,
    truncation_error,
)
from hermtensor.symtensor import SymTensor, canonical_index_tuples, perm_delta, scalar
from hermtensor.transforms import (
    ScalingMap,
    TranslationMap,
    alpha_from_temperatures,
    convergence_probe,
    orthogonality_after_translation,
    scaling_admissible,
    temperature_window,
    translated_hermite,
    translation_roundtrip,
)

from hermite_oracles import product_oracle


def report(number, label, passed, detail, elapsed, budget):
    status = "PASS" if passed and elapsed < budget else "FAIL"
    print(f"[criterion {number}] {label}: {status} ({detail}; {elapsed:.2f}s of {budget:.0f}s)")
    assert passed, f"criterion {number} ({label}): {detail}"
    assert elapsed < budget, f"criterion {number} over budget: {elapsed:.2f}s >= {budget}s"


def test_criterion_1_closed_form_tables():
    t0 = time.perf_counter()

    def z(axis):
        return PolyScalar.variable(3, axis)

    def d(a, b):
        return 1 if a == b else 0

    tables = hermite_symbolic(3)
    mismatches = 0
    if tables[0][()] != PolyScalar.constant(3, 1):
        mismatches += 1
    for (i,) in canonical_index_tuples(1, 3):
        if tables[1][(i,)] != 2 * z(i):
            mismatches += 1
    for i, j in canonical_index_tuples(2, 3):
        if tables[2][(i, j)] != 4 * z(i) * z(j) - 2 * d(i, j):
            mismatches += 1
    for i, j, k in canonical_index_tuples(3, 3):
        expected = 8 * z(i) * z(j) * z(k) - 4 * (d(j, k) * z(i) + d(k, i) * z(j) + d(i, j) * z(k))
        if tables[3][(i, j, k)] != expected:
            mismatches += 1
    report(1, "closed-form tables ranks 0-3", mismatches == 0,
           f"{mismatches} mismatching components, integer-exact", time.perf_counter() - t0, 1.0)


def test_criterion_2_recursion_vs_product_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(20):
        point = rng.uniform(-3.0, 3.0, 3)
        values = hermite_phys(6, point)
        for rank in range(7):
            want = product_oracle(rank, point)
            scale_ = max(1.0, max(abs(v) for v in want.data))
            diff = max(abs(a - b) for a, b in zip(values[rank].data, want.data))
            worst = max(worst, diff / scale_)
    report(2, "recursion vs 1-D product oracle", worst < 1e-10,
           f"max relative residual {worst:.3e} vs 1e-10", time.perf_counter() - t0, 5.0)


def test_criterion_3_orthogonality_keystone():
    t0 = time.perf_counter()
    rule = gauss_hermite_rule(12)
    worst = 0.0
    for conv, factor in ((PHYSICIST, 2.0), (PROBABILIST, 1.0)):
        for m in range(5):
            for n in range(5):
                gram = ortho_matrix(m, n, rule, conv)
                if m == n:
                    rows = canonical_index_tuples(n, 3)
                    expected = factor**n * np.array([[perm_delta(i, j) for j in rows] for i in rows])
                else:
                    expected = 0.0
                worst = max(worst, float(np.max(np.abs(gram - expected))))
    report(3, "orthogonality table order 12 ranks <= 4", worst < 1e-8,
           f"max absolute deviation {worst:.3e} vs 1e-8", time.perf_counter() - t0, 30.0)


def test_criterion_4_gradient_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(10):
        point = rng.uniform(-2.0, 2.0, 3)
        for rank in range(1, 5):
            worst = max(worst, grad_check(rank, point, h=1e-5))
    report(4, "gradient identity by central differences", worst < 1e-5,
           f"max residual {worst:.3e} vs 1e-5 at h=1e-5", time.perf_counter() - t0, 5.0)


def test_criterion_5_scaling_criterion():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    exact_ok = True
    for _ in range(200):
        T = rng.uniform(50.0, 5000.0)
        T_s = rng.uniform(50.0, 5000.0)
        exact_ok &= scaling_admissible(alpha_from_temperatures(T, T_s)) == (2.0 * T_s > T)
    rule = gauss_hermite_rule(12)
    probe_ok = True
    for alpha in (0.5, 1.0, 1.3, 1.5, 2.0):
        result = convergence_probe(ScalingMap(alpha, (1.0, 0.0, 0.0)), rule)
        probe_ok &= (result.classification == "finite") == (alpha * alpha < 2.0)
    window_ok = True
    for T_n in np.linspace(100.0, 1000.0, 10):
        for ratio in (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 6.0):
            T_i = ratio * T_n
            window_ok &= (temperature_window(T_i, T_n) is None) == (T_i >= 4.0 * T_n)
    passed = exact_ok and probe_ok and window_ok
    report(5, "scaling admissibility and temperature window", passed,
           f"criterion exact={exact_ok}, probe set={probe_ok}, 100-pair window grid={window_ok}",
           time.perf_counter() - t0, 10.0)


def test_criterion_6_translation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    identity_worst = 0.0
    roundtrip_worst = 0.0
    for _ in range(20):
        tmap = TranslationMap(tuple(rng.uniform(-1.0, 1.0, 3)), tuple(rng.uniform(-1.0, 1.0, 3)))
        point = rng.uniform(-2.0, 2.0, 3)
        direct = hermite_phys(5, point - np.asarray(tmap.z00))
        for rank in range(6):
            got = translated_hermite(rank, tmap, "r->0", point)
            scale_ = max(1.0, max(abs(v) for v in direct[rank].data))
            diff = max(abs(a - b) for a, b in zip(got.data, direct[rank].data))
            identity_worst = max(identity_worst, diff / scale_)
        roundtrip_worst = max(roundtrip_worst, translation_roundtrip(5, tmap, point))
    unit = TranslationMap((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    rule = gauss_hermite_rule(12)
    broken = max(
        float(np.max(np.abs(orthogonality_after_translation(n, m, unit, rule))))
        for n in range(4)
        for m in range(4)
        if n != m
    )
    passed = identity_worst < 1e-10 and roundtrip_worst < 1e-9 and broken > 1e-3
    report(6, "translation identity, roundtrip, broken orthogonality", passed,
           f"identity {identity_worst:.3e} vs 1e-10, roundtrip {roundtrip_worst:.3e} vs 1e-9, "
           f"cross-rank {broken:.3e} > 1e-3", time.perf_counter() - t0, 20.0)


def test_criterion_7_rotation_and_invariance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    base = 2.66e-26
    matrix_worst = 0.0
    equivariance_worst = 0.0
    for ratio in (1.0, 4.0, 16.0, 1836.0):
        pair = SpeciesPair(base, ratio * base, 300.0)
        rot = BlockRotation.from_pair(pair)
        matrix_worst = max(matrix_worst, abs(rot.y**2 + rot.y_prime**2 - 1.0))
        matrix_worst = max(matrix_worst, float(np.max(np.abs(rot.matrix @ rot.matrix - np.eye(6)))))
        for _ in range(20):
            x = rng.uniform(-2.0, 2.0, 6)
            equivariance_worst = max(equivariance_worst, equivariance_residual(3, x, pair))
    pair = SpeciesPair(base, 4.0 * base, 300.0)
    coeff_s = ExpansionCoefficients(
        2, (scalar(1.0, 3), SymTensor(3, 1, [0.1, 0.0, 0.0]), SymTensor(3, 2, [0.02, 0.0, 0.0, -0.01, 0.0, 0.01]))
    )
    coeff_sp = ExpansionCoefficients(
        2, (scalar(1.0, 3), SymTensor(3, 1, [0.0, -0.05, 0.0]), SymTensor(3, 2, [0.01, 0.0, 0.0, 0.0, 0.0, -0.02]))
    )
    points = [MixedPoint(tuple(rng.uniform(-2.0, 2.0, 6)), SPECIES_FRAME) for _ in range(100)]
    peak = max(abs(product_distribution(coeff_s, coeff_sp, p)) for p in points)
    invariance = distribution_invariance(coeff_s, coeff_sp, pair, points)
    passed = matrix_worst < 1e-14 and equivariance_worst < 1e-10 and invariance < 1e-10 * peak
    report(7, "block rotation, equivariance, distribution invariance", passed,
           f"matrix {matrix_worst:.3e} vs 1e-14, equivariance {equivariance_worst:.3e} vs 1e-10, "
           f"invariance {invariance:.3e} vs {1e-10 * peak:.3e}", time.perf_counter() - t0, 60.0)


def test_criterion_8_monotone_truncation():
    t0 = time.perf_counter()
    rule = gauss_hermite_rule(16)
    norm = math.pi ** (-1.5)

    def displaced(s):
        s = np.asarray(s)
        return lambda z: norm * math.exp(-float(np.sum((np.asarray(z) - s) ** 2)))

    def anisotropic(z):
        z = np.asarray(z)
        return norm * math.exp(-(1.2 * z[0] ** 2 + 0.9 * z[1] ** 2 + z[2] ** 2))

    def polynomial_mode(z):
        z = np.asarray(z)
        poly = 1.0 + 0.3 * 2.0 * z[0] + 0.1 * (4.0 * z[1] ** 2 - 2.0)
        return norm * math.exp(-float(np.dot(z, z))) * poly

    def mixture(z):
        return 0.6 * displaced((0.4, 0.0, 0.0))(z) + 0.4 * displaced((-0.5, 0.2, 0.0))(z)

    distributions = [
        displaced((0.0, 0.0, 0.0)),
        displaced((0.5, 0.0, 0.0)),
        anisotropic,
        polynomial_mode,
        mixture,
    ]
    monotone = True
    worst_jump = 0.0
    for f in distributions:
        errors = truncation_error(f, 4, rule, f0=norm)
        for lo, hi in zip(errors[1:], errors[:-1]):
            worst_jump = max(worst_jump, lo - hi)
            monotone &= lo <= hi + 1e-9
    report(8, "monotone truncation error over 5 distributions", monotone,
           f"worst increase {worst_jump:.3e} vs 1e-9", time.perf_counter() - t0, 30.0)


def test_criterion_9_deterministic_verify():
    t0 = time.perf_counter()
    import io

    def capture(argv):
        buf = io.StringIO()
        code = main(argv, buf)
        return code, buf.getvalue()

    same = True
    for argv in (
        ["verify", "ortho", "--max-rank", "3", "--quad-order", "12", "--seed", "11"],
        ["verify", "translate", "--seed", "11"],
        ["verify", "rotate", "--seed", "11", "--points", "10"],
        ["verify", "scale", "--seed", "11"],
    ):
        same &= capture(argv) == capture(argv)
    report(9, "byte-identical verify output", same,
           "two runs per suite, identical bytes and exit codes", time.perf_counter() - t0, 5.0)
