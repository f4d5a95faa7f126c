"""The benchmark's own tests: oracles accept true answers and reject perturbed ones.

Run from the repository root:  python3 -m pytest bench/tests -q
"""
import io
import json
import math

import numpy as np
import pytest

import hermtensor as ht
import hermtensor.cli
import oracles
import workloads
from tracer import Tracer


def bump(coeffs, rank, delta):
    """Copy of an expansion with ``delta`` added to the first rank-``rank`` component."""
    tensors = list(coeffs.coeffs)
    shift = np.zeros(len(tensors[rank].data))
    shift[0] = delta
    tensors[rank] = tensors[rank] + ht.SymTensor(3, rank, shift)
    return ht.ExpansionCoefficients(coeffs.max_rank, tuple(tensors), coeffs.f0, coeffs.admissible)


def first_of(wl, predicate):
    return next(wl.item(i) for i in range(wl.block) if predicate(wl.item(i)))


# --- project-3d -----------------------------------------------------------------


@pytest.fixture(scope="module")
def project():
    return workloads.Project3D(seed=5)


@pytest.fixture(scope="module")
def unit_case(project):
    item = first_of(project, lambda it: it.T == 1.0)
    return item, project.run(item)


def test_projection_oracle_accepts_true_answers(project, unit_case):
    item, result = unit_case
    assert oracles.check_projection(item, *result) == []
    hot = first_of(project, lambda it: it.T > 2.0)
    hot_result = project.run(hot)
    assert hot_result[1] is True  # the warning was captured, not printed
    assert oracles.check_projection(hot, *hot_result) == []


def test_projection_oracle_rejects_perturbed_coefficients(unit_case):
    item, (coeffs, warned, values, errors) = unit_case
    for rank in (0, 3, 6):
        assert oracles.check_projection(item, bump(coeffs, rank, 1e-8), warned, values, errors)


def test_projection_oracle_rejects_perturbed_reconstruction(unit_case):
    item, (coeffs, warned, values, errors) = unit_case
    values = values.copy()
    values[7] += 1e-8 * np.max(np.abs(values))
    assert oracles.check_projection(item, coeffs, warned, values, errors)


def test_projection_oracle_rejects_rising_truncation_error(unit_case):
    item, (coeffs, warned, values, errors) = unit_case
    rising = errors.copy()
    rising[4] = rising[3] * 1.001
    assert oracles.check_projection(item, coeffs, warned, values, rising)


def test_projection_oracle_rejects_wrong_admissibility_and_warning(unit_case):
    item, (coeffs, warned, values, errors) = unit_case
    flipped = ht.ExpansionCoefficients(coeffs.max_rank, coeffs.coeffs, coeffs.f0, admissible=False)
    assert oracles.check_projection(item, flipped, warned, values, errors)
    assert oracles.check_projection(item, coeffs, True, values, errors)


def test_projection_oracle_checks_a0_away_from_unit_temperature(project):
    item = first_of(project, lambda it: 0.6 <= it.T <= 1.5 and it.T != 1.0)
    coeffs, warned, values, errors = project.run(item)
    assert oracles.check_projection(item, coeffs, warned, values, errors) == []
    assert oracles.check_projection(item, bump(coeffs, 0, 1e-7), warned, values, errors)


def test_closed_form_matches_generating_function():
    u = np.array([0.3, -0.5, 0.2])
    z = np.array([[0.4, 1.1, -0.7]])
    series = oracles.maxwellian_series(u, 30, z)
    exact = oracles.PI_M32 * math.exp(-float(np.sum((z[0] - u) ** 2)))
    assert series[0] == pytest.approx(exact, rel=1e-12)


# --- pointwise-frames -----------------------------------------------------------


@pytest.fixture(scope="module")
def frames_case():
    wl = workloads.PointwiseFrames(seed=5)
    item = wl.item(3)
    return wl, item, wl.run(item)


def test_frames_oracles_accept_true_answers(frames_case):
    wl, item, result = frames_case
    assert wl.check(item, result) == []


def test_frames_oracle_rejects_perturbed_rotation(frames_case):
    _, (frame, _), ((betas, invariance, equivariance), _) = frames_case
    for rank in (1, 4):
        bad = list(betas)
        data = np.array(bad[rank].data, dtype=np.float64)
        data[-1] += 1e-9
        bad[rank] = ht.SymTensor(6, rank, data)
        assert oracles.check_frames(frame, bad, invariance, equivariance)
    assert oracles.check_frames(frame, betas, 1e-9, equivariance)
    assert oracles.check_frames(frame, betas, invariance, 1e-9)


def test_translation_oracle_rejects_perturbed_answers(frames_case):
    _, (_, tr), (_, (translated, roundtrip, grad)) = frames_case
    data = np.array(translated.data, dtype=np.float64)
    data[5] += 1e-8 * max(1.0, np.max(np.abs(data)))
    assert oracles.check_translation(tr, ht.SymTensor(3, tr.rank, data), roundtrip, grad)
    assert oracles.check_translation(tr, translated, 1e-8, grad)
    assert oracles.check_translation(tr, translated, roundtrip, 1e-4)


# --- cli-mix ----------------------------------------------------------------------


def in_process(op):
    buf = io.StringIO()
    return hermtensor.cli.main(list(op.argv), stdout=buf), buf.getvalue()


@pytest.fixture(scope="module")
def cli_ops():
    wl = workloads.CliMix(seed=5, root=".", in_process=True)
    ops = {}
    for i in range(40):
        ops.setdefault(wl.item(i).kind, wl.item(i))
    assert set(ops) == set(workloads.CliMix.CYCLE)
    return ops


def test_cli_cycle_keeps_its_composition():
    wl = workloads.CliMix(seed=9, root=".")
    for cycle in range(3):
        kinds = [wl.item(10 * cycle + p).kind for p in range(10)]
        assert sorted(kinds) == sorted(workloads.CliMix.CYCLE)
        assert kinds[0] == kinds[5] == "expand"


def perturbed(report, kind):
    if kind == "basis":
        value = report["components"][-1]["value"]
        report["components"][-1]["value"] = value + 1e-8 * max(1.0, abs(value))
    elif kind == "basis_symbolic":
        report["components"][-1]["terms"][0]["coefficient"] += 1
    elif kind == "window":
        report["window"] = [report["config"]["ti"] / 2.0, 2.0 * report["config"]["tn"] * (1 + 1e-12)]
    elif kind == "expand":
        report["coefficients"][2]["components"][1]["value"] += 1e-9
    else:
        report["pass"] = False
    return json.dumps(report)


@pytest.mark.parametrize("kind", workloads.CliMix.CYCLE[:5] + workloads.CliMix.CYCLE[6:])
def test_cli_oracle_accepts_true_and_rejects_perturbed(cli_ops, kind):
    op = cli_ops[kind]
    code, stdout = in_process(op)
    assert oracles.check_cli(op, code, stdout) == []
    assert oracles.check_cli(op, code, perturbed(json.loads(stdout), kind))
    assert oracles.check_cli(op, 1, stdout)


def test_window_oracle_rejects_missing_empty_window():
    op = workloads.CliOp("window", ["window", "--ti", "5000.0", "--tn", "1000.0"], {"ti": 5000.0, "tn": 1000.0})
    code, stdout = in_process(op)
    assert oracles.check_cli(op, code, stdout) == []
    report = json.loads(stdout)
    report["window"] = [2500.0, 2000.0]
    assert oracles.check_cli(op, code, json.dumps(report))


# --- inputs and tracing -----------------------------------------------------------------


def test_inputs_depend_only_on_seed():
    a, b, c = (workloads.Project3D(seed=s) for s in (3, 3, 4))
    for i in (0, 23, 24, 50):
        assert a.item(i).T == b.item(i).T
        assert np.array_equal(a.item(i).points, b.item(i).points)
    assert not np.array_equal(a.item(0).points, c.item(0).points)
    kinds = [a.item(i).T for i in range(a.block)]
    assert sum(T == 1.0 for T in kinds) == 8
    assert sum(T > 2.0 for T in kinds) == 3


def test_tracer_patches_every_binding_and_restores_them():
    original = ht.expand
    tracer = Tracer()
    tracer.install()
    try:
        assert hermtensor.cli.expand is ht.expand is ht.quadrature.expand
        assert hermtensor.cli.expand is not original
    finally:
        tracer.uninstall()
    assert hermtensor.cli.expand is original and ht.quadrature.expand is original


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    tracer.names += ["outer", "inner", "inner", "outer"]
    tracer.starts += [0.0, 1.0, 3.0, 10.0]
    tracer.ends += [5.0, 2.0, 4.5, 11.0]
    tracer.parents += [-1, 0, 0, -1]
    tracer.ops += [0, 0, 0, 1]
    summary = tracer.summary()
    assert summary["outer"] == {"calls": 2, "total_s": 6.0, "self_s": 3.5}
    assert summary["inner"] == {"calls": 2, "total_s": 2.5, "self_s": 2.5}


def test_traced_calls_are_parent_linked(project, unit_case):
    item, _ = unit_case
    tracer = Tracer()
    project.tracer = tracer
    tracer.install()
    try:
        tracer.op = 0
        project.run(item)
    finally:
        tracer.uninstall()
        project.tracer = None
    by_id = dict(enumerate(tracer.names))
    parent_of = {name: by_id.get(p) for name, p in zip(tracer.names, tracer.parents)}
    assert parent_of["quadrature.l2_admissible"] == "quadrature.expand"
    assert parent_of["symtensor.sym_product"] == "hermite.evaluate_basis"
    assert tracer.counts["quadrature.integrand"]["points"] == 2 * (16**3 + 32**3 + 16**3) + 16**3
    assert set(tracer.ops) == {0}
