"""Reference answers computed without the library under test.

Every check here rebuilds the expected value from closed forms and the
1-D Hermite polynomials of ``numpy.polynomial.hermite``, so a defect in
the library's tensor recursion, quadrature or frame algebra cannot also
hide in the reference.  Each check returns a list of failure messages;
an empty list means the answer is accepted.
"""
from __future__ import annotations

import itertools
import json
import math

import numpy as np
from numpy.polynomial import hermite as H

# CODATA values as the physical-unit CLI commands use them.
BOLTZMANN = 1.380649e-23
ATOMIC_MASS = 1.66053906892e-27

PI_M32 = math.pi ** -1.5

A0_TOL = 1e-8
CLOSED_FORM_TOL = 1e-10
RECONSTRUCT_RTOL = 1e-10
MONOTONE_RTOL = 1e-12
INVARIANCE_TOL = 1e-10
EQUIVARIANCE_TOL = 1e-10
BINOMIAL_RTOL = 1e-10
ROUNDTRIP_TOL = 1e-9
GRAD_TOL = 1e-5
BASIS_RTOL = 1e-10
Z_DRIFT_RTOL = 1e-12


def canonical(rank: int, dim: int):
    """Canonical index tuples in the library's documented storage order."""
    return list(itertools.combinations_with_replacement(range(dim), rank))


def counts(index, dim: int) -> tuple[int, ...]:
    return tuple(sum(1 for a in index if a == axis) for axis in range(dim))


def hermite_1d_table(top: int, x) -> np.ndarray:
    """h_0..h_top at x (any shape), stacked on a new leading axis."""
    x = np.asarray(x, dtype=np.float64)
    return np.stack([H.hermval(x, [0.0] * k + [1.0]) for k in range(top + 1)])


def basis_components(rank: int, z) -> np.ndarray:
    """H_rank(z) for one 3-vector by the product of 1-D polynomials."""
    table = hermite_1d_table(rank, z)
    return np.array([np.prod([table[m, a] for a, m in enumerate(counts(t, 3))]) for t in canonical(rank, 3)])


def _relative_error(got, want) -> float:
    """Largest deviation over max(1, largest |want|); inf on a shape mismatch or non-finite value."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return math.inf
    return float(np.max(np.abs(got - want))) / max(1.0, float(np.max(np.abs(want))))


def _limit(name: str, value: float, tol: float) -> list[str]:
    if not (math.isfinite(value) and value <= tol):
        return [f"{name}: {value!r} exceeds {tol!r}"]
    return []


# --- project-3d -------------------------------------------------------------


def maxwellian_closed_form(u, rank: int) -> np.ndarray:
    """a_rank = u^(x)rank / rank! for f = pi**(-3/2) exp(-|z - u|^2), f0 = pi**(-3/2)."""
    u = np.asarray(u, dtype=np.float64)
    return np.array([np.prod(u[list(t)]) for t in canonical(rank, 3)]) / math.factorial(rank)


def maxwellian_series(u, top: int, points) -> np.ndarray:
    """f0 exp(-z.z) sum_{|m|<=top} prod_a u_a^m_a h_m_a(z_a) / m_a!, f0 = pi**(-3/2)."""
    pts = np.asarray(points, dtype=np.float64)
    table = hermite_1d_table(top, pts.T)  # (top+1, 3, K)
    u = np.asarray(u, dtype=np.float64)
    total = np.zeros(len(pts))
    for m in itertools.product(range(top + 1), repeat=3):
        if sum(m) > top:
            continue
        term = np.ones(len(pts))
        for a in range(3):
            term = term * table[m[a], a] * u[a] ** m[a] / math.factorial(m[a])
        total += term
    return PI_M32 * np.exp(-np.sum(pts**2, axis=1)) * total


def check_projection(inp, coeffs, warned: bool, values, errors) -> list[str]:
    """Oracle for one project-3d op: expand, reconstruct and truncation_error."""
    bad = []
    admissible = inp.T < 2.0
    if bool(coeffs.admissible) != admissible:
        bad.append(f"admissible={coeffs.admissible} for T={inp.T}")
    if warned != (not admissible):
        bad.append(f"weighted-L2 warning issued={warned} for T={inp.T}")
    values = np.asarray(values, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(errors))):
        return bad + ["non-finite reconstruction or truncation error"]
    for n in range(coeffs.max_rank + 1):
        if not np.all(np.isfinite(np.asarray(coeffs[n].data, dtype=np.float64))):
            return bad + [f"non-finite rank-{n} coefficients"]
    rises = np.diff(errors) - MONOTONE_RTOL * errors[:-1]
    if np.any(rises > 0):
        bad.append(f"truncation error increases with rank: {errors.tolist()}")
    if admissible:
        bad += _limit("a_0 - 1", abs(float(coeffs[0].data[0]) - 1.0), A0_TOL)
    if inp.T == 1.0:
        for n in range(coeffs.max_rank + 1):
            diff = _relative_error(coeffs[n].data, maxwellian_closed_form(inp.u, n))
            bad += _limit(f"closed-form a_{n}", diff, CLOSED_FORM_TOL)
        want = maxwellian_series(inp.u, coeffs.max_rank, inp.points)
        diff = float(np.max(np.abs(values - want))) / float(np.max(np.abs(want)))
        bad += _limit("reconstruct relative", diff, RECONSTRUCT_RTOL)
    return bad


# --- pointwise-frames ----------------------------------------------------------


def rotation_matrix(m_s: float, m_sp: float) -> np.ndarray:
    mu = m_s * m_sp / (m_s + m_sp)
    y, yp = math.sqrt(mu / m_s), math.sqrt(mu / m_sp)
    eye = np.eye(3)
    return np.block([[y * eye, yp * eye], [yp * eye, -y * eye]])


def _dense(components, rank: int, dim: int) -> np.ndarray:
    out = np.zeros((dim,) * rank)
    for t, v in zip(canonical(rank, dim), components):
        for perm in itertools.permutations(t):
            out[perm] = v
    return out


def _embed(dense3: np.ndarray, offset: int) -> np.ndarray:
    rank = dense3.ndim
    out = np.zeros((6,) * rank)
    out[(slice(offset, offset + 3),) * rank] = dense3
    return out


def _symmetrize(t: np.ndarray) -> np.ndarray:
    perms = list(itertools.permutations(range(t.ndim)))
    return sum(np.transpose(t, p) for p in perms) / len(perms)


def rotated_stack(a_s, a_sp, rot: np.ndarray) -> list[np.ndarray]:
    """Canonical components of the rotated stacked coefficients, ranks 0..4.

    ``a_s`` and ``a_sp`` hold each species' rank 0..2 canonical component
    arrays.  Rank N is the symmetrized sum of a_sp[m] on the upper block
    times a_s[n] on the lower block over m + n = N, with R applied to
    every slot.
    """
    top = (len(a_s) - 1) + (len(a_sp) - 1)
    out = []
    for N in range(top + 1):
        total = np.zeros((6,) * N)
        for n in range(len(a_s)):
            m = N - n
            if 0 <= m < len(a_sp):
                upper = _embed(_dense(a_sp[m], m, 3), 0)
                lower = _embed(_dense(a_s[n], n, 3), 3)
                total = total + _symmetrize(np.multiply.outer(upper, lower))
        for axis in range(N):
            total = np.moveaxis(np.tensordot(rot, total, axes=([1], [axis])), 0, axis)
        out.append(np.array([total[t] for t in canonical(N, 6)]))
    return out


def check_frames(inp, betas, invariance: float, equivariance: float) -> list[str]:
    bad = []
    want = rotated_stack(inp.a_s, inp.a_sp, rotation_matrix(inp.m_s, inp.m_sp))
    if len(betas) != len(want):
        return [f"{len(betas)} rotated ranks, expected {len(want)}"]
    for N, (got, ref) in enumerate(zip(betas, want)):
        bad += _limit(f"rotated coefficients rank {N}", _relative_error(got.data, ref), INVARIANCE_TOL)
    bad += _limit("distribution invariance", float(invariance), INVARIANCE_TOL)
    bad += _limit("equivariance", float(equivariance), EQUIVARIANCE_TOL)
    return bad


def check_translation(inp, translated, roundtrip: float, grad: float) -> list[str]:
    direct = basis_components(inp.rank, np.asarray(inp.z) - np.asarray(inp.z00))
    bad = _limit("binomial identity", _relative_error(translated.data, direct), BINOMIAL_RTOL)
    bad += _limit("translation roundtrip", float(roundtrip), ROUNDTRIP_TOL)
    bad += _limit("grad_check", float(grad), GRAD_TOL)
    return bad


# --- cli-mix ------------------------------------------------------------------


def _check_basis_numeric(op, report) -> list[str]:
    want = basis_components(op.params["rank"], op.params["point"])
    got = [c["value"] for c in report["components"]]
    if [tuple(c["index"]) for c in report["components"]] != canonical(op.params["rank"], 3):
        return ["basis components not in canonical order"]
    return _limit("basis components", _relative_error(got, want), BASIS_RTOL)


def _hermite_power_coeffs(n: int) -> list[int]:
    return [int(round(c)) for c in H.herm2poly([0] * n + [1])]


def _check_basis_symbolic(op, report) -> list[str]:
    rank = op.params["rank"]
    for comp, t in zip(report["components"], canonical(rank, 3)):
        if tuple(comp["index"]) != t:
            return ["symbolic components not in canonical order"]
        want = {}
        per_axis = [_hermite_power_coeffs(m) for m in counts(t, 3)]
        for exps in itertools.product(*(range(len(c)) for c in per_axis)):
            coeff = math.prod(per_axis[a][e] for a, e in enumerate(exps))
            if coeff:
                want[exps] = coeff
        got = {tuple(term["exponents"]): term["coefficient"] for term in comp["terms"]}
        if got != want:
            return [f"symbolic table differs at index {t}"]
    if len(report["components"]) != len(canonical(rank, 3)):
        return ["wrong number of symbolic components"]
    return []


def _check_window(op, report) -> list[str]:
    ti, tn = op.params["ti"], op.params["tn"]
    want = [ti / 2.0, 2.0 * tn] if ti / 2.0 < 2.0 * tn else None
    return [] if report["window"] == want else [f"window {report['window']} != {want}"]


def _check_expand(op, report) -> list[str]:
    p = op.params
    vth = math.sqrt(2.0 * BOLTZMANN * p["temperature"] / (p["mass"] * ATOMIC_MASS))
    u = np.asarray(p["drift"]) / vth
    bad = _limit("z_drift", _relative_error(report["z_drift"], u), Z_DRIFT_RTOL)
    if report["admissible"] is not True:
        bad.append("drifting Maxwellian flagged inadmissible")
    for entry in report["coefficients"]:
        n = entry["rank"]
        got = [c["value"] for c in entry["components"]]
        bad += _limit(f"closed-form a_{n}", _relative_error(got, maxwellian_closed_form(u, n)), CLOSED_FORM_TOL)
    if len(report["coefficients"]) != p["max_rank"] + 1:
        bad.append("missing coefficient ranks")
    return bad


def _check_verify(op, report) -> list[str]:
    bad = [] if report.get("pass") is True else [f"verify {op.params['suite']} reported pass={report.get('pass')}"]
    if report["config"].get("seed") != op.params["seed"]:
        bad.append("verify report does not echo the seed")
    return bad


CLI_CHECKS = {
    "basis": _check_basis_numeric,
    "basis_symbolic": _check_basis_symbolic,
    "window": _check_window,
    "expand": _check_expand,
    "verify": _check_verify,
}


def check_cli(op, returncode: int, stdout: str) -> list[str]:
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"]
    try:
        return CLI_CHECKS[op.kind.split(".")[0]](op, report)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed {op.kind} report: {exc!r}"]
