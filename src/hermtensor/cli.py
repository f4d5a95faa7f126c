"""Batch CLI over the basis, verification, window, and expansion machinery.

Output is a single JSON object (or CSV rows) per run.  Floats are printed
with 17 significant digits through one shared formatter, so a given config
and seed always produces byte-identical output.

Exit codes: 0 success, 1 a verification check failed, 2 bad usage or
config, 3 a non-finite value surfaced in numeric work.
"""
from __future__ import annotations

import argparse
import csv
import math
import re
import sys
from fractions import Fraction

import numpy as np

from .hermite import PHYSICIST, HermiteConvention, evaluate_basis, hermite_phys, hermite_symbolic
from .mixed6 import (
    BlockRotation,
    SpeciesPair,
    distribution_invariance,
    equivariance_residual,
    product_distribution,
)
from .quadrature import (
    ATOMIC_MASS,
    ExpansionCoefficients,
    WeightSpec,
    _require_order,
    _require_rank,
    expand,
    gauss_hermite_rule,
    ortho_matrix,
)
from .symtensor import SymTensor, _finite_vector3, canonical_index_tuples, n_components, perm_delta, scalar
from .transforms import (
    DIVERGENCE_RATIO,
    ScalingMap,
    TranslationMap,
    _roundtrip,
    convergence_probe,
    orthogonality_after_translation,
    scaling_admissible,
    temperature_window,
)

__all__ = ["main", "run"]

EMPTY_WINDOW_MESSAGE = "EMPTY: collision-term criterion violated (T_i ≥ 4·T_n)"


# --- deterministic serialization ------------------------------------------


def _float_repr(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def emit_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{pad}  "{k}": {emit_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{pad}  {emit_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _float_repr(obj)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _csv_cell(v) -> str:
    """A scalar's JSON text, unquoted; a list's items joined by spaces."""
    if isinstance(v, (list, tuple)):
        return " ".join(str(x) for x in v)
    return v if isinstance(v, str) else emit_json(v).strip('"')


def _flat(row: dict) -> list[dict]:
    """The row, or one row per object in its nested list of row objects, the parent's other fields first."""
    for key, value in row.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            return [{**{k: v for k, v in row.items() if k != key}, **child} for child in value]
    return [row]


def emit_csv(rows: list[dict], out) -> None:
    """Write one CSV row per flattened row object (there must be one) to ``out``, under the first one's keys."""
    rows = [flat for row in rows for flat in _flat(row)]
    writer = csv.DictWriter(out, list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows({k: _csv_cell(v) for k, v in row.items()} for row in rows)


def _render(report: dict, fmt: str, out) -> None:
    if fmt == "json":
        out.write(emit_json(report) + "\n")
    else:
        rows = report.get("results") or report.get("components") or report.get("coefficients")
        emit_csv(rows or [{"message": report.get("message", "")}], out)


# --- small helpers --------------------------------------------------------


def _parse_vector(option: str, text: str) -> tuple[float, float, float]:
    return _finite_vector3(option, [float(p) for p in text.split(",")])


def _require_finite_result(name: str, values) -> None:  # exit 3: a non-finite result is never printed
    if not np.isfinite(np.asarray(values, dtype=np.float64)).all():
        raise ArithmeticError(f"{name} is not finite")


def _count(text: str) -> int:
    """A sample count, at least 1: argparse names the option when this refuses."""
    if (count := int(text)) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _positive(text: str) -> float:
    """A finite positive physical input: argparse names the option, and shows the text typed, when this refuses."""
    if not 0 < (value := float(text)) < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return value


def _check(name: str, value: float, tolerance: float, mode: str = "max") -> dict:
    ok = value >= tolerance if mode == "min" else value <= tolerance
    return {"check": name, "value": float(value), "tolerance": tolerance, "mode": mode, "pass": bool(ok)}


def _components(tensor: SymTensor, entry) -> list[dict]:
    """One row per component in storage order: its index, then the fields ``entry`` gives for its value."""
    return [{"index": list(i), **entry(v)} for i, v in zip(canonical_index_tuples(tensor.rank, tensor.dim), tensor.data)]


def _term(exponents, coefficient: Fraction) -> dict:
    """One term of a symbolic table: an integer coefficient as a number, a fraction as its text."""
    value = int(coefficient) if coefficient.denominator == 1 else str(coefficient)
    return {"exponents": list(exponents), "coefficient": value}


# --- commands -------------------------------------------------------------


def cmd_basis(args) -> tuple[dict, int]:
    config = {
        "rank": args.rank,
        "convention": args.convention,
        "symbolic": bool(args.symbolic),
        "seed": args.seed,
    }
    if args.symbolic:
        _require_rank("basis_symbolic", args.rank)
        tensor = hermite_symbolic(args.rank, dim=3, convention=args.convention)[args.rank]
        components = _components(tensor, lambda value: {"terms": [_term(*term) for term in value.terms()]})
    else:
        _require_rank("basis", args.rank)
        point = _parse_vector("--point", args.point) if args.point is not None else (0.0, 0.0, 0.0)
        config["point"] = list(point)
        tensor = evaluate_basis(args.rank, point, dim=3, convention=args.convention)[args.rank]
        _require_finite_result(f"a rank-{args.rank} basis value at {point}", tensor.data)
        components = _components(tensor, lambda value: {"value": float(value)})
    return {"command": "basis", "config": config, "components": components}, 0


def cmd_window(args) -> tuple[dict, int]:
    window = temperature_window(args.ti, args.tn)
    _require_finite_result("a window bound", window or ())
    message = EMPTY_WINDOW_MESSAGE if window is None else f"({window[0]:g}, {window[1]:g})"
    report = {
        "command": "window",
        "config": {"ti": args.ti, "tn": args.tn, "seed": args.seed},
        "window": list(window) if window is not None else None,
        "message": message,
    }
    return report, 0


def cmd_expand(args) -> tuple[dict, int]:
    _require_rank("expand", args.max_rank)
    drift = _parse_vector("--drift", args.drift)
    spec = WeightSpec(args.density, args.mass * ATOMIC_MASS, args.temperature, drift)
    rule = gauss_hermite_rule(args.quad_order)
    # f0 absorbs the Gaussian normalization so a pure Maxwellian reads a0 = 1
    f0 = args.density * math.pi ** (-1.5)
    coeffs = expand(spec.weight_z, args.max_rank, rule, f0=f0, vectorized=True)
    ranks = [{"rank": n, "components": _components(t, lambda v: {"value": float(v)})} for n, t in enumerate(coeffs.coeffs)]
    report = {
        "command": "expand",
        "config": {
            "mass_u": args.mass,
            "temperature": args.temperature,
            "drift": list(drift),
            "density": args.density,
            "max_rank": args.max_rank,
            "quad_order": args.quad_order,
            "seed": args.seed,
        },
        "z_drift": [float(c) for c in spec.z_av],
        "f0": f0,
        "admissible": bool(coeffs.admissible),
        "coefficients": ranks,
    }
    return report, 0


def _expected_gram(m_rank: int, n_rank: int, convention) -> np.ndarray:
    if m_rank != n_rank:
        return np.zeros((n_components(m_rank, 3), n_components(n_rank, 3)))
    factor = 2.0**n_rank if convention is PHYSICIST else 1.0
    return factor * np.diag([float(perm_delta(t, t)) for t in canonical_index_tuples(n_rank, 3)])


def _suite_ortho(args) -> tuple[dict, list[dict]]:
    _require_rank("ortho_matrix", args.max_rank)
    rule = gauss_hermite_rule(args.quad_order)
    _require_order(rule, args.max_rank)
    rows = []
    for convention in HermiteConvention:
        ranks = range(args.max_rank + 1)
        grams = [(ortho_matrix(m, n, rule, convention), _expected_gram(m, n, convention)) for m in ranks for n in ranks]
        worst = np.max([np.max(np.abs(gram - expected)) for gram, expected in grams])
        rows.append(_check(f"{convention.value}-orthogonality", worst, 1e-8))
    return {"max_rank": args.max_rank, "quad_order": args.quad_order}, rows


def _suite_translate(args) -> tuple[dict, list[dict]]:
    _require_rank("translation_roundtrip", args.max_rank, low=1)
    rng = np.random.default_rng(args.seed)
    identity_worst = 0.0
    roundtrip_worst = 0.0
    for _ in range(args.maps):
        tmap = TranslationMap(tuple(rng.uniform(-1, 1, 3)), tuple(rng.uniform(-1, 1, 3)))
        z = rng.uniform(-2.0, 2.0, 3)
        direct = hermite_phys(args.max_rank, z - np.asarray(tmap.z00))
        forward, residual = _roundtrip(args.max_rank, tmap, z)  # forward[rank] is H_rank at z - z00 via the frame at za
        for got, want in zip(forward, direct):
            diff = np.max(np.abs(got.data - want.data)) / np.maximum(1.0, np.max(np.abs(want.data)))
            identity_worst = np.maximum(identity_worst, diff)
        roundtrip_worst = np.maximum(roundtrip_worst, residual)
    unit = TranslationMap((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    rule = gauss_hermite_rule(args.quad_order)
    grams = [orthogonality_after_translation(n, m, unit, rule) for n in range(4) for m in range(4) if n != m]
    broken = np.max([np.max(np.abs(gram)) for gram in grams])
    rows = [
        _check("binomial-identity", identity_worst, 1e-10),
        _check("roundtrip", roundtrip_worst, 1e-9),
        _check("broken-orthogonality", broken, 1e-3, mode="min"),
    ]
    return {"max_rank": args.max_rank, "maps": args.maps, "quad_order": args.quad_order}, rows


def _suite_scale(args) -> tuple[dict, list[dict]]:
    alphas = args.alpha or [0.5, 1.0, 1.3, 1.5, 2.0]
    z0 = _parse_vector("--z0", args.z0)
    rule = gauss_hermite_rule(args.quad_order)
    rows = []
    for alpha in alphas:
        expected_finite = scaling_admissible(alpha)
        result = convergence_probe(ScalingMap(alpha, z0), rule)
        finite = math.isfinite(result.coarse) and math.isfinite(result.fine) and result.coarse != 0.0
        ratio = result.fine / result.coarse if finite else math.inf
        row = _check(f"probe-alpha-{alpha:g}", ratio, DIVERGENCE_RATIO, mode="max" if expected_finite else "min")
        row["classification"] = result.classification
        row["pass"] = (result.classification == "finite") == expected_finite
        rows.append(row)
    return {"alphas": [float(a) for a in alphas], "z0": list(z0), "quad_order": args.quad_order}, rows


def _suite_rotate(args) -> tuple[dict, list[dict]]:
    _require_rank("verify_rotate", args.max_rank)
    pair = SpeciesPair(args.ms * ATOMIC_MASS, args.msp * ATOMIC_MASS, args.temperature)
    rot = BlockRotation.from_pair(pair)
    rng = np.random.default_rng(args.seed)
    circle = abs(rot.y**2 + rot.y_prime**2 - 1.0)
    involution = float(np.max(np.abs(rot.matrix @ rot.matrix - np.eye(6))))
    equivariance = np.max(
        [equivariance_residual(args.max_rank, rng.uniform(-2.0, 2.0, 6), pair) for _ in range(args.points)]
    )
    coeff_s = ExpansionCoefficients(1, (scalar(1.0, 3), SymTensor(3, 1, [0.1, 0.0, 0.0])))
    coeff_sp = ExpansionCoefficients(0, (scalar(1.0, 3),))
    sample = rng.uniform(-2.0, 2.0, (100, 6))
    peak = float(np.max(np.abs(product_distribution(coeff_s, coeff_sp, sample))))
    residual = distribution_invariance(coeff_s, coeff_sp, pair, sample)
    rows = [
        _check("unit-circle", circle, 1e-14),
        _check("involution", involution, 1e-14),
        _check("equivariance", equivariance, 1e-10),
        _check("distribution-invariance", residual / max(peak, 1e-300), 1e-10),
    ]
    return {
        "ms_u": args.ms,
        "msp_u": args.msp,
        "temperature": args.temperature,
        "max_rank": args.max_rank,
        "points": args.points,
    }, rows


def cmd_verify(args) -> tuple[dict, int]:
    config, rows = args.suite_func(args)
    config["seed"] = args.seed
    passed = all(r["pass"] for r in rows)
    report = {
        "command": "verify",
        "suite": args.suite,
        "config": config,
        "results": rows,
        "pass": passed,
    }
    return report, 0 if passed else 1


# --- argument parsing and dispatch ----------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reads a token that starts with "-" or "-." and a digit, or with "-inf" or "-nan" in any case, as a value:
    "--drift -300,0,0", "--mass -2.5e3", "--ms -inf".  Takes every option by its exact name only.

    argparse's own pattern (a private attribute, set per instance) takes no exponent, no comma list and no
    non-finite value.  Its prefix matching would take "--m" for "--max-rank" where no sibling option also
    starts with "--m", so which spellings a command took would depend on its other options.
    """

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d|-(inf|nan)", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    """One sub-parser per command and per ``verify`` suite, each taking only the options its function reads."""
    parser = _Parser(prog="hermtensor", description="Tensor Hermite basis toolbox")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, **defaults):  # last, so every usage line ends with them; names the function main calls
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--seed", type=int, default=0)
        p.set_defaults(**defaults)

    p_basis = sub.add_parser("basis", help="print canonical basis components")
    p_basis.add_argument("--rank", type=int, required=True)
    where = p_basis.add_mutually_exclusive_group()
    where.add_argument("--point", type=str, default=None, help="comma-separated 3-vector")
    where.add_argument("--symbolic", action="store_true")
    p_basis.add_argument("--convention", choices=["physicist", "probabilist"], default="physicist")
    common(p_basis, func=cmd_basis)

    suites = sub.add_parser("verify", help="run a verification suite").add_subparsers(dest="suite", required=True)
    options = {
        "--max-rank": {"type": int, "default": 3},
        "--quad-order": {"type": int, "default": 12},
        "--maps": {"type": _count, "default": 20},
        "--points": {"type": _count, "default": 20},
        "--alpha": {"type": float, "action": "append"},
        "--z0": {"type": str, "default": "1,0,0"},
        "--ms": {"type": _positive, "default": 16.0, "help": "unprimed mass in u"},
        "--msp": {"type": _positive, "default": 16.0, "help": "primed mass in u"},
        "--temperature": {"type": _positive, "default": 300.0},
    }
    for name, func, flags in (
        ("ortho", _suite_ortho, ("--max-rank", "--quad-order")),
        ("rotate", _suite_rotate, ("--max-rank", "--points", "--ms", "--msp", "--temperature")),
        ("scale", _suite_scale, ("--alpha", "--z0", "--quad-order")),
        ("translate", _suite_translate, ("--max-rank", "--maps", "--quad-order")),
    ):
        p_suite = suites.add_parser(name)
        for flag in flags:
            p_suite.add_argument(flag, **options[flag])
        common(p_suite, func=cmd_verify, suite_func=func)

    p_window = sub.add_parser("window", help="basis temperature window for an ion/neutral pair")
    p_window.add_argument("--ti", type=_positive, required=True)
    p_window.add_argument("--tn", type=_positive, required=True)
    common(p_window, func=cmd_window)

    p_expand = sub.add_parser("expand", help="expand a drifting Maxwellian given physical inputs")
    p_expand.add_argument("--mass", type=_positive, required=True, help="molecular mass in u")
    p_expand.add_argument("--temperature", type=_positive, required=True, help="temperature in K")
    p_expand.add_argument("--drift", type=str, default="0,0,0", help="drift velocity in m/s")
    p_expand.add_argument("--density", type=_positive, default=1.0)
    p_expand.add_argument("--max-rank", type=int, default=3)
    p_expand.add_argument("--quad-order", type=int, default=16)
    common(p_expand, func=cmd_expand)

    return parser


def main(argv=None, stdout=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with np.errstate(all="ignore"):  # a non-finite result is refused (exit 3) or a verify row, never a warning
            report, code = args.func(args)
    except ArithmeticError as exc:  # NonFiniteIntegrandError included
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _render(report, args.format, out)
    return code


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
