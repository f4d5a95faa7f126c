import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from hermtensor.cli import main, run
from hermtensor.quadrature import NonFiniteIntegrandError


def invoke(argv):
    buf = io.StringIO()
    code = main(argv, buf)
    return code, buf.getvalue()


def invoke_json(argv):
    code, text = invoke(argv)
    return code, json.loads(text)


# --- basis ----------------------------------------------------------------


def test_basis_rank_one_point():
    code, report = invoke_json(["basis", "--rank", "1", "--point", "1,0,0"])
    assert code == 0
    assert report["command"] == "basis"
    assert [c["value"] for c in report["components"]] == [2.0, 0.0, 0.0]


def test_basis_rank_zero_defaults_to_origin():
    code, report = invoke_json(["basis", "--rank", "0"])
    assert code == 0
    assert report["components"] == [{"index": [], "value": 1.0}]


def test_basis_symbolic_rank_two_table():
    code, report = invoke_json(["basis", "--rank", "2", "--symbolic"])
    assert code == 0
    by_index = {tuple(c["index"]): c["terms"] for c in report["components"]}
    assert by_index[(0, 0)] == [
        {"exponents": [2, 0, 0], "coefficient": 4},
        {"exponents": [0, 0, 0], "coefficient": -2},
    ]
    assert by_index[(0, 1)] == [{"exponents": [1, 1, 0], "coefficient": 4}]


def test_basis_probabilist_convention():
    code, report = invoke_json(["basis", "--rank", "1", "--point", "1,0,0", "--convention", "probabilist"])
    assert code == 0
    assert [c["value"] for c in report["components"]] == [1.0, 0.0, 0.0]


def test_basis_rank_overflow_exits_2():
    assert invoke(["basis", "--rank", "7", "--point", "0,0,0"])[0] == 2
    assert invoke(["basis", "--rank", "5", "--symbolic"])[0] == 2


def test_basis_symbolic_point_conflict(capsys):
    assert invoke(["basis", "--rank", "2", "--symbolic", "--point", "1,0,0"]) == (2, "")
    assert "argument --point: not allowed with argument --symbolic" in capsys.readouterr().err


def test_basis_malformed_point():
    assert invoke(["basis", "--rank", "1", "--point", "1,0"])[0] == 2


# --- window ---------------------------------------------------------------


def test_window_plain_interval():
    code, report = invoke_json(["window", "--ti", "2000", "--tn", "1000"])
    assert code == 0
    assert report["window"] == [1000.0, 2000.0]
    assert report["message"] == "(1000, 2000)"


def test_window_equal_temperatures():
    code, report = invoke_json(["window", "--ti", "1000", "--tn", "1000"])
    assert code == 0
    assert report["message"] == "(500, 2000)"


def test_window_empty_at_factor_four():
    code, report = invoke_json(["window", "--ti", "4000", "--tn", "1000"])
    assert code == 0
    assert report["window"] is None
    assert report["message"].startswith("EMPTY: collision-term criterion violated")


def test_window_bad_ordering_exits_2():
    assert invoke(["window", "--ti", "100", "--tn", "200"])[0] == 2


# --- verify suites --------------------------------------------------------


def test_verify_ortho_passes():
    code, report = invoke_json(["verify", "ortho", "--max-rank", "3", "--quad-order", "12"])
    assert code == 0
    assert report["pass"] is True
    for row in report["results"]:
        assert set(row) >= {"check", "value", "tolerance", "mode", "pass"}
        assert row["value"] <= row["tolerance"]


def test_verify_ortho_low_order_exits_2():
    assert invoke(["verify", "ortho", "--max-rank", "4", "--quad-order", "6"])[0] == 2


def test_verify_ortho_order_guard_names_requested_rank(capsys):
    code, out = invoke(["verify", "ortho", "--max-rank", "4", "--quad-order", "6"])
    assert code == 2
    assert out == ""
    assert "rank 4" in capsys.readouterr().err


def test_verify_scale_reports_expected_divergence():
    code, report = invoke_json(["verify", "scale", "--alpha", "2.0"])
    assert code == 0
    (row,) = report["results"]
    assert row["classification"] == "divergent"
    assert row["pass"] is True


def test_verify_scale_default_set():
    code, report = invoke_json(["verify", "scale"])
    assert code == 0
    got = {r["check"]: r["classification"] for r in report["results"]}
    assert got == {
        "probe-alpha-0.5": "finite",
        "probe-alpha-1": "finite",
        "probe-alpha-1.3": "finite",
        "probe-alpha-1.5": "divergent",
        "probe-alpha-2": "divergent",
    }


def test_verify_translate_passes():
    code, report = invoke_json(["verify", "translate", "--seed", "3"])
    assert code == 0
    rows = {r["check"]: r for r in report["results"]}
    assert rows["broken-orthogonality"]["mode"] == "min"
    assert rows["broken-orthogonality"]["value"] > 1e-3
    assert report["config"]["seed"] == 3


def test_verify_rotate_passes():
    code, report = invoke_json(["verify", "rotate", "--ms", "16", "--msp", "16", "--max-rank", "3"])
    assert code == 0
    assert report["pass"] is True


def test_verify_rotate_rank_overflow_exits_2():
    assert invoke(["verify", "rotate", "--max-rank", "4"])[0] == 2


def test_verify_runs_are_byte_identical():
    argv = ["verify", "translate", "--seed", "42"]
    assert invoke(argv) == invoke(argv)
    argv = ["verify", "rotate", "--seed", "9", "--points", "5"]
    assert invoke(argv) == invoke(argv)


@pytest.mark.parametrize(
    "suite, name, check",
    [
        ("translate", "_roundtrip", "roundtrip"),
        ("rotate", "equivariance_residual", "equivariance"),
        ("translate", "orthogonality_after_translation", "broken-orthogonality"),
        ("ortho", "ortho_matrix", "physicist-orthogonality"),
    ],
)
def test_verify_nan_after_finite_residual_fails(monkeypatch, suite, name, check):
    # max(0.0, nan) is 0.0 in Python: a NaN that arrives after a finite residual must still fail its row
    import hermtensor.cli as cli

    real, calls = getattr(cli, name), []

    def finite_then_nan(*args, **kwargs):
        calls.append(name)
        value = real(*args, **kwargs)
        if len(calls) == 1:
            return value
        return (value[0], value[1] * math.nan) if name == "_roundtrip" else value * math.nan  # (forward, residual)

    monkeypatch.setattr(cli, name, finite_then_nan)
    code, report = invoke_json(["verify", suite, *{"translate": ["--maps", "2"], "rotate": ["--points", "2"]}.get(suite, [])])
    rows = {r["check"]: r for r in report["results"]}
    assert len(calls) > 1 and rows[check]["value"] == "nan" and rows[check]["pass"] is False
    assert code == 1 and report["pass"] is False


# suite -> each option it reads, a value other than its default, and the config it echoes with --seed 5
SUITE_OPTIONS = {
    "ortho": (["--max-rank", "2", "--quad-order", "8"], {"max_rank": 2, "quad_order": 8}),
    "rotate": (
        ["--max-rank", "2", "--points", "2", "--ms", "4", "--msp", "16", "--temperature", "500"],
        {"ms_u": 4.0, "msp_u": 16.0, "temperature": 500.0, "max_rank": 2, "points": 2},
    ),
    "scale": (["--alpha", "0.5", "--z0", "0,1,0", "--quad-order", "16"], {"alphas": [0.5], "z0": [0.0, 1.0, 0.0], "quad_order": 16}),
    "translate": (["--max-rank", "2", "--maps", "2", "--quad-order", "10"], {"max_rank": 2, "maps": 2, "quad_order": 10}),
}
VERIFY_OPTIONS = {
    "--max-rank": "2", "--quad-order": "10", "--maps": "2", "--points": "2", "--alpha": "3", "--z0": "0,1,0",
    "--ms": "1e9", "--msp": "4", "--temperature": "500",
}
FOREIGN_OPTIONS = [
    (suite, option) for suite in sorted(SUITE_OPTIONS) for option in VERIFY_OPTIONS if option not in SUITE_OPTIONS[suite][0]
]


@pytest.mark.parametrize("suite", sorted(SUITE_OPTIONS))
def test_verify_suite_takes_its_own_options(suite):
    argv, config = SUITE_OPTIONS[suite]
    code, report = invoke_json(["verify", suite, *argv, "--format", "json", "--seed", "5"])
    assert code == 0 and report["config"] == {**config, "seed": 5}
    code, text = invoke(["verify", suite, *argv, "--format", "csv", "--seed", "5"])
    assert code == 0 and text.startswith("check,value,tolerance,mode,pass")


@pytest.mark.parametrize("suite, option", FOREIGN_OPTIONS, ids=" ".join)
def test_verify_suite_refuses_an_option_it_does_not_read(suite, option, capsys):
    # an option another suite reads is refused, never accepted and ignored
    assert invoke(["verify", suite, option, VERIFY_OPTIONS[option]]) == (2, "")
    assert f"unrecognized arguments: {option} {VERIFY_OPTIONS[option]}\n" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["verify"], ["verify", "--seed", "3", "ortho"], ["verify", "--format", "csv", "ortho"]], ids=" ".join)
def test_verify_options_follow_the_suite_name(argv):
    assert invoke(argv) == (2, "")


@pytest.mark.parametrize("argv", [
    ["verify", "ortho", "--m", "2"],
    ["verify", "translate", "--max", "2"],
    ["expand", "--mass", "28", "--temp", "300"],
    ["basis", "--r", "1", "--point", "1,0,0"],
], ids=" ".join)
def test_options_are_taken_by_their_exact_name_only(argv, capsys):
    # a prefix is refused whether or not a sibling option shares it
    assert invoke(argv) == (2, "")
    assert "error:" in capsys.readouterr().err


def test_csv_output_shape():
    code, text = invoke(["verify", "ortho", "--format", "csv"])
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "check,value,tolerance,mode,pass"
    assert len(lines) == 3
    assert "{" not in text


@pytest.mark.parametrize(
    "argv, header, rows",
    [
        (["expand", "--mass", "28", "--temperature", "300", "--max-rank", "4"], ["rank", "index", "value"], 35),
        (["basis", "--rank", "2", "--symbolic"], ["index", "exponents", "coefficient"], 9),
        (["window", "--ti", "2000", "--tn", "1000"], ["message"], 1),
    ],
    ids=["expand", "basis-symbolic", "window"],
)
def test_csv_output_keeps_every_row(argv, header, rows):
    code, text = invoke([*argv, "--format", "csv"])
    table = list(csv.reader(io.StringIO(text)))
    assert code == 0 and table[0] == header and len(table) == rows + 1
    assert all(len(row) == len(header) for row in table)
    if argv[0] == "window":
        assert table[1] == ["(1000, 2000)"]
    if argv[0] == "expand":
        assert float(table[1][2]) == pytest.approx(1.0, rel=1e-12)


# a finite input whose result overflows: refused with nothing on stdout, never printed as "nan" or "inf"
NON_FINITE_RESULTS = [
    ["basis", "--rank", "6", "--point", "1e200,0,0"],
    ["basis", "--rank", "3", "--point", "1e110,1e110,0"],
    ["window", "--ti", "1e308", "--tn", "1e308"],
]


@pytest.mark.parametrize("argv", NON_FINITE_RESULTS, ids=" ".join)
def test_non_finite_results_exit_3(argv, capsys):
    with np.errstate(all="ignore"):
        assert invoke(argv) == (3, "")
    assert capsys.readouterr().err.startswith("numeric error: ")


@pytest.mark.parametrize("argv", NON_FINITE_RESULTS[:2], ids=" ".join)
def test_non_finite_results_warn_nothing(argv, capsys):
    # the overflow surfaces once, as the exit-3 line, not as numpy warnings naming library internals
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert invoke(argv) == (3, "")
    assert len(capsys.readouterr().err.splitlines()) == 1


@pytest.mark.parametrize("value", ["1,2", "1,nan,2", "1,2,3,4"])
@pytest.mark.parametrize(
    "option, argv",
    [
        ("--point", ["basis", "--rank", "2"]),
        ("--drift", ["expand", "--mass", "28", "--temperature", "300"]),
        ("--z0", ["verify", "scale"]),
    ],
    ids=["point", "drift", "z0"],
)
def test_vector_refusal_names_the_option(option, argv, value, capsys):
    assert invoke([*argv, f"{option}={value}"]) == (2, "")
    assert capsys.readouterr().err.startswith(f"error: {option} must be a finite 3-vector, got [")


# --- expand ---------------------------------------------------------------


def test_expand_drifting_maxwellian():
    code, report = invoke_json(
        ["expand", "--mass", "28", "--temperature", "300", "--drift", "300,0,0", "--max-rank", "2"]
    )
    assert code == 0
    assert report["admissible"] is True
    s = report["z_drift"][0]
    ranks = {r["rank"]: r["components"] for r in report["coefficients"]}
    assert ranks[0][0]["value"] == pytest.approx(1.0, rel=1e-10)
    assert ranks[1][0]["value"] == pytest.approx(s, rel=1e-10)
    assert ranks[2][0]["value"] == pytest.approx(s * s / 2.0, rel=1e-8)


def test_expand_rejects_bad_config():
    assert invoke(["expand", "--mass", "28", "--temperature", "300", "--max-rank", "9"])[0] == 2
    assert invoke(["expand", "--mass", "-1", "--temperature", "300"])[0] == 2
    assert invoke(["expand", "--mass", "28", "--temperature", "300", "--quad-order", "40"])[0] == 2


def test_library_quadrature_guards_exit_2():
    assert invoke(["expand", "--mass", "28", "--temperature", "300", "--max-rank", "4", "--quad-order", "8"])[0] == 2
    assert invoke(["verify", "translate", "--quad-order", "6"])[0] == 2
    assert invoke(["verify", "scale", "--quad-order", "33"])[0] == 2


EXPAND = ["expand", "--mass", "28", "--temperature", "300"]
NON_FINITE_ARGVS = [
    *(["basis", "--rank", "2", f"--point={v}"] for v in ("nan,0,0", "0,inf,0", "0,0,-inf")),
    *(["verify", "scale", "--z0", v] for v in ("nan,0,0", "1,inf,0")),
    *([*EXPAND, f"--drift={v}"] for v in ("nan,0,0", "100,0,-inf")),
    *(["expand", "--mass", mass, "--temperature", t] for mass, t in (("4", "inf"), ("nan", "300"), ("inf", "300"), ("28", "nan"))),
    [*EXPAND, "--density", "nan"],
    [*EXPAND, "--density", "inf"],
    *(["window", "--ti", ti, "--tn", tn] for ti, tn in (("inf", "1000"), ("inf", "inf"), ("nan", "1000"))),
    *(["verify", "rotate", option, v] for option in ("--ms", "--msp", "--temperature") for v in ("inf", "nan")),
]


# every positive physical option, each given with the other required options of its command
POSITIVE_OPTIONS = [
    ["expand", "--temperature", "300", "--mass"],
    ["expand", "--mass", "28", "--temperature"],
    [*EXPAND, "--density"],
    ["verify", "rotate", "--ms"],
    ["verify", "rotate", "--msp"],
    ["verify", "rotate", "--temperature"],
    ["window", "--tn", "1000", "--ti"],
    ["window", "--ti", "2000", "--tn"],
]


@pytest.mark.parametrize("value", ["-1", "0", "-0.5", "-2.5e3", "-.5", "inf", "nan", "-inf", "-nan"])
@pytest.mark.parametrize("argv", POSITIVE_OPTIONS, ids=lambda argv: f"{argv[0]} {argv[-1]}")
def test_positive_option_refusal_names_what_was_typed(argv, value, capsys):
    assert invoke([*argv, value]) == (2, "")
    assert f"argument {argv[-1]}: must be finite and positive, got {value}\n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, option, value",
    [
        ([*EXPAND, "--max-rank", "2"], "--drift", "-300,0,0"),
        (["basis", "--rank", "1"], "--point", "-1,0,0"),
        (["verify", "scale", "--alpha", "0.5"], "--z0", "-.5,0,0"),
    ],
    ids=["drift", "point", "z0"],
)
def test_negative_value_after_a_space_is_the_value(argv, option, value):
    # argparse alone reads "-300,0,0" as an unknown option and refuses "--drift" for want of its value
    code, text = invoke([*argv, f"{option}={value}"])
    assert code == 0 and invoke([*argv, option, value]) == (code, text)


@pytest.mark.parametrize("value", ["-inf,0,0", "-nan,0,0", "-Inf,0,0"])
def test_negative_non_finite_drift_after_a_space_is_the_value(value, capsys):
    # argparse alone refuses "--drift" for want of its value; the vector refusal must be the one "=" gets
    assert invoke([*EXPAND, f"--drift={value}"]) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: --drift must be a finite 3-vector, got [")
    assert invoke([*EXPAND, "--drift", value]) == (2, "")
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("argv", NON_FINITE_ARGVS, ids=" ".join)
def test_non_finite_inputs_exit_2(argv):
    assert invoke(argv) == (2, "")


def test_expand_at_largest_density_is_admissible(recwarn):
    code, report = invoke_json([*EXPAND, "--density", "1e308"])
    assert code == 0 and report["admissible"] is True
    assert report["coefficients"][0]["components"][0]["value"] == pytest.approx(1.0, rel=1e-12)
    assert not recwarn.list


def test_expand_near_largest_float_density_is_finite(recwarn):
    code, report = invoke_json([*EXPAND, "--density", "1.7e308"])
    values = [c["value"] for rank in report["coefficients"] for c in rank["components"]]
    assert code == 0 and report["admissible"] is True
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)
    assert values[0] == pytest.approx(1.0, rel=1e-12)
    assert not recwarn.list


def test_expand_coefficients_exact_under_power_of_two_density():
    # the density only scales f and f0; the moment scaling is exact, so not one bit may move; at drift 1000 m/s
    # g = f exp(+z.z) overflows at the outer nodes for density 2**1020, f in the probe's units does not
    for drift in ("100,0,0", "1000,0,0"):
        argv = [*EXPAND, f"--drift={drift}", "--max-rank", "4", "--density"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a 1000 m/s drift fails the order-16 probe at every density
            want = invoke_json([*argv, "1"])[1]["coefficients"]
            for density in (2.0**-900, 2.0**1020):
                assert invoke_json([*argv, repr(density)])[1]["coefficients"] == want, (drift, density)


def test_expand_float_edge_density_with_drift_is_finite():
    # f is finite but g = f exp(+z.z) overflows at the outer nodes; f in the probe's units keeps every moment
    # finite, and the probe's flag is the one at density 1 (a 1000 m/s drift fails the order-16 probe at any density)
    for drift, admissible in (("300,0,0", True), ("1000,0,0", False)):
        argv = [*EXPAND, f"--drift={drift}", "--max-rank", "4", "--density"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            (code, report), (_, base) = invoke_json([*argv, "1.7e308"]), invoke_json([*argv, "1"])
        assert code == 0 and report["admissible"] is base["admissible"] is admissible, drift
        assert len(caught) == 2 * (not admissible), drift
        values, want = ([c["value"] for r in x["coefficients"] for c in r["components"]] for x in (report, base))
        assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values), drift
        assert values == pytest.approx(want, rel=1e-12, abs=1e-14), drift


@pytest.mark.parametrize("argv", [["verify", "translate", "--maps", "0"], ["verify", "rotate", "--points", "0"]], ids=" ".join)
def test_zero_sample_count_exits_2(argv, capsys):
    assert invoke(argv) == (2, "")
    assert f"argument {argv[2]}: must be at least 1, got 0" in capsys.readouterr().err


def test_numeric_error_exits_3(monkeypatch):
    def boom(*args, **kwargs):
        raise NonFiniteIntegrandError((0.0, 0.0, 0.0))

    monkeypatch.setattr("hermtensor.cli.expand", boom)
    assert invoke(["expand", "--mass", "28", "--temperature", "300"])[0] == 3


# --- entry point ----------------------------------------------------------


def test_missing_subcommand_exits_2():
    assert main([], io.StringIO()) == 2


def test_run_wrapper_raises_system_exit(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["hermtensor", "window", "--ti", "2000", "--tn", "1000"])
    with pytest.raises(SystemExit) as err:
        run()
    assert err.value.code == 0
    assert '"message": "(1000, 2000)"' in capsys.readouterr().out


# --- BLAS thread count ----------------------------------------------------

# the four verify defaults, then one hash over expand, truncation_error,
# l2_admissible and reconstruct on 21 drifting Maxwellians
THREAD_PROBE = """
import hashlib, math, warnings
import numpy as np
from hermtensor.cli import main
from hermtensor.quadrature import expand, gauss_hermite_rule, l2_admissible, reconstruct, truncation_error

for suite in ("ortho", "translate", "scale", "rotate"):
    main(["verify", suite])
rule = gauss_hermite_rule(16)
rng = np.random.default_rng(3)
points = rng.uniform(-2.0, 2.0, (64, 3))
digest = hashlib.sha256()
for i in range(21):
    shift, T = rng.uniform(-1.0, 1.0, 3), 0.5 + 0.125 * i
    f = lambda z: T**-1.5 * np.exp(-np.sum((z - shift) ** 2, axis=1) / T)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        coeffs = expand(f, 4, rule, math.pi**-1.5, vectorized=True)
        errors = truncation_error(f, 4, rule, math.pi**-1.5, vectorized=True)
    check = l2_admissible(f, rule, vectorized=True)
    for t in coeffs.coeffs:
        digest.update(t.data.tobytes())
    digest.update(errors.tobytes() + reconstruct(coeffs, points).tobytes())
    digest.update(f"{check.admissible} {check.value.hex()}".encode())
print(digest.hexdigest())
"""


def test_output_independent_of_blas_thread_count():
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=env, capture_output=True, check=True)
        outputs.append(done.stdout)
    assert outputs[0].count(b'"command": "verify"') == 4
    assert outputs[0] == outputs[1]


# --- pinned bytes ---------------------------------------------------------

# Only IEEE +, -, * and divisions by integers feed these outputs, never BLAS,
# so their bytes are the same on every host: one bit moved in the recursion
# or the formatter changes a digest.
CONVENTIONS = ("physicist", "probabilist")
PINNED_ARGVS = {
    "basis": [
        ["basis", "--rank", str(rank), f"--point={point}", "--convention", convention]
        for convention in CONVENTIONS for rank in range(7) for point in ("0.3,1,2", "-4.5,0.7,3.9", "0,-0.0,1.25")
    ],
    "basis-symbolic": [
        ["basis", "--rank", str(rank), "--symbolic", "--convention", convention]
        for convention in CONVENTIONS for rank in range(5)
    ],
    # either side of the factor-four edge T_i = 4 T_n
    "window": [["window", "--ti", ti, "--tn", "1000"] for ti in ("3999", "4001")],
}
PINNED_SHA256 = {
    "basis": "a89d3289c66eaa0e43ce96f5a1f24e303cfed687e2d4a577f9707829ec15e312",
    "basis-symbolic": "d7001f6b55afaabb2fb9f591a5ec3a2fc12745d337b5b372a51da9b15acbac2b",
    "window": "2543a0452d2aa424243f7e55c5ad5d587ebbf431f63bb2d927c88690dd8cfe35",
}


@pytest.mark.parametrize("group", sorted(PINNED_ARGVS))
def test_blas_free_output_bytes_are_pinned(group):
    digest = hashlib.sha256()
    for argv in PINNED_ARGVS[group]:
        code, text = invoke(argv)
        assert code == 0, argv
        digest.update(text.encode())
    assert digest.hexdigest() == PINNED_SHA256[group]
