"""hermtensor benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload project-3d --seed 1 --seconds 55 --trace 0

Run it from the root of a source checkout; the library is imported from
``src/`` there.  With ``--trace 0`` the run reports the end-to-end metrics
(tracing off); with ``--trace 1`` it runs the same inputs untraced and then
traced, and reports per-layer metrics from spans recorded around the
library's public functions.  Every op is checked against an independent
oracle.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# numpy is imported inside functions only: cap_threads must run before it loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
MAX_REPORTED_FAILURES = 5


def cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the CPUs this process may use; must precede numpy."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        keep = current.isdigit() and 0 < int(current) <= nproc
        os.environ[var] = current if keep else str(nproc)
    return nproc


def locate_source(root: Path) -> Path:
    src = root / "src"
    if not (src / "hermtensor" / "__init__.py").is_file():
        sys.exit(f"error: no hermtensor source under {src}; run from the root of a source checkout")
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    import hermtensor

    if Path(hermtensor.__file__).resolve().parent != (src / "hermtensor").resolve():
        sys.exit(f"error: imported hermtensor from {hermtensor.__file__}, not from {src}")
    return src


def environment(root: Path, src: Path, seed: int, nproc: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((src / "hermtensor").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    if (root / ".git").exists():  # a bare source tree must not pick up an enclosing repository
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def make_workload(name: str, seed: int, root: Path, in_process: bool = False):
    import workloads

    cls = workloads.WORKLOADS[name]
    if cls is workloads.CliMix:
        return cls(seed, str(root), in_process=in_process)
    return cls(seed)


# --- set-up ----------------------------------------------------------------------


def setup_probe(name: str, seed: int, root: Path) -> None:
    """Child side of one set-up sample: build, warm up, report the clock."""
    wl = make_workload(name, seed, root)
    wl.run(wl.item(0))
    print(time.monotonic())


def setup_seconds(name: str, seed: int, root: Path) -> list[float]:
    """Fresh interpreter to first timed op, sampled SETUP_REPEATS times.

    CLOCK_MONOTONIC is system-wide, so the child's reading is comparable
    with the parent's.  For cli-mix a sample is one process that only
    imports ``hermtensor.cli``.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        if name == "cli-mix":
            argv = [sys.executable, "-c", "import hermtensor.cli"]
        else:
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-probe"]
        start = time.monotonic()
        proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=120)
        end = time.monotonic()
        if proc.returncode != 0:
            sys.exit(f"error: set-up sample failed:\n{proc.stderr}")
        samples.append((float(proc.stdout.split()[-1]) if name != "cli-mix" else end) - start)
    return samples


def cli_import_ms(root: Path) -> float:
    code = "import time; t = time.perf_counter(); import hermtensor.cli; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"error: import sample failed:\n{proc.stderr}")
        samples.append(1e3 * float(proc.stdout.split()[-1]))
    return statistics.median(samples)


# --- the closed loop ------------------------------------------------------------------


class Loop:
    """Closed loop, one caller: the next op starts when the last one is checked."""

    def __init__(self, wl, tracer=None, expected_stdout=None, keep_stdout=False):
        self.wl = wl
        self.tracer = tracer
        self.expected_stdout = expected_stdout or {}
        self.stdout = {} if keep_stdout else None
        self.latencies: list[float] = []
        self.kinds: list[str] = []
        self.failures: list[str] = []
        self.attempted = 0

    def run(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        i = 0
        while time.perf_counter() < deadline:
            self.op(i)
            i += 1

    def op(self, i: int):
        item = self.wl.item(i)
        if self.tracer is not None:
            self.tracer.op = i
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = self.wl.run(item)
        except Exception as exc:  # a raising op is a failed op, not a crashed run
            self.latencies.append(time.perf_counter() - start)
            self.kinds.append(self.wl.kind(item))
            self.failures.append(f"op {i}: {type(exc).__name__}: {exc}")
            return None
        self.latencies.append(time.perf_counter() - start)
        self.kinds.append(self.wl.kind(item))
        problems = self.wl.check(item, result)
        if self.stdout is not None:
            self.stdout[i] = result[1]
        if i in self.expected_stdout and result[1] != self.expected_stdout[i]:
            problems.append("in-process stdout differs from the subprocess stdout")
        if problems:
            self.failures.append(f"op {i} ({self.wl.kind(item)}): " + "; ".join(problems))
        return result

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


# --- reporting -------------------------------------------------------------------------


def end_to_end(name: str, seed: int, seconds: float, root: Path) -> tuple[dict, Loop]:
    import resource

    setup = setup_seconds(name, seed, root)
    wl = make_workload(name, seed, root)
    if name != "cli-mix":
        wl.run(wl.item(0))
    loop = Loop(wl)
    loop.run(seconds)
    who = resource.RUSAGE_CHILDREN if name == "cli-mix" else resource.RUSAGE_SELF
    lat_ms = [1e3 * t for t in loop.latencies]
    print(f"# setup samples (s): {', '.join(f'{s:.4f}' for s in setup)}")
    print(f"# ops: {len(lat_ms)}, beyond p90: {sum(1 for t in lat_ms if t > percentile(lat_ms, 90))}")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (loop.ops_per_s, "1/s"),
        "op_p50_ms": (percentile(lat_ms, 50), "ms"),
        "op_p90_ms": (percentile(lat_ms, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, loop


def layer_metrics(tracer, ops: int) -> dict:
    """Per-op span and counter totals for every traced layer."""
    stats = tracer.summary()
    counts = tracer.counts

    def stat(name, key):
        return stats.get(name, {}).get(key, 0)

    def per_op_ms(name, key="self_s"):
        return (1e3 * stat(name, key) / ops, "ms/op")

    out = {}
    calls = stat("symtensor.sym_product", "calls")
    out["symtensor.sym_product.calls"] = (calls / ops, "calls/op")
    out["symtensor.sym_product.self_ms"] = per_op_ms("symtensor.sym_product")
    out["symtensor.sym_product.batched_share"] = (
        counts["symtensor.sym_product"]["batched"] / calls if calls else 0.0, "share",
    )
    for fn in ("to_dense", "from_dense", "inner", "perm_delta"):
        out[f"symtensor.{fn}.self_ms"] = per_op_ms(f"symtensor.{fn}")
    out["hermite.evaluate_basis.calls"] = (stat("hermite.evaluate_basis", "calls") / ops, "calls/op")
    out["hermite.evaluate_basis.self_ms"] = per_op_ms("hermite.evaluate_basis")
    out["hermite.evaluate_basis.points"] = (counts["hermite.evaluate_basis"]["points"] / ops, "points/op")
    busy = stat("hermite.evaluate_basis", "total_s")
    out["hermite.basis_values_per_s"] = (counts["hermite.evaluate_basis"]["values"] / busy if busy else 0.0, "1/s")
    for fn in ("hermite_phys", "hermite_symbolic", "grad_check"):
        out[f"hermite.{fn}.self_ms"] = per_op_ms(f"hermite.{fn}")
    for fn in ("expand", "l2_admissible", "reconstruct", "truncation_error", "ortho_matrix", "grid_points"):
        out[f"quadrature.{fn}.self_ms"] = per_op_ms(f"quadrature.{fn}")
    sampled = counts["quadrature.integrand"]["points"]
    out["quadrature.integrand_points"] = (sampled / ops, "points/op")
    out["quadrature.integrand_ms"] = (1e3 * tracer.integrand_s / ops, "ms/op")
    out["quadrature.integrand_useful_ratio"] = (
        counts["quadrature.integrand"]["useful"] / sampled if sampled else 0.0, "ratio",
    )
    for fn in (
        "translated_hermite", "translation_roundtrip", "convergence_probe",
        "orthogonality_after_translation", "translate_basis",
    ):
        out[f"transforms.{fn}.self_ms"] = per_op_ms(f"transforms.{fn}")
    for fn in (
        "stack_coefficients", "rotate_rank_n", "mixed_hermite", "mixed_reconstruct",
        "distribution_invariance", "equivariance_residual",
    ):
        out[f"mixed6.{fn}.calls"] = (stat(f"mixed6.{fn}", "calls") / ops, "calls/op")
        out[f"mixed6.{fn}.self_ms"] = per_op_ms(f"mixed6.{fn}")
    out["cli.main.self_ms"] = per_op_ms("cli.main")
    out["cli.emit_json.self_ms"] = per_op_ms("cli.emit_json")
    return out


def traced(name: str, seed: int, seconds: float, root: Path) -> tuple[dict, list[Loop]]:
    """Each op runs untraced, then traced, on the same input until time is up.

    Pairing the two passes op by op keeps machine noise out of the
    tracing-overhead ratio.  For cli-mix the first cycle of ops also runs
    as subprocesses, whose stdout the in-process ``main`` must reproduce.
    """
    from tracer import Tracer

    deadline = time.perf_counter() + seconds
    import_ms = cli_import_ms(root)
    expected = {}
    loops = []
    if name == "cli-mix":
        sub = Loop(make_workload(name, seed, root), keep_stdout=True)
        for i in range(len(sub.wl.CYCLE)):
            sub.op(i)
        expected = sub.stdout
        loops.append(sub)
    wl = make_workload(name, seed, root, in_process=True)
    wl.run(wl.item(0))
    tracer = Tracer()
    plain = Loop(wl, expected_stdout=expected)
    traced_loop = Loop(wl, tracer=tracer, expected_stdout=expected)
    i = 0
    while time.perf_counter() < deadline or i == 0:
        plain.op(i)
        wl.tracer = tracer
        tracer.install()
        try:
            traced_loop.op(i)
        finally:
            tracer.uninstall()
            wl.tracer = None
        i += 1
    loops += [plain, traced_loop]
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{name}-seed{seed}.jsonl.gz")
    print(f"# traced ops: {i}, spans: {len(tracer.names)}")
    metrics = layer_metrics(tracer, i)
    metrics["cli.import_ms"] = (import_ms, "ms")
    from workloads import CliMix

    for kind in dict.fromkeys(CliMix.CYCLE):
        walls = [1e3 * t for t, k in zip(plain.latencies, plain.kinds) if k == kind]
        metrics[f"cli.{kind}.wall_ms"] = (statistics.median(walls) if walls else 0.0, "ms")
    metrics["trace.overhead_ratio"] = (plain.ops_per_s / traced_loop.ops_per_s, "ratio")
    metrics["trace.spans_per_op"] = (len(tracer.names) / i, "spans/op")
    return metrics, loops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("project-3d", "pointwise-frames", "cli-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    nproc = cap_threads()
    root = Path.cwd()
    src = locate_source(root)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if args.setup_probe:
        setup_probe(args.workload, args.seed, root)
        return 0

    env = environment(root, src, args.seed, nproc)
    print("# env: " + json.dumps(env, sort_keys=True))
    if args.trace:
        metrics, loops = traced(args.workload, args.seed, args.seconds, root)
    else:
        metrics, loop = end_to_end(args.workload, args.seed, args.seconds, root)
        loops = [loop]
    attempted = sum(loop.attempted for loop in loops)
    failures = [f for loop in loops for f in loop.failures]
    for line in failures[:MAX_REPORTED_FAILURES]:
        print(f"# FAILED {line}")
    for key, (value, unit) in metrics.items():
        print(f"# {args.workload} {key} = {value!r} {unit}")
    print(f"# {args.workload} ops_failed/ops_attempted = {len(failures)}/{attempted}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
