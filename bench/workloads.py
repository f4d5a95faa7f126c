"""The benchmark's workloads: seeded input streams and the ops they drive.

Each workload generates op ``i`` from ``(seed, i)`` alone, so a run and
its traced twin see the same inputs in the same order.  ``run`` is the
timed part and touches the library only through module attributes
(``ht.expand``, ``cli.main``), so the tracer's patches are seen.
``check`` compares the answer with the independent oracles.
"""
from __future__ import annotations

import io
import math
import subprocess
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

import oracles

PI_M32 = math.pi ** -1.5


def rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def in_ball(rng: np.random.Generator, radius: float) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v) * radius * rng.uniform() ** (1.0 / 3.0)


class Workload:
    name = ""
    tracer = None

    def __init__(self, seed: int):
        self.seed = seed

    def item(self, i: int):
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def check(self, item, result) -> list[str]:
        raise NotImplementedError

    def kind(self, item) -> str:
        return self.name


# --- project-3d ---------------------------------------------------------------


class Maxwellian:
    """Vectorized drifting Maxwellian pi**(-3/2) T**(-3/2) exp(-|z - u|^2 / T).

    Normalized so that a_0 = 1 with f0 = pi**(-3/2) at every T.
    """

    def __init__(self, u, T: float):
        self.u = np.asarray(u, dtype=np.float64)
        self.T = float(T)
        self.scale = PI_M32 * self.T**-1.5

    def __call__(self, z):
        return self.scale * np.exp(-np.sum((z - self.u) ** 2, axis=1) / self.T)


@dataclass
class ProjectInput:
    u: np.ndarray
    T: float
    points: np.ndarray
    f: Maxwellian = field(repr=False)


class Project3D(Workload):
    """Per-cell moment-solver work on one shared order-16 rule.

    Every block of 24 inputs holds 8 with T = 1 exactly, 13 with T drawn
    from [0.6, 1.5] and 3 with T in [2.5, 3.5] (outside the weighted L2
    space), in a seeded order; |u| <= 0.8 throughout.
    """

    name = "project-3d"
    block = 24
    RANK = 6
    ORDER = 16
    POINTS = 1024
    KINDS = ("unit",) * 8 + ("warm",) * 13 + ("hot",) * 3

    def __init__(self, seed: int):
        super().__init__(seed)
        import hermtensor as ht

        self.ht = ht
        self.rule = ht.gauss_hermite_rule(self.ORDER)
        self._cache: dict[int, list[ProjectInput]] = {}

    def _block(self, b: int) -> list[ProjectInput]:
        if b not in self._cache:
            rng = rng_for(self.seed, b)
            out = []
            for kind in rng.permutation(self.KINDS):
                if kind == "unit":
                    T = 1.0
                elif kind == "warm":
                    T = float(rng.uniform(0.6, 1.5))
                else:
                    T = float(rng.uniform(2.5, 3.5))
                u = in_ball(rng, 0.8)
                points = rng.uniform(-2.0, 2.0, (self.POINTS, 3))
                out.append(ProjectInput(u, T, points, Maxwellian(u, T)))
            self._cache = {b: out}
        return self._cache[b]

    def item(self, i: int) -> ProjectInput:
        return self._block(i // self.block)[i % self.block]

    def run(self, item: ProjectInput):
        ht = self.ht
        f = item.f
        if self.tracer is not None:
            f = self.tracer.integrand(f)
            self.tracer.add("quadrature.integrand", "useful", self.ORDER**3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            coeffs = ht.expand(f, self.RANK, self.rule, PI_M32, vectorized=True)
            values = ht.reconstruct(coeffs, item.points)
            errors = ht.truncation_error(f, self.RANK, self.rule, PI_M32, vectorized=True)
        warned = any(
            issubclass(w.category, UserWarning) and "weighted-L2" in str(w.message) for w in caught
        )
        return coeffs, warned, values, errors

    def check(self, item, result) -> list[str]:
        return oracles.check_projection(item, *result)


# --- pointwise-frames -----------------------------------------------------------


@dataclass
class FrameInput:
    m_s: float
    m_sp: float
    a_s: list
    a_sp: list
    pair: object
    coeff_s: object
    coeff_sp: object
    points: np.ndarray
    x: np.ndarray


@dataclass
class TranslateInput:
    z00: np.ndarray
    za: np.ndarray
    z: np.ndarray
    tmap: object
    rank: int = 6


class PointwiseFrames(Workload):
    """Single-point frame algebra: one frame item then one translate item per op.

    Pairing the two kinds in every op keeps the latency distribution
    unimodal, so its median does not sit on the gap between two kinds.
    """

    name = "pointwise-frames"
    T = 300.0

    def __init__(self, seed: int):
        super().__init__(seed)
        import hermtensor as ht
        from hermtensor.transforms import TO_CENTERED

        self.ht = ht
        self.to_centered = TO_CENTERED

    def _coefficients(self, rng):
        ht = self.ht
        arrays = [np.ones(1), rng.uniform(-0.1, 0.1, 3), rng.uniform(-0.05, 0.05, 6)]
        tensors = tuple(ht.SymTensor(3, n, a) for n, a in enumerate(arrays))
        return arrays, ht.ExpansionCoefficients(2, tensors)

    def item(self, i: int):
        ht = self.ht
        rng = rng_for(self.seed, i)
        m_s, m_sp = (float(m) * oracles.ATOMIC_MASS for m in rng.uniform(1.0, 60.0, 2))
        a_s, coeff_s = self._coefficients(rng)
        a_sp, coeff_sp = self._coefficients(rng)
        frame = FrameInput(
            m_s, m_sp, a_s, a_sp, ht.SpeciesPair(m_s, m_sp, self.T), coeff_s, coeff_sp,
            rng.uniform(-2.0, 2.0, (16, 6)), rng.uniform(-2.0, 2.0, 6),
        )
        z00, za, z = rng.uniform(-1.0, 1.0, 3), rng.uniform(-1.0, 1.0, 3), rng.uniform(-2.0, 2.0, 3)
        return frame, TranslateInput(z00, za, z, ht.TranslationMap(tuple(z00), tuple(za)))

    def run(self, item):
        ht = self.ht
        frame, tr = item
        rot = ht.BlockRotation.from_pair(frame.pair)
        betas = ht.rotate_coefficients(ht.stack_coefficients(frame.coeff_s, frame.coeff_sp), rot)
        invariance = ht.distribution_invariance(frame.coeff_s, frame.coeff_sp, frame.pair, frame.points)
        equivariance = ht.equivariance_residual(4, frame.x, frame.pair)
        translated = ht.translated_hermite(tr.rank, tr.tmap, self.to_centered, tr.z)
        roundtrip = ht.translation_roundtrip(5, tr.tmap, tr.z)
        grad = ht.grad_check(4, tr.z)
        return (betas, invariance, equivariance), (translated, roundtrip, grad)

    def check(self, item, result) -> list[str]:
        frame, tr = item
        return oracles.check_frames(frame, *result[0]) + oracles.check_translation(tr, *result[1])


# --- cli-mix ------------------------------------------------------------------


@dataclass
class CliOp:
    kind: str
    argv: list
    params: dict


class CliMix(Workload):
    """One ``python -m hermtensor.cli`` process per op.

    Each cycle of ten ops holds the same commands, so the command mix, and
    with it throughput, does not move with the seed.  The two slow
    ``expand`` ops sit at fixed positions 0 and 5 and the other eight are
    in a seeded order, so a run cut mid-cycle still has its share of them.
    """

    name = "cli-mix"
    CYCLE = (
        "expand", "basis", "basis", "basis_symbolic", "window",
        "expand", "verify.ortho", "verify.translate", "verify.scale", "verify.rotate",
    )
    SHUFFLED = (1, 2, 3, 4, 6, 7, 8, 9)
    EXPAND_ORDER = 16

    def __init__(self, seed: int, root: str, in_process: bool = False):
        super().__init__(seed)
        self.root = root
        self.in_process = in_process
        if in_process:
            import hermtensor.cli

            self.cli = hermtensor.cli

    def item(self, i: int) -> CliOp:
        cycle, pos = divmod(i, len(self.CYCLE))
        order = list(range(len(self.CYCLE)))
        for slot, src in zip(self.SHUFFLED, rng_for(self.seed, cycle).permutation(self.SHUFFLED)):
            order[slot] = src
        kind = self.CYCLE[order[pos]]
        rng = rng_for(self.seed, cycle, pos)
        if kind == "basis":
            rank, point = int(rng.integers(0, 7)), [float(c) for c in rng.uniform(-2.0, 2.0, 3)]
            argv = ["basis", "--rank", str(rank), "--point=" + ",".join(map(repr, point))]
            return CliOp(kind, argv, {"rank": rank, "point": point})
        if kind == "basis_symbolic":
            rank = int(rng.integers(0, 5))
            return CliOp(kind, ["basis", "--rank", str(rank), "--symbolic"], {"rank": rank})
        if kind == "window":
            tn = float(rng.uniform(300.0, 3000.0))
            ti = tn * float(rng.uniform(1.0, 6.0))
            return CliOp(kind, ["window", "--ti", repr(ti), "--tn", repr(tn)], {"ti": ti, "tn": tn})
        if kind == "expand":
            mass, temperature = float(rng.uniform(1.0, 60.0)), float(rng.uniform(100.0, 2000.0))
            vth = math.sqrt(2.0 * oracles.BOLTZMANN * temperature / (mass * oracles.ATOMIC_MASS))
            drift = [float(c) for c in in_ball(rng, 0.8) * vth]
            argv = [
                "expand", "--mass", repr(mass), "--temperature", repr(temperature),
                "--drift=" + ",".join(map(repr, drift)), "--max-rank", "4", "--quad-order", str(self.EXPAND_ORDER),
            ]
            return CliOp(kind, argv, {"mass": mass, "temperature": temperature, "drift": drift, "max_rank": 4})
        suite = kind.split(".")[1]
        seed = int(rng.integers(0, 2**31 - 1))
        return CliOp(kind, ["verify", suite, "--seed", str(seed)], {"suite": suite, "seed": seed})

    def kind(self, item: CliOp) -> str:
        return item.kind

    def run(self, item: CliOp):
        if self.tracer is not None and item.kind == "expand":
            self.tracer.add("quadrature.integrand", "useful", self.EXPAND_ORDER**3)
        if self.in_process:
            buf = io.StringIO()
            code = self.cli.main(list(item.argv), stdout=buf)
            return code, buf.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "hermtensor.cli", *item.argv],
            cwd=self.root, capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout

    def check(self, item, result) -> list[str]:
        return oracles.check_cli(item, *result)


WORKLOADS = {cls.name: cls for cls in (Project3D, PointwiseFrames, CliMix)}
