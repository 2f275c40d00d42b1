"""The benchmark's three workloads: seeded inputs, one timed unit, oracles.

A workload writes its generated configs under ``<work>/inputs`` when it is
built, so a run can be reproduced from them.  ``run`` is the timed unit of
work, one request as a user would make it; ``check`` applies the oracles to
its result outside the timed region.  seqdetect only ever sees the generated
config files.

Why these three:

* ``simulate_scaled`` -- CLI ``simulate`` at D = 30 over all five noise
  families.  The per-replication Monte Carlo loop does nearly all the work.
* ``separation_radius`` -- library ``empirical_separation_radius`` at a
  pinned D = 200 for three Gaussian families: the same Monte Carlo layer,
  reused across sequential probes with common random numbers, with noise
  sampling taking a larger share.
* ``bounds_sweep`` -- CLI ``rates`` on all six cells over a dense eps grid
  that reaches as deep as the 2^22 scan limit allows without truncating,
  plus CLI ``bounds`` and ``calibrate``.  The sequence layer's prefix sums
  and scans do nearly all the work; noise and Monte Carlo do none.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import shutil
import warnings
from pathlib import Path

import numpy as np

# Modules, not names, so that a traced run sees the calls through the
# attributes it wraps.
from seqdetect import cli, config, montecarlo
from seqdetect.sequences import DEFAULT_D_MAX

CELLS = tuple(
    (op, sm)
    for op in ("well_posed", "mildly_ill_posed", "severely_ill_posed")
    for sm in ("ordinary_smooth", "super_smooth")
)
BOUNDS_HEADER = "eps,lower_r2,upper_r2,classical_r2,D_lower,D_upper"
SIMULATE_HEADER = (
    "scenario,noise_kind,alpha,beta,D,reps,seed,p_hat_type1,se1,p_hat_type2,se2,pass"
)
#: Largest relative gap allowed between a CSV ``upper_r2`` and its exact
#: recomputation.  The program sums b_k^-2 sequentially inside scan chunks of
#: 4096 terms (exact carries between chunks), so its error is at most
#: 4096 float64 units in the last place of the sum; the factor 2 covers the
#: few roundings of the product and the added bias term.
UPPER_RTOL = 2 * 4096 * 2.0**-53


class Checks:
    """Oracle outcomes: every check counts as attempted, a false one as failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(what)


def _u64(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**64, dtype=np.uint64))


def _write_config(path: Path, pairs: list[tuple[str, object]]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(f"{k} = {v}\n" for k, v in pairs))
    return path


def _jittered_grid(rng: np.random.Generator, hi: float, lo: float, n: int) -> list[float]:
    """Geometric eps grid from hi to lo; interior points move by up to a
    quarter step in log space, so the grid stays strictly decreasing and its
    deepest point, which sets the cost, stays fixed."""
    logs = np.linspace(math.log(hi), math.log(lo), n)
    step = logs[0] - logs[1]
    logs[1:-1] += rng.uniform(-0.25, 0.25, n - 2) * step
    return [float(x) for x in np.exp(logs)]


def _grid_text(grid: list[float]) -> str:
    return ", ".join(repr(e) for e in grid)


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file())


def run_cli(argv: list[str]) -> tuple[int, list[str]]:
    """Run ``seqdetect <argv>`` in-process; returns the exit code and the
    warnings it raised.  Its console output is discarded."""
    sink = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
    return rc, [str(w.message) for w in caught]


def c_beta_exact(c: float, alpha: float, beta: float) -> float:
    """Largest root of beta x^2 - (2 beta K1 + 2 K2) x + beta K1^2 = 0."""
    c1 = c - 1.0
    k1 = math.sqrt(2.0 * c1 / alpha)
    k2 = 10.0 + 5.0 * c1 + 2.0 * math.sqrt(c) + 12.0 * math.sqrt(c1)
    p = beta * k1 + k2
    return (p + math.sqrt(p * p - (beta * k1) ** 2)) / beta


def inv_b_sq_terms(op_kind: str, t: float, d: int) -> np.ndarray:
    """b_k^-2 for k = 1..d with unit operator scale."""
    k = np.arange(1, d + 1, dtype=float)
    if op_kind == "well_posed":
        return np.ones(d)
    if op_kind == "mildly_ill_posed":
        return k ** (2.0 * t)
    return np.exp(2.0 * t * k)


def inv_a_sq(sm_kind: str, s: float, d: int) -> float:
    """a_d^-2 with unit smoothness scale."""
    if sm_kind == "ordinary_smooth":
        return math.pow(d, -2.0 * s)
    return math.exp(-2.0 * s * d)


def _pass_flags(text: str) -> list[bool]:
    """Every ``pass = <flag>`` in a summary file, as booleans."""
    return [flag == "true" for flag in re.findall(r"pass = (\w+)", text)]


def _rng_kernel(d: int, n: int, factor: np.ndarray | None = None) -> None:
    """Reference work like a Monte Carlo replication: a fresh keyed generator,
    a d-dimensional draw (optionally correlated by ``factor``) and a weighted
    sum of squares."""
    w = np.ones(d)
    for i in range(n):
        y = np.random.default_rng((7, i)).standard_normal((1, d))
        if factor is not None:
            y = y @ factor
        float(w @ (y[0] * y[0] - 1.0))


_SCAN_TERMS = np.arange(1.0, 4097.0)


def _scan_kernel(chunks: int) -> None:
    """Reference work like the bandwidth scan: per chunk of 4096 terms, a
    power, a cumulative sum, an argmin and an exactly rounded carry."""
    carry = 0.0
    for i in range(chunks):
        terms = (_SCAN_TERMS + i) ** 1.5
        np.argmin(np.sqrt(carry + np.cumsum(terms)))
        carry = math.fsum([carry, *terms.tolist()])


class SimulateScaled:
    """CLI ``simulate`` with eps = 3e-4 (D = 30) over all five noise families."""

    name = "simulate_scaled"
    eps = 3e-4
    reps = 5_000
    warmup_reps = 1_000

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng([seed, 1])
        self.work = work
        self.out = work / "out"
        self.config = _write_config(
            work / "inputs" / "simulate.cfg",
            [
                ("operator.kind", "well_posed"),
                ("smoothness.kind", "ordinary_smooth"),
                ("smoothness.s", 1.0),
                ("eps", self.eps),
                ("C", 3.0),
                ("noise.kind", "iid_gaussian"),
                ("noise.kind", "iid_rademacher"),
                ("noise.kind", "iid_scaled_uniform"),
                ("noise.kind", "long_range_gaussian"),
                ("noise.s", repr(float(rng.uniform(0.5, 2.0)))),
                ("noise.c", repr(float(rng.uniform(0.2, 0.6)))),
                ("noise.kind", "adversarial_equicorrelated"),
                ("noise.d", repr(float(rng.uniform(0.71, 0.95)))),
                ("rng.seed", _u64(rng)),
                ("test.alpha", 0.1),
                ("test.beta", 0.1),
                ("run.reps", self.reps),
            ],
        )
        self.families = 5
        self.items_label = "Monte Carlo replications (mc_reps_per_s)"
        self.items_per_unit = 2 * self.families * self.reps
        self.reference: bytes | None = None

    @staticmethod
    def speed_kernel() -> None:
        _rng_kernel(30, 1500)

    def argv(self, out: Path, *extra: str) -> list[str]:
        return ["simulate", "--config", str(self.config), "--output", str(out), *extra]

    def warm_up(self) -> None:
        run_cli(self.argv(fresh(self.work / "warmup"), "--reps", str(self.warmup_reps)))

    def prepare(self) -> None:
        fresh(self.out)

    def run(self):
        return run_cli(self.argv(self.out))

    def bytes_written(self) -> int:
        return _dir_bytes(self.out)

    def check(self, result, checks: Checks) -> None:
        rc, _ = result
        checks.expect(rc == 0, f"simulate exited {rc}")
        csv_bytes = (self.out / "simulate.csv").read_bytes()
        lines = csv_bytes.decode().splitlines()
        checks.expect(lines[0] == SIMULATE_HEADER, "simulate.csv header")
        checks.expect(len(lines) == 1 + self.families, "simulate.csv has one row per family")
        for line in lines[1:]:
            checks.expect(line.endswith(",true"), f"simulate row failed: {line}")
        flags = _pass_flags((self.out / "lowerbound_check.txt").read_text())
        checks.expect(bool(flags) and all(flags), "lower-bound chain has a failing D")
        if self.reference is None:
            self.reference = csv_bytes
        checks.expect(csv_bytes == self.reference, "simulate.csv differs between repeats")


class SeparationRadius:
    """Library ``empirical_separation_radius`` at pinned D = 200, eps = 1e-5,
    for iid, long-range and adversarial Gaussian noise."""

    name = "separation_radius"
    d = 200
    eps = 1e-5
    reps = 2_000
    warmup_reps = 1_000
    alpha = beta = 0.1
    c = 3.0

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng([seed, 2])
        self.work = work
        self.config = _write_config(
            work / "inputs" / "separation.cfg",
            [
                ("operator.kind", "well_posed"),
                ("smoothness.kind", "ordinary_smooth"),
                ("smoothness.s", 1.0),
                ("eps", self.eps),
                ("C", self.c),
                ("noise.kind", "iid_gaussian"),
                ("noise.kind", "long_range_gaussian"),
                ("noise.s", repr(float(rng.uniform(0.5, 2.0)))),
                ("noise.c", repr(float(rng.uniform(0.2, 0.6)))),
                ("noise.kind", "adversarial_equicorrelated"),
                ("noise.d", repr(float(rng.uniform(0.71, 0.95)))),
                ("rng.seed", _u64(rng)),
                ("test.alpha", self.alpha),
                ("test.beta", self.beta),
                ("test.D", self.d),
                ("run.reps", self.reps),
            ],
        )
        self.seeds = [_u64(rng) for _ in range(3)]
        (work / "inputs" / "separation_seeds.txt").write_text(
            "".join(f"{s}\n" for s in self.seeds)
        )
        self.items_label = "solved separation radii (radii_per_s)"
        self.items_per_unit = len(self.seeds)
        self.reference = None
        # c_beta eps^2 sum_{k<=D} b_k^-2 + a_D^-2 for b_k = 1, a_k = k.
        self.r2_cap = (
            c_beta_exact(self.c, self.alpha, self.beta)
            * self.eps**2
            * math.fsum(inv_b_sq_terms("well_posed", 0.0, self.d).tolist())
            + inv_a_sq("ordinary_smooth", 1.0, self.d)
        )

    _factor = np.random.default_rng(0).standard_normal((200, 200)) / 200.0

    @staticmethod
    def speed_kernel() -> None:
        _rng_kernel(200, 1000, SeparationRadius._factor)

    def _solve(self, reps: int, families: int):
        loaded = config.load_config(self.config)
        out = []
        for settings, seed in list(zip(loaded.noise, self.seeds))[:families]:
            model = settings.build(loaded.test_d)
            out.append(
                montecarlo.empirical_separation_radius(
                    loaded.problem, loaded.alpha, loaded.beta, model, reps, seed,
                    d=loaded.test_d,
                )
            )
        return out

    def warm_up(self) -> None:
        self._solve(self.warmup_reps, 1)

    def prepare(self) -> None:
        pass

    def run(self):
        return self._solve(self.reps, len(self.seeds))

    def bytes_written(self) -> int:
        return 0

    def check(self, result, checks: Checks) -> None:
        checks.expect(len(result) == len(self.seeds), "one radius per family")
        for est in result:
            checks.expect(est.bracketed, f"radius not bracketed: {est}")
            checks.expect(est.d == self.d, f"radius solved at D = {est.d}")
            r2 = est.radius**2
            checks.expect(0.0 < r2 <= self.r2_cap, f"r^2 = {r2!r} outside (0, {self.r2_cap!r}]")
        radii = [(e.radius, e.iterations) for e in result]
        if self.reference is None:
            self.reference = radii
        checks.expect(radii == self.reference, "radii differ between repeats")


class BoundsSweep:
    """CLI ``rates`` on all six cells over a dense eps grid, plus CLI
    ``bounds`` and ``calibrate``."""

    name = "bounds_sweep"
    d_max = 1 << 22
    #: The deepest eps at which no lower, upper or classical scan reaches
    #: D_max = 2^22 (the well-posed classical comparator is the first to
    #: truncate, a little below 4.2e-7).
    rates_eps_lo = 5e-7
    rates_points = 48
    bounds_points = 24
    s, t, c, alpha, beta = 0.75, 0.5, 1.0, 0.25, 0.25

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng([seed, 3])
        self.work = work
        self.out = work / "out"
        inputs = work / "inputs"
        self.rates_grid = _jittered_grid(rng, 0.0625, self.rates_eps_lo, self.rates_points)
        self.rates_config = _write_config(
            inputs / "rates.cfg",
            [
                ("operator.kind", "mildly_ill_posed"),
                ("operator.t", self.t),
                ("smoothness.kind", "ordinary_smooth"),
                ("smoothness.s", self.s),
                ("eps", 0.01),
                ("C", self.c),
                ("D_max", self.d_max),
                ("noise.kind", "iid_gaussian"),
                ("rng.seed", _u64(rng)),
                ("test.alpha", self.alpha),
                ("test.beta", self.beta),
                ("run.eps_grid", _grid_text(self.rates_grid)),
                ("run.cells", "all"),
            ],
        )
        self.bounds_grid = _jittered_grid(rng, 0.0625, 1e-4, self.bounds_points)
        self.bounds_config = _write_config(
            inputs / "bounds.cfg",
            [
                ("operator.kind", "well_posed"),
                ("smoothness.kind", "ordinary_smooth"),
                ("smoothness.s", 1.0),
                ("eps", 0.01),
                ("C", 3.0),
                ("noise.kind", "iid_gaussian"),
                ("rng.seed", _u64(rng)),
                ("test.alpha", 0.1),
                ("test.beta", 0.1),
                ("run.eps_grid", _grid_text(self.bounds_grid)),
            ],
        )
        self.calibrate_config = _write_config(
            inputs / "calibrate.cfg",
            [
                ("operator.kind", "mildly_ill_posed"),
                ("operator.t", 1.0),
                ("smoothness.kind", "ordinary_smooth"),
                ("smoothness.s", 1.0),
                ("eps", repr(float(1e-3 * rng.uniform(0.8, 1.25)))),
                ("C", 3.0),
                ("noise.kind", "iid_gaussian"),
                ("rng.seed", _u64(rng)),
                ("test.alpha", repr(float(rng.uniform(0.03, 0.1)))),
                ("test.beta", 0.1),
            ],
        )
        self.items_label = "(cell, eps) bound evaluations (bounds_per_s)"
        self.items_per_unit = len(CELLS) * self.rates_points + self.bounds_points
        self.reference: dict[str, bytes] | None = None

    @staticmethod
    def speed_kernel() -> None:
        _scan_kernel(150)

    def _commands(self, out: Path, with_rates: bool = True):
        cmds = [("calibrate", self.calibrate_config), ("bounds", self.bounds_config)]
        if with_rates:
            cmds.append(("rates", self.rates_config))
        return [[cmd, "--config", str(cfg), "--output", str(out)] for cmd, cfg in cmds]

    def warm_up(self) -> None:
        out = fresh(self.work / "warmup")
        for argv in self._commands(out, with_rates=False):
            run_cli(argv)

    def prepare(self) -> None:
        fresh(self.out)

    def run(self):
        return [run_cli(argv) for argv in self._commands(self.out)]

    def bytes_written(self) -> int:
        return _dir_bytes(self.out)

    def check(self, result, checks: Checks) -> None:
        for rc, caught in result:
            checks.expect(rc == 0, f"command exited {rc}")
            checks.expect(not any("scan limit" in w for w in caught),
                          f"scan truncated: {caught}")
        outputs = {
            f.name: f.read_bytes()
            for f in sorted(self.out.iterdir())
            if f.is_file() and f.suffix != ".log"
        }
        for name in ("rates_summary.txt", "bounds_fit.txt"):
            flags = _pass_flags(outputs[name].decode())
            checks.expect(bool(flags) and all(flags), f"{name} has a failing fit")
        calib = outputs["calibrate.txt"].decode()
        checks.expect("D_truncated = false" in calib, "calibrate bandwidth truncated")
        if self.reference is not None:
            checks.expect(outputs == self.reference, "outputs differ between repeats")
            return
        # The row-level oracles run once; later repeats must reproduce the
        # same bytes.
        self.reference = outputs
        c_beta = c_beta_exact(self.c, self.alpha, self.beta)
        for op, sm in CELLS:
            text = outputs[f"rates_{op}-{sm}.csv"].decode()
            self._check_rows(text, op, sm, self.s, self.t, c_beta, self.rates_grid,
                             self.d_max, checks)
        self._check_rows(
            outputs["bounds.csv"].decode(), "well_posed", "ordinary_smooth", 1.0, 0.0,
            c_beta_exact(3.0, 0.1, 0.1), self.bounds_grid, DEFAULT_D_MAX, checks,
        )

    @staticmethod
    def _check_rows(text, op, sm, s, t, c_beta, grid, d_max, checks: Checks) -> None:
        lines = text.splitlines()
        checks.expect(lines[0] == BOUNDS_HEADER, f"{op}/{sm} header")
        rows = [line.split(",") for line in lines[1:]]
        checks.expect([float(r[0]) for r in rows] == grid, f"{op}/{sm} eps grid")
        d_top = max(int(r[5]) for r in rows)
        terms = inv_b_sq_terms(op, t, d_top).tolist()
        for eps_s, lower_s, upper_s, _, d_lower_s, d_upper_s in rows:
            eps, lower, upper = float(eps_s), float(lower_s), float(upper_s)
            d_lower, d_upper = int(d_lower_s), int(d_upper_s)
            where = f"{op}/{sm} eps={eps_s}"
            checks.expect(lower <= upper, f"{where}: lower_r2 > upper_r2")
            checks.expect(max(d_lower, d_upper) < d_max, f"{where}: D reached D_max")
            exact = c_beta * eps * eps * math.fsum(terms[:d_upper]) + inv_a_sq(sm, s, d_upper)
            checks.expect(abs(upper - exact) <= UPPER_RTOL * exact,
                          f"{where}: upper_r2 {upper!r} vs exact {exact!r}")


WORKLOADS = {w.name: w for w in (SimulateScaled, SeparationRadius, BoundsSweep)}
