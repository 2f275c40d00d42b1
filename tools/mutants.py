"""Mutation probe: every mutant in the table must fail the tier-1 suite.

A mutant is one exact text substitution in a file of the repository.  The
tool first checks that each mutant's old text occurs exactly once in its
file, so a change that moves the code must update the table with it.  It
then copies the repository to a temporary directory and, one mutant at a
time, applies the substitution there, runs the tier-1 command with ``-x``
and restores the file.  A mutant survives when the suite passes.

Exit status: 0 when every mutant is killed, 1 when one survives, 2 when an
old text does not occur exactly once.  Standard library only; run it from
anywhere as ``python tools/mutants.py``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
#: The tier-1 command with -x.  This tool's own test checks the table
#: against the source, which every mutant changes on purpose, so it is left
#: out of the runs.
TIER1 = [
    sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
    "-p", "no:cacheprovider", "--ignore=tests/test_mutants.py",
]
#: A run past this many seconds counts as killed: the mutant hangs the suite.
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str


_DETECTOR = "src/seqdetect/detector.py"
_MONTECARLO = "src/seqdetect/montecarlo.py"
_NOISE = "src/seqdetect/noise.py"
_BOUNDS = "src/seqdetect/bounds.py"
_SEQUENCES = "src/seqdetect/sequences.py"
_CLI = "src/seqdetect/cli.py"

MUTANTS = (
    # calibration constants
    Mutant("k1_low", _DETECTOR,
           "k1 = math.sqrt(2.0 * c1 / alpha)", "k1 = 0.9 * math.sqrt(2.0 * c1 / alpha)"),
    Mutant("k2_coefficient", _DETECTOR, "12.0 * math.sqrt(c1)", "11.0 * math.sqrt(c1)"),
    Mutant("detector_statistic_centre", _DETECTOR,
           "w @ (obs[:d] * obs[:d] - spec.eps**2)", "w @ (obs[:d] * obs[:d] - 0.98 * spec.eps**2)"),
    Mutant("statistic_overflow", _SEQUENCES, "if not np.isfinite(w).all():", "if False:"),
    Mutant("observation_finite", _DETECTOR, "if not np.isfinite(obs[:d]).all():", "if False:"),
    # the error-rate kernel and its estimates
    Mutant("type1_count_tie", _MONTECARLO,
           "np.count_nonzero(t0 >= thr)", "np.count_nonzero(t0 > thr)"),
    Mutant("cross_term_dropped", _MONTECARLO,
           "t0 + (proj + shift) >= thr", "t0 + shift >= thr"),
    Mutant("signal_shift", _MONTECARLO,
           "shift = float(s @ ws)", "shift = 1.1 * float(s @ ws)"),
    Mutant("kernel_statistic_centre", _MONTECARLO, "eps2 = eps**2", "eps2 = 0.98 * eps**2"),
    Mutant("shared_block_stream", _MONTECARLO,
           "np.random.default_rng((int(seed), int(block)))",
           "np.random.default_rng((int(seed), 0))"),
    Mutant("std_err_quartered", _MONTECARLO,
           "std_err=math.sqrt(p * (1.0 - p) / reps)",
           "std_err=math.sqrt(p * (1.0 - p) / reps) / 4"),
    Mutant("guaranteed_signal", _MONTECARLO,
           "r_sq = c_beta * spec.eps**2", "r_sq = 0.05 * c_beta * spec.eps**2"),
    Mutant("worst_case_negative_radius", _MONTECARLO,
           "if r < 0 or not math.isfinite(r):", "if not math.isfinite(r):"),
    Mutant("thread_count", _MONTECARLO, "if not _is_count(threads):", "if False:"),
    # noise samplers
    Mutant("gaussian_scale", _NOISE,
           "return rng.standard_normal((n, d))", "return 1.05 * rng.standard_normal((n, d))"),
    Mutant("uniform_scale", _NOISE, "half = math.sqrt(3.0)", "half = 1.05 * math.sqrt(3.0)"),
    Mutant("rademacher_scale", _NOISE,
           ".astype(float) * 2.0 - 1.0", ".astype(float) * 2.1 - 1.05"),
    Mutant("adversarial_scale", _NOISE, "xi *= self._residual", "xi *= 1.05 * self._residual"),
    Mutant("long_range_square_root", _NOISE,
           "self._factor = _symmetric_sqrt(*eig)", "self._factor = cov.entries"),
    # correlation matrices and the null variance split
    Mutant("correlation_finite", _NOISE, "if not np.isfinite(m).all():", "if False:"),
    Mutant("cross_part_off_diagonal", _NOISE,
           """    np.fill_diagonal(m, 0.0)
    with np.errstate(over="ignore"):
        r0 = eps4 * float(np.dot(w, w)) * 2.0
        s0 = eps4 * float(w @ m @ w)""",
           """    with np.errstate(over="ignore", invalid="ignore"):
        r0 = eps4 * float(np.dot(w, w)) * 2.0
        s0 = eps4 * (float(w @ m @ w) - float(np.dot(w * w, np.diag(m))))"""),
    # radius bounds and scans
    Mutant("lower_coefficient", _BOUNDS,
           "math.log(c_alpha_beta(alpha, beta)) / 4.0",
           "math.log(c_alpha_beta(alpha, beta)) / 3.5"),
    Mutant("classical_objective", _BOUNDS, "np.sqrt(sums)", "np.sqrt(1.1 * sums)"),
    Mutant("skip_slack", _SEQUENCES, "_SKIP_SLACK = 2.0**-40", "_SKIP_SLACK = 2.0**-8"),
    Mutant("stall_limit", _SEQUENCES, "_SCAN_STALL_LIMIT = 64", "_SCAN_STALL_LIMIT = 8"),
    # the verdicts the commands print
    Mutant("type1_gate", _CLI,
           "est1.p_hat <= config.alpha + 3.0 * est1.std_err",
           "est1.p_hat <= config.alpha + 30.0 * est1.std_err"),
    Mutant("type2_gate", _CLI,
           "and est2.p_hat <= config.beta + 3.0 * est2.std_err", "and True"),
    Mutant("divergence_budget", _CLI, "value <= budget + 1e-10", "value <= 2 * budget + 1e-10"),
    Mutant("spectral_bound", _CLI, "v_sigma_v <= d and", "v_sigma_v <= 2 * d and"),
    Mutant("alignment_bound", _CLI,
           "rho_sq >= 0.25 * d * s_w", "rho_sq >= 0.125 * d * s_w"),
    Mutant("margin_flag_level", _CLI, "MARGIN_FLAG_LEVEL = 0.1", "MARGIN_FLAG_LEVEL = 0.3"),
    # the error boundary that turns a refused input into a config error
    Mutant("error_boundary", _CLI, 'raise ConfigError(f"{args.command}: {exc}") from exc', "raise"),
    # the one report line's verdict
    Mutant("report_verdict", _CLI, "'ok' if outcome.ok else 'FAILED'", "'ok'"),
)


def check_table(root: Path, mutants: tuple[Mutant, ...]) -> list[str]:
    """One message per mutant whose old text does not occur exactly once in
    its file under ``root``; empty when the whole table applies."""
    problems = []
    for m in mutants:
        count = (root / m.path).read_text().count(m.old)
        if count != 1:
            problems.append(f"{m.name}: {m.old!r} occurs {count} times in {m.path}, not once")
    return problems


def run(mutant: Mutant, copy: Path) -> tuple[bool, float]:
    """(killed, seconds) of the tier-1 suite in ``copy`` with the mutant
    applied; the file is restored afterwards."""
    path = copy / mutant.path
    original = path.read_text()
    path.write_text(original.replace(mutant.old, mutant.new, 1))
    # no bytecode is written, so a restored file of the same size and
    # modification second cannot be served from the mutant's cache
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        result = subprocess.run(
            TIER1, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S,
        )
        killed = result.returncode != 0
    except subprocess.TimeoutExpired:
        killed = True
    finally:
        path.write_text(original)
    return killed, time.perf_counter() - start


def main() -> int:
    problems = check_table(ROOT, MUTANTS)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    survivors = []
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(
            ROOT, copy,
            ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "*.egg-info"),
        )
        for m in MUTANTS:
            killed, seconds = run(m, copy)
            print(f"{m.name:28s} {'killed' if killed else 'SURVIVED'}  {seconds:6.1f} s", flush=True)
            if not killed:
                survivors.append(m.name)
    total = time.perf_counter() - start
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed in {total:.0f} s")
    if survivors:
        print(f"surviving: {', '.join(survivors)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
