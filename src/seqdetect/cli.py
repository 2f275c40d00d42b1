"""Batch experiment runner.

Subcommands:

  bounds     radius bounds over the eps grid, CSV + rate-fit summary
  calibrate  derived constants, calibration roots, and threshold ladder
  simulate   empirical type I / type II table per noise family, CSV
  rates      bound decay vs the benchmark rate laws, one CSV per cell

All randomness derives from the configured master seed; outputs contain no
timestamps or wall-clock values (those go to a sidecar .log file), so a rerun
with the same config and seed is byte-identical at any thread count.
A command computes all its outputs before any is written, and its .log line
is written last; `main` alone writes them.
Exit status is 0 only when every asserted check passed.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import detector, montecarlo
from .config import _KEYS, ConfigError, ExperimentConfig, load_config
from .noise import AdversarialEquicorrelated, adversarial_sigma
from .sequences import OperatorFamily, ProblemSpec, SmoothnessFamily, bias_term, sum_inv_b_sq

#: Fitted-exponent tolerances for the rate checks: pure eps powers are tight,
#: logarithmic factors are fitted on a heavily compressed axis and get slack.
POWER_TOLERANCE = 0.05
LOG_TOLERANCE = 0.3

_MIN_SIMULATE_REPS = 1_000
_BOUNDS_HEADER = "eps,lower_r2,upper_r2,classical_r2,D_lower,D_upper"
_SIMULATE_HEADER = "scenario,noise_kind,alpha,beta,D,reps,seed,p_hat_type1,se1,p_hat_type2,se2,pass"
_DIVERGENCE_CHECK_DS = tuple(range(1, 17))


@dataclass(frozen=True)
class Outcome:
    """What one command computed, for `main` to write: its files in writing
    order (name -> text), whether every asserted check passed, its ``.log``
    line, and its stdout line for a given output directory."""

    files: dict[str, str]
    ok: bool
    log: str
    stdout: Callable[[Path], str]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _text(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def _csv(header: str, rows: list[list[str]]) -> str:
    return _text([header, *(",".join(row) for row in rows)])


def _fit_tolerance(law: bounds_mod.RateLaw) -> float:
    return POWER_TOLERANCE if law.mode == bounds_mod.LOG_EPS else LOG_TOLERANCE


def _cell_families(cell: str, problem: ProblemSpec) -> tuple[OperatorFamily, SmoothnessFamily]:
    """The unit-scale families of a ``rates`` cell, with the problem block's
    exponents t and s."""
    op_kind, _, sm_kind = cell.partition("/")
    try:
        return (
            OperatorFamily(op_kind, problem.operator.exponent),
            SmoothnessFamily(sm_kind, problem.smoothness.exponent),
        )
    except ValueError as exc:
        raise ConfigError(f"cell {cell!r}: {exc}") from exc


def _calibration(
    config: ExperimentConfig, command: str
) -> tuple[detector.DetectorConstants, float]:
    """The derived constants and the calibration constant c_beta of the
    configured C, levels and mode, computed once per command.

    A c_beta that is not a finite number above K1 (a tiny test.alpha puts the
    exact root on K1 in double precision, or K1 overflows, and the practical
    constant can miss the calibration inequality) is a config error."""
    constants = detector.derive_constants(config.problem.fourth_moment_bound, config.alpha)
    try:
        c_beta = detector.solve_c_beta(constants, config.beta, config.c_beta_mode)
    except ValueError as exc:
        raise ConfigError(f"{command}: {exc}") from exc
    if not constants.k1 < c_beta < math.inf:
        raise ConfigError(
            f"{command}: the calibration constant c_beta = {_fmt(c_beta)} is not a finite "
            f"number above K1 = {_fmt(constants.k1)}; C or the levels are too extreme"
        )
    return constants, c_beta


def _cell_table(
    config: ExperimentConfig, problem: ProblemSpec, c_beta: float, where: str
) -> tuple[str, list[str], bool]:
    """The bounds CSV of one cell over the eps grid, with its rate-fit
    summary lines and verdict; a grid of fewer than 5 eps gets a comment line
    in place of a fit, and passes.

    One `bounds_over_grid` call covers the whole grid.  A bound whose
    objective is +inf at every bandwidth (its scan then reports D = 0), or a
    lower bound that underflows to 0 at every bandwidth, which no rate fit
    can use, is a config error reported at ``where``; so is a grid the rate
    law cannot be fitted on (a log-log fit needs every eps < 1).  Rate fits
    run on the lower bound: its constants are of order one, so it reaches the
    asymptotic decay already at desk-scale eps, while the upper bound's
    calibration constant delays convergence of log-factor cells far beyond
    double-precision grids."""
    grid = bounds_mod.bounds_over_grid(
        problem, config.eps_grid, config.alpha, config.beta, c_beta=c_beta
    )
    for eps, point in zip(config.eps_grid, grid):
        for name, value in (
            ("lower", point.bounds.lower_r2),
            ("upper", point.bounds.upper_r2),
            ("classical", point.classical_r2),
        ):
            if not math.isfinite(value):
                raise ConfigError(
                    f"{where}: at eps = {_fmt(eps)} the {name} bound overflows at every "
                    "bandwidth; the operator scale or the noise level is too extreme"
                )
        if point.bounds.lower_r2 == 0.0:
            raise ConfigError(
                f"{where}: at eps = {_fmt(eps)} the lower bound underflows to 0 at every "
                "bandwidth; the family parameters or the noise level are too extreme"
            )
    table = _csv(
        _BOUNDS_HEADER,
        [
            [*map(_fmt, (eps, p.bounds.lower_r2, p.bounds.upper_r2, p.classical_r2)),
             str(p.bounds.d_lower), str(p.bounds.d_upper)]
            for eps, p in zip(config.eps_grid, grid)
        ],
    )
    if len(config.eps_grid) < 5:
        return table, ["# grid too small for a rate fit (need >= 5 eps values)"], True

    operator, smoothness = problem.operator, problem.smoothness
    cell = f"{operator.kind}/{smoothness.kind}"
    law = bounds_mod.rate_law(
        operator.kind, smoothness.kind, s=smoothness.exponent, t=operator.exponent
    )
    fit_grid = [(eps, point.bounds.lower_r2) for eps, point in zip(config.eps_grid, grid)]
    try:
        fit = bounds_mod.fit_rate(fit_grid, law.mode, law.eps_power_offset)
    except ValueError as exc:
        raise ConfigError(f"cell {cell!r}: {exc}") from exc
    tol = _fit_tolerance(law)
    passed = abs(fit.exponent - law.exponent) <= tol
    lines = [
        f"cell = {cell}",
        f"expected_exponent = {_fmt(law.exponent)}",
        f"fitted_exponent = {_fmt(fit.exponent)}",
        f"tolerance = {_fmt(tol)}",
        f"pass = {'true' if passed else 'false'}",
    ]
    return table, lines, passed


def run_bounds(config: ExperimentConfig) -> Outcome:
    """Radius bounds per eps plus, when the grid allows, a rate-fit summary."""
    if not config.eps_grid:
        raise ConfigError("bounds needs a non-empty run.eps_grid")
    _, c_beta = _calibration(config, "bounds")
    table, summary, ok = _cell_table(config, config.problem, c_beta, "bounds")
    n = len(config.eps_grid)
    return Outcome(
        {"bounds.csv": table, "bounds_fit.txt": _text(summary)},
        ok,
        f"wrote {n} rows, fit_ok={ok}",
        lambda out: f"bounds: {n} rows -> {out / 'bounds.csv'} (fit {'ok' if ok else 'FAILED'})",
    )


def run_calibrate(config: ExperimentConfig) -> Outcome:
    """Constants, both calibration roots with margins, and a threshold ladder."""
    problem = config.problem
    constants, chosen = _calibration(config, "calibrate")
    exact = detector.solve_c_beta(constants, config.beta, "exact")
    practical = 8.0 * constants.k2 / config.beta

    lines = [
        f"C = {_fmt(problem.fourth_moment_bound)}",
        f"alpha = {_fmt(config.alpha)}",
        f"beta = {_fmt(config.beta)}",
        f"C1 = {_fmt(constants.c1)}",
        f"C2 = {_fmt(constants.c2)}",
        f"K1 = {_fmt(constants.k1)}",
        f"K2 = {_fmt(constants.k2)}",
        f"c_beta_exact = {_fmt(exact)}",
        f"c_beta_exact_residual = {_fmt(detector.c_beta_residual(constants, exact))}",
        f"c_beta_practical = {_fmt(practical)}",
        f"c_beta_practical_residual = {_fmt(detector.c_beta_residual(constants, practical))}",
    ]
    for label, value in (("exact", exact), ("practical", practical)):
        margin = 1.0 - constants.k1 / value
        lines.append(f"margin_{label} = {_fmt(margin)}")
        lines.append(f"margin_{label}_flag = {'true' if margin < detector.MARGIN_FLAG_LEVEL else 'false'}")

    d_star, truncated = _bandwidth(config, chosen, "calibrate")
    lines.append(f"D_selected = {d_star}")
    lines.append(f"D_truncated = {'true' if truncated else 'false'}")

    ladder = sorted({1 << j for j in range(d_star.bit_length())} | {d_star})
    for d in ladder:
        lines.append(f"threshold.D={d} = {_fmt(detector.threshold(constants, problem, d))}")

    return Outcome(
        {"calibrate.txt": _text(lines)},
        True,
        f"D_selected={d_star}",
        lambda out: f"calibrate: wrote {out / 'calibrate.txt'} (D = {d_star})",
    )


def _bandwidth(config: ExperimentConfig, c_beta: float, command: str) -> tuple[int, bool]:
    """The fixed ``test.D``, or the selected bandwidth with its truncation flag.

    The selection minimises the upper bound's objective; one that is +inf at
    every bandwidth (its scan then reports D = 0) is a config error."""
    if config.test_d is not None:
        return config.test_d, False
    sel = detector.select_bandwidth(config.problem, c_beta)
    if sel.d == 0:
        raise ConfigError(
            f"{command}: at eps = {_fmt(config.problem.eps)} the upper bound overflows at "
            "every bandwidth; the operator scale or the noise level is too extreme"
        )
    return sel.d, sel.truncated


def _row_seeds(master_seed: int, count: int) -> list[int]:
    children = np.random.SeedSequence(master_seed).spawn(count)
    return [int(child.generate_state(1, np.uint64)[0]) for child in children]


def run_simulate(config: ExperimentConfig, threads: int = 1) -> Outcome:
    """Empirical type I / type II error table, one row per noise family."""
    if config.reps < _MIN_SIMULATE_REPS:
        raise ConfigError(f"simulate needs run.reps >= {_MIN_SIMULATE_REPS}")
    if not config.noise:
        raise ConfigError("simulate needs at least one noise block")
    problem = config.problem
    constants, c_beta = _calibration(config, "simulate")
    d, _ = _bandwidth(config, c_beta, "simulate")
    det = detector.DetectorConfig(
        constants, d, detector.threshold(constants, problem, d), c_beta, config.beta
    )
    try:
        models = [settings.build(det.d) for settings in config.noise]
    except ValueError as exc:
        raise ConfigError(f"simulate: {exc}") from exc
    try:
        alt = montecarlo.guaranteed_detectable_signal(problem, det.c_beta, det.d)
    except ValueError as exc:
        raise ConfigError(f"simulate at D = {det.d}: {exc}") from exc
    # the analytic chain draws nothing, so a loading it cannot use, in any
    # adversarial block, stops the run before any estimate
    loadings = [float(m.loadings[0]) for m in models if isinstance(m, AdversarialEquicorrelated)]
    checks = [_divergence_check(config, loading) for loading in loadings]
    chain: dict[str, str] = {}
    if len(checks) == 1:
        chain["lowerbound_check.txt"] = checks[0][0]
    elif checks:
        # one section per adversarial block, headed by its loading
        chain["lowerbound_check.txt"] = "".join(
            f"noise.d = {_fmt(d)}\n{text}" for d, (text, _) in zip(loadings, checks)
        )
    chain_ok = all(ok for _, ok in checks)
    scenario = f"{problem.operator.kind}-{problem.smoothness.kind}-D{det.d}"

    # row i is seeded by the master seed's child 2i (the CSV's seed column);
    # both of its error rates are counted on the same replications
    seeds = _row_seeds(config.seed, 2 * len(config.noise))[::2]
    rows: list[list[str]] = []
    ok = chain_ok
    for settings, model, seed in zip(config.noise, models, seeds):
        est2 = montecarlo.estimate_type2(
            problem, det, model, alt.signal, config.reps, seed, threads=threads
        )
        est1 = est2.type1
        row_ok = (
            est1.p_hat <= config.alpha + 3.0 * est1.std_err
            and est2.p_hat <= config.beta + 3.0 * est2.std_err
        )
        ok = ok and row_ok
        rows.append(
            [scenario, settings.kind, _fmt(config.alpha), _fmt(config.beta), str(det.d),
             str(config.reps), str(est1.seed),
             *map(_fmt, (est1.p_hat, est1.std_err, est2.p_hat, est2.std_err)),
             "true" if row_ok else "false"]
        )

    n = len(rows)
    return Outcome(
        {"simulate.csv": _csv(_SIMULATE_HEADER, rows), **chain},
        ok,
        f"rows={n} ok={ok}",
        lambda out: f"simulate: {n} rows -> {out / 'simulate.csv'} ({'ok' if ok else 'FAILED'})",
    )


def _divergence_check(config: ExperimentConfig, loading: float) -> tuple[str, bool]:
    """Analytic lower-bound chain for the equicorrelated construction with
    the same factor loading on every coordinate, as the text of
    ``lowerbound_check.txt`` and its verdict.

    At the lower-bound radius the chi-square divergence must not exceed the
    budget 1 + 4 (1 - alpha - beta)^2, and the spectral/alignment bounds used
    to prove it must hold.  Every D reads the leading block of one matrix,
    whose entries d^2 do not depend on its size.  A loading so close to 1
    that this matrix is not strictly positive definite is a config error."""
    problem = config.problem
    budget = bounds_mod.c_alpha_beta(config.alpha, config.beta)
    coeff = bounds_mod.lower_coefficient(config.alpha, config.beta)
    lines = [f"divergence_budget = {_fmt(budget)}"]
    ok = True
    sigma = adversarial_sigma(min(_DIVERGENCE_CHECK_DS[-1], problem.bandwidth_limit), loading)
    for d in _DIVERGENCE_CHECK_DS:
        if d > problem.bandwidth_limit:
            break
        s_w = sum_inv_b_sq(problem, d)
        if math.isinf(s_w):
            break
        r_sq = min(coeff * problem.eps**2 * s_w, bias_term(problem, d))
        try:
            value, rho_sq, v_sigma_v = montecarlo._chi_sq_chain(
                problem, d, math.sqrt(r_sq), sigma
            )
        except ValueError as exc:
            raise ConfigError(
                f"simulate: noise.d = {loading!r} is too close to 1 for the lower-bound "
                f"check, whose covariance has smallest eigenvalue 1 - d^2: {exc}"
            ) from exc
        holds = value <= budget + 1e-10 and v_sigma_v <= d and rho_sq >= 0.25 * d * s_w
        ok = ok and holds
        lines.append(
            f"D={d} divergence = {_fmt(value)} pass = {'true' if holds else 'false'}"
        )
    return _text(lines), ok


def run_rates(config: ExperimentConfig) -> Outcome:
    """Fit the bound decay per benchmark cell against the known rate laws."""
    if len(config.eps_grid) < 5:
        raise ConfigError("rates needs run.eps_grid with at least 5 values")
    problem = config.problem
    cells = [(cell, *_cell_families(cell, problem)) for cell in config.cells]
    _, c_beta = _calibration(config, "rates")
    files: dict[str, str] = {}
    summaries: list[str] = []
    ok = True
    for cell, operator, smoothness in cells:
        files[f"rates_{cell.replace('/', '-')}.csv"], lines, passed = _cell_table(
            config,
            replace(problem, operator=operator, smoothness=smoothness),
            c_beta,
            f"cell {cell!r}",
        )
        summaries.append("\n".join(lines))
        ok = ok and passed
    files["rates_summary.txt"] = "\n\n".join(summaries) + "\n"
    n = len(config.cells)
    return Outcome(
        files,
        ok,
        f"cells={n} ok={ok}",
        lambda out: (
            f"rates: {n} cells -> {out / 'rates_summary.txt'} ({'ok' if ok else 'FAILED'})"
        ),
    )


def _check_lower_bound_levels(config: ExperimentConfig, command: str) -> None:
    """The lower bound's divergence budget needs alpha + beta < 1.

    ``bounds`` and ``rates`` form the lower bound, and ``simulate`` does in
    its divergence check when a noise block is adversarial; ``calibrate``
    does not.  Checked before the command runs.
    """
    forms_lower_bound = command in ("bounds", "rates") or (
        command == "simulate"
        and any(ns.kind == "adversarial_equicorrelated" for ns in config.noise)
    )
    if forms_lower_bound and not config.alpha + config.beta < 1.0:
        raise ConfigError(
            f"{command} forms the lower bound, which needs test.alpha + test.beta < 1; "
            f"got {config.alpha!r} + {config.beta!r}"
        )


def _check_null_threshold(config: ExperimentConfig, command: str) -> None:
    """``simulate`` needs C > 1.

    At C = 1 the class holds only random signs, xi_k^2 = 1, and the Markov
    threshold K1 eps^2 sum b_k^-2 is 0, since K1 = sqrt(2 (C - 1) / alpha).
    The null statistic of that noise is exactly 0, so the test rejects on
    every null draw.  The other commands only report constants and bounds,
    which stay valid at C = 1.  Checked before the command runs.
    """
    if command == "simulate" and config.problem.fourth_moment_bound == 1.0:
        raise ConfigError(
            "simulate needs C > 1: at C = 1 the threshold is 0, and the class's "
            "only noise, random signs, is rejected on every null draw"
        )


#: Each command's help text and how `main` runs it on the config and the
#: parsed flags.
_COMMANDS: dict[str, tuple[str, Callable[[ExperimentConfig, argparse.Namespace], Outcome]]] = {
    "bounds": ("separation-radius bounds over an eps grid", lambda config, args: run_bounds(config)),
    "calibrate": ("derived constants and thresholds", lambda config, args: run_calibrate(config)),
    "simulate": (
        "empirical type I/II error rates",
        lambda config, args: run_simulate(config, threads=max(1, args.threads)),
    ),
    "rates": ("rate-law verification per benchmark cell", lambda config, args: run_rates(config)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqdetect",
        description="Batch experiments for minimax detection in the sequence model",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the experiment config")
        p.add_argument("--output", default=None, help="output directory")
        if name == "simulate":
            p.add_argument("--seed", default=None, help="override rng.seed")
            p.add_argument("--reps", default=None, help="override run.reps")
            p.add_argument("--threads", type=int, default=1, help="worker threads (default 1)")
    return parser


def _write(out_dir: Path, command: str, outcome: Outcome) -> None:
    """The only writer: every file of the outcome in order, then its
    timestamped line appended to ``<command>.log``."""
    for name, text in outcome.files.items():
        (out_dir / name).write_text(text)
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S")
    with (out_dir / f"{command}.log").open("a") as fh:
        fh.write(f"{stamp} {outcome.log}\n")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if config.command is not None and config.command != args.command:
            raise ConfigError(
                f"config pins run.command = {config.command!r} but {args.command!r} was invoked"
            )
        if args.command == "simulate":
            # each flag is read and checked as its config key would be
            overrides = {}
            for field, key, raw in (("seed", "rng.seed", args.seed), ("reps", "run.reps", args.reps)):
                if raw is not None:
                    try:
                        overrides[field] = _KEYS[key][0](raw, key)
                    except ValueError as exc:
                        raise ConfigError(f"--{field}: {exc}") from None
            config = replace(config, **overrides)
        _check_lower_bound_levels(config, args.command)
        _check_null_threshold(config, args.command)
        out_dir = Path(args.output or config.output_path or ".")
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"output directory {out_dir} is not writable: {exc}") from exc
        outcome = _COMMANDS[args.command][1](config, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    _write(out_dir, args.command, outcome)
    print(outcome.stdout(out_dir))
    return 0 if outcome.ok else 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
