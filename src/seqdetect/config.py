"""Experiment configuration: a flat key = value text format.

Schema (dotted keys, one per line, '#' starts a comment line):

  operator.kind        well_posed | mildly_ill_posed | severely_ill_posed
  operator.t           decay exponent (required for the ill-posed kinds; a
                       well-posed block may set it for the ill-posed cells
                       of rates)
  operator.scale       positive multiplier, default 1; 1/scale^2 must be a
                       finite positive float
  smoothness.kind      ordinary_smooth | super_smooth
  smoothness.s         growth exponent (required)
  smoothness.scale     positive multiplier, default 1; 1/scale^2 must be a
                       finite positive float
  eps                  base noise level (required); eps^2 must be a finite
                       positive float
  C                    fourth-moment class constant, finite and >= 1,
                       default 3; simulate needs C > 1
  index_mode           'infinite' or an integer n, default infinite
  D_max                bandwidth truncation, default 65536

  noise.kind           iid_gaussian | iid_rademacher | iid_scaled_uniform |
                       long_range_gaussian | adversarial_equicorrelated
                       (each occurrence starts a new noise block)
  noise.s              decay exponent (long_range_gaussian), default 1
  noise.c              decay amplitude in (0, 1], default 0.5
  noise.d              factor loading in [1/sqrt(2), 1), applied to all
                       coordinates (adversarial_equicorrelated)
  noise.claimed_C      claimed fourth-moment bound; defaults to the family's
                       exact value

  rng.seed             unsigned 64-bit master seed, default 0

  test.alpha           type I level in (0, 1), default 0.1
  test.beta            type II level in (0, 1), default 0.1; bounds, rates
                       and simulate with an adversarial block form the lower
                       bound, which needs test.alpha + test.beta < 1
  test.D               fixed bandwidth, at most the bandwidth limit (D_max,
                       n); omit to auto-select
  test.c_beta_mode     exact | practical, default exact

  run.command          bounds | calibrate | simulate | rates (optional; must
                       match the invoked subcommand when present)
  run.eps_grid         comma-separated, strictly decreasing positive floats,
                       each checked like eps
  run.reps             replications per estimate, default 10000
  run.output_path      default output directory (CLI --output overrides)
  run.cells            'all' or comma-separated operator/smoothness cells
                       for the rates command

Unknown keys are hard errors, with the offending line reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

from .noise import (
    AdversarialEquicorrelated,
    IidGaussian,
    IidRademacher,
    IidScaledUniform,
    LongRangeGaussian,
    NoiseModel,
    check_dense_dimension,
)
from .sequences import (
    DEFAULT_D_MAX,
    OPERATOR_KINDS,
    SMOOTHNESS_KINDS,
    WELL_POSED,
    OperatorFamily,
    ProblemSpec,
    SmoothnessFamily,
)

COMMANDS = ("bounds", "calibrate", "simulate", "rates")

_NOISE_KINDS = (
    "iid_gaussian",
    "iid_rademacher",
    "iid_scaled_uniform",
    "long_range_gaussian",
    "adversarial_equicorrelated",
)

ALL_CELLS = tuple(f"{op}/{sm}" for op in OPERATOR_KINDS for sm in SMOOTHNESS_KINDS)

_KNOWN_KEYS = {
    "operator.kind",
    "operator.t",
    "operator.scale",
    "smoothness.kind",
    "smoothness.s",
    "smoothness.scale",
    "eps",
    "C",
    "index_mode",
    "D_max",
    "noise.kind",
    "noise.s",
    "noise.c",
    "noise.d",
    "noise.claimed_C",
    "rng.seed",
    "test.alpha",
    "test.beta",
    "test.D",
    "test.c_beta_mode",
    "run.command",
    "run.eps_grid",
    "run.reps",
    "run.output_path",
    "run.cells",
}


class ConfigError(ValueError):
    """Configuration problem, annotated with the source line where possible."""


@dataclass(frozen=True)
class NoiseSettings:
    """Declarative noise block; materialised into a model per bandwidth."""

    kind: str
    s: float = 1.0
    c: float = 0.5
    d: float = 1.0 / math.sqrt(2.0)
    claimed_c: float | None = None

    def build(self, dimension: int) -> NoiseModel:
        """The model at this dimension; raises ValueError for invalid
        parameters or a dense family above `noise.MAX_DENSE_DIMENSION`.
        Without ``claimed_c`` the model keeps its family's exact value."""
        claimed = {} if self.claimed_c is None else {"claimed_fourth_moment": self.claimed_c}
        if self.kind == "iid_gaussian":
            return IidGaussian(**claimed)
        if self.kind == "iid_rademacher":
            return IidRademacher(**claimed)
        if self.kind == "iid_scaled_uniform":
            return IidScaledUniform(**claimed)
        if self.kind == "long_range_gaussian":
            # the model builds its matrix when first sampled; check it now
            check_dense_dimension(self.kind, dimension)
            return LongRangeGaussian(self.s, self.c, **claimed)
        if self.kind == "adversarial_equicorrelated":
            return AdversarialEquicorrelated(dimension, self.d, **claimed)
        raise ConfigError(f"unknown noise kind {self.kind!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one batch run needs, parsed and validated."""

    problem: ProblemSpec
    noise: tuple[NoiseSettings, ...]
    alpha: float = 0.1
    beta: float = 0.1
    test_d: int | None = None
    c_beta_mode: str = "exact"
    eps_grid: tuple[float, ...] = ()
    reps: int = 10_000
    seed: int = 0
    output_path: str | None = None
    command: str | None = None
    cells: tuple[str, ...] = ALL_CELLS

    def with_overrides(
        self, seed: int | None = None, reps: int | None = None
    ) -> "ExperimentConfig":
        cfg = self
        if seed is not None:
            cfg = replace(cfg, seed=seed)
        if reps is not None:
            cfg = replace(cfg, reps=reps)
        return cfg


def _parse_float(raw: str, line_no: int, key: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"line {line_no}: {key} expects a number, got {raw!r}") from None


def _parse_int(raw: str, line_no: int, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"line {line_no}: {key} expects an integer, got {raw!r}") from None


def _check_noise_level(eps: float, where: str) -> None:
    """Reject a noise level whose square is not a finite positive float.

    The library also rejects an overflowing square but keeps eps^2 == 0 as the
    noise-free limit; no command can use that limit (rate fits take log 0, and
    the selected bandwidth runs to D_max).
    """
    if not eps > 0 or not 0.0 < eps * eps < math.inf:
        raise ConfigError(
            f"{where}: noise level {eps!r} must be positive with a finite, non-zero square"
        )


def _family(source: str, lines: list[int], maker: Callable, *args):
    """``maker(*args)``, with the family's ValueError reported as a config
    error at the lines of the parameters given to it."""
    try:
        return maker(*args)
    except ValueError as exc:
        where = ", ".join(map(str, sorted(lines)))
        raise ConfigError(f"{source}, line{'s' * (len(lines) > 1)} {where}: {exc}") from exc


def parse_config(text: str, source: str = "<config>") -> ExperimentConfig:
    """Parse and validate a config document; all errors carry line numbers."""
    scalars: dict[str, tuple[str, int]] = {}
    noise_blocks: list[dict[str, tuple[str, int]]] = []

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}, line {line_no}: expected 'key = value', got {line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        value = raw_value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{source}, line {line_no}: unknown key {key!r}")
        if not value:
            raise ConfigError(f"{source}, line {line_no}: empty value for {key!r}")
        if key == "noise.kind":
            noise_blocks.append({"kind": (value, line_no)})
        elif key.startswith("noise."):
            if not noise_blocks:
                raise ConfigError(
                    f"{source}, line {line_no}: {key} appears before any noise.kind"
                )
            noise_blocks[-1][key.removeprefix("noise.")] = (value, line_no)
        else:
            if key in scalars:
                raise ConfigError(f"{source}, line {line_no}: duplicate key {key!r}")
            scalars[key] = (value, line_no)

    def take(key: str) -> tuple[str, int] | None:
        return scalars.get(key)

    def require(key: str) -> tuple[str, int]:
        entry = take(key)
        if entry is None:
            raise ConfigError(f"{source}: missing required key {key!r}")
        return entry

    op_kind, op_line = require("operator.kind")
    if op_kind not in OPERATOR_KINDS:
        raise ConfigError(f"{source}, line {op_line}: unknown operator kind {op_kind!r}")
    # a well-posed spectrum has no exponent, but its block may carry the t
    # that the ill-posed cells of `rates` use
    op_lines: list[int] = []
    t = 0.0
    entry = take("operator.t") if op_kind == WELL_POSED else require("operator.t")
    if entry is not None:
        t = _parse_float(entry[0], entry[1], "operator.t")
        op_lines.append(entry[1])
    op_scale = 1.0
    if (entry := take("operator.scale")) is not None:
        op_scale = _parse_float(entry[0], entry[1], "operator.scale")
        op_lines.append(entry[1])
    operator = _family(source, op_lines, OperatorFamily, op_kind, t, op_scale)

    sm_kind, sm_line = require("smoothness.kind")
    if sm_kind not in SMOOTHNESS_KINDS:
        raise ConfigError(f"{source}, line {sm_line}: unknown smoothness kind {sm_kind!r}")
    entry = require("smoothness.s")
    s = _parse_float(entry[0], entry[1], "smoothness.s")
    sm_lines = [entry[1]]
    sm_scale = 1.0
    if (entry := take("smoothness.scale")) is not None:
        sm_scale = _parse_float(entry[0], entry[1], "smoothness.scale")
        sm_lines.append(entry[1])
    smoothness = _family(source, sm_lines, SmoothnessFamily, sm_kind, s, sm_scale)

    entry = require("eps")
    eps = _parse_float(entry[0], entry[1], "eps")
    _check_noise_level(eps, f"{source}, line {entry[1]}: eps")

    c = 3.0
    if (entry := take("C")) is not None:
        c = _parse_float(entry[0], entry[1], "C")
        if not 1.0 <= c < math.inf:
            raise ConfigError(
                f"{source}, line {entry[1]}: C must be a finite number >= 1, got {c!r}"
            )

    n_max: int | None = None
    if (entry := take("index_mode")) is not None:
        if entry[0] != "infinite":
            n_max = _parse_int(entry[0], entry[1], "index_mode")

    d_max = DEFAULT_D_MAX
    if (entry := take("D_max")) is not None:
        d_max = _parse_int(entry[0], entry[1], "D_max")

    try:
        problem = ProblemSpec(
            operator=operator,
            smoothness=smoothness,
            eps=eps,
            n_max=n_max,
            fourth_moment_bound=c,
            d_max=d_max,
        )
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc

    noise_settings: list[NoiseSettings] = []
    for block in noise_blocks:
        kind, kind_line = block.pop("kind")
        if kind not in _NOISE_KINDS:
            raise ConfigError(f"{source}, line {kind_line}: unknown noise kind {kind!r}")
        kwargs: dict[str, float] = {}
        for field_name, (value, line_no) in block.items():
            parsed = _parse_float(value, line_no, f"noise.{field_name}")
            kwargs["claimed_c" if field_name == "claimed_C" else field_name] = parsed
        noise_settings.append(NoiseSettings(kind=kind, **kwargs))

    seed = 0
    if (entry := take("rng.seed")) is not None:
        seed = _parse_int(entry[0], entry[1], "rng.seed")
        if not 0 <= seed < (1 << 64):
            raise ConfigError(f"{source}, line {entry[1]}: rng.seed must be an unsigned 64-bit value")

    alpha, beta = 0.1, 0.1
    if (entry := take("test.alpha")) is not None:
        alpha = _parse_float(entry[0], entry[1], "test.alpha")
    if (entry := take("test.beta")) is not None:
        beta = _parse_float(entry[0], entry[1], "test.beta")
    for name, level in (("test.alpha", alpha), ("test.beta", beta)):
        if not 0.0 < level < 1.0:
            raise ConfigError(f"{source}: {name} must lie in (0, 1)")

    test_d: int | None = None
    if (entry := take("test.D")) is not None:
        test_d = _parse_int(entry[0], entry[1], "test.D")
        if test_d < 1:
            raise ConfigError(f"{source}, line {entry[1]}: test.D must be positive")
        if test_d > problem.bandwidth_limit:
            raise ConfigError(
                f"{source}, line {entry[1]}: test.D = {test_d} exceeds the bandwidth "
                f"limit {problem.bandwidth_limit}"
            )

    c_beta_mode = "exact"
    if (entry := take("test.c_beta_mode")) is not None:
        c_beta_mode = entry[0]
        if c_beta_mode not in ("exact", "practical"):
            raise ConfigError(
                f"{source}, line {entry[1]}: test.c_beta_mode must be 'exact' or 'practical'"
            )

    command: str | None = None
    if (entry := take("run.command")) is not None:
        command = entry[0]
        if command not in COMMANDS:
            raise ConfigError(f"{source}, line {entry[1]}: unknown command {command!r}")

    eps_grid: tuple[float, ...] = ()
    if (entry := take("run.eps_grid")) is not None:
        raw_items = [item.strip() for item in entry[0].split(",") if item.strip()]
        if not raw_items:
            raise ConfigError(f"{source}, line {entry[1]}: run.eps_grid is empty")
        grid = tuple(_parse_float(item, entry[1], "run.eps_grid") for item in raw_items)
        if any(e <= 0 for e in grid) or any(b >= a for a, b in zip(grid, grid[1:])):
            raise ConfigError(
                f"{source}, line {entry[1]}: run.eps_grid must be strictly decreasing and positive"
            )
        for level in grid:
            _check_noise_level(level, f"{source}, line {entry[1]}: run.eps_grid")
        eps_grid = grid

    reps = 10_000
    if (entry := take("run.reps")) is not None:
        reps = _parse_int(entry[0], entry[1], "run.reps")
        if reps < 1:
            raise ConfigError(f"{source}, line {entry[1]}: run.reps must be positive")

    output_path: str | None = None
    if (entry := take("run.output_path")) is not None:
        output_path = entry[0]

    cells: tuple[str, ...] = ALL_CELLS
    if (entry := take("run.cells")) is not None:
        if entry[0].strip() != "all":
            requested = tuple(item.strip() for item in entry[0].split(",") if item.strip())
            for cell in requested:
                if cell not in ALL_CELLS:
                    raise ConfigError(
                        f"{source}, line {entry[1]}: unknown cell {cell!r}; "
                        f"valid cells: {', '.join(ALL_CELLS)}"
                    )
            cells = requested

    return ExperimentConfig(
        problem=problem,
        noise=tuple(noise_settings),
        alpha=alpha,
        beta=beta,
        test_d=test_d,
        c_beta_mode=c_beta_mode,
        eps_grid=eps_grid,
        reps=reps,
        seed=seed,
        output_path=output_path,
        command=command,
        cells=cells,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, source=str(path))
