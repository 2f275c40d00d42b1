"""Experiment configuration: a flat key = value text format.

Schema (dotted keys, one per line, '#' starts a comment line):

  operator.kind        well_posed | mildly_ill_posed | severely_ill_posed
  operator.t           decay exponent, positive and finite (required for the
                       ill-posed kinds; a well-posed block may set it for
                       the ill-posed cells of rates)
  operator.scale       positive multiplier, default 1; 1/scale^2 must be a
                       finite positive float
  smoothness.kind      ordinary_smooth | super_smooth
  smoothness.s         growth exponent, positive and finite (required)
  smoothness.scale     positive multiplier, default 1; 1/scale^2 must be a
                       finite positive float
  eps                  base noise level (required); eps^2 must be a finite
                       positive float
  C                    fourth-moment class constant, finite and >= 1,
                       default 3; simulate needs C > 1
  D_max                positive bandwidth truncation, default 65536

  noise.kind           iid_gaussian | iid_rademacher | iid_scaled_uniform |
                       long_range_gaussian | adversarial_equicorrelated
                       (each occurrence starts a new noise block)
  noise.s              decay exponent, positive and finite, default 1
                       (long_range_gaussian only)
  noise.c              decay amplitude in (0, 1], default 0.5; above
                       1/(2 - 2^-s) it may be repaired, or shrunk up to 4 times
                       (long_range_gaussian only)
  noise.d              factor loading in [1/sqrt(2), 1), default 1/sqrt(2),
                       applied to all coordinates (adversarial_equicorrelated
                       only)

  rng.seed             unsigned 64-bit master seed, default 0

  test.alpha           type I level in (0, 1), default 0.1
  test.beta            type II level in (0, 1), default 0.1; bounds, rates
                       and simulate with an adversarial block form the lower
                       bound, which needs test.alpha + test.beta < 1
  test.D               fixed positive bandwidth, at most the bandwidth limit
                       D_max; omit to auto-select

  run.command          bounds | calibrate | simulate | rates (optional; must
                       match the invoked subcommand when present)
  run.eps_grid         comma-separated, strictly decreasing floats, each
                       checked like eps
  run.reps             positive replications, default 10000; >= 1000 in simulate
  run.output_path      default output directory (CLI --output overrides); a
                       relative path resolves against the working directory,
                       not the config file's directory
  run.cells            'all' or comma-separated, distinct operator/smoothness cells
                       for the rates command

Unknown keys, a key repeated at the top level or within one noise block, and
noise keys the block's kind does not take (its class's ``params`` in
`noise.NOISE_KINDS`) are hard errors, with the offending line reported.  Every
value is checked at load, noise parameters too (each block is built once at a
single coordinate), so each command reports a bad value at its line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Collection

from .noise import NOISE_KINDS, NoiseModel, build_noise
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

ALL_CELLS = tuple(f"{op}/{sm}" for op in OPERATOR_KINDS for sm in SMOOTHNESS_KINDS)


class ConfigError(ValueError):
    """Configuration problem, annotated with the source line where possible."""


@dataclass(frozen=True)
class NoiseSettings:
    """Declarative noise block; materialised into a model per bandwidth.
    Parameters the block does not set keep their constructor defaults."""

    kind: str
    params: dict[str, float]

    def build(self, dimension: int) -> NoiseModel:
        """The model at this dimension; raises ValueError for invalid
        parameters or a dense family above `noise.MAX_DENSE_DIMENSION`."""
        return build_noise(self.kind, dimension, **self.params)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one batch run needs, parsed and validated."""

    problem: ProblemSpec
    noise: tuple[NoiseSettings, ...]
    alpha: float
    beta: float
    test_d: int | None
    eps_grid: tuple[float, ...]
    reps: int
    seed: int
    output_path: str | None
    command: str | None
    cells: tuple[str, ...]


#: Reads one raw value of the key it is given; a ValueError's message names
#: the key and is reported at the value's line.
Reader = Callable[[str, str], object]


def _number(raw: str, key: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{key} expects a number, got {raw!r}") from None


def _integer(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{key} expects an integer, got {raw!r}") from None


def _text(raw: str, key: str) -> str:
    return raw


def _checked(read: Reader, ok: Callable[[object], bool], rule: str) -> Reader:
    """``read``, refusing a value for which ``ok`` is false: the key must
    ``rule``."""

    def read_checked(raw: str, key: str) -> object:
        value = read(raw, key)
        if not ok(value):
            raise ValueError(f"{key} must {rule}, got {value!r}")
        return value

    return read_checked


def _one_of(choices: Collection[str], what: str) -> Reader:
    def read_choice(raw: str, key: str) -> str:
        if raw not in choices:
            raise ValueError(f"unknown {what} {raw!r}; expected one of {', '.join(choices)}")
        return raw

    return read_choice


def _noise_level(raw: str, key: str) -> float:
    """A noise level whose square is a finite positive float.

    The library also rejects an overflowing square but keeps eps^2 == 0 as the
    noise-free limit; no command can use that limit (rate fits take log 0, and
    the selected bandwidth runs to D_max).
    """
    eps = _number(raw, key)
    if not eps > 0 or not 0.0 < eps * eps < math.inf:
        raise ValueError(
            f"{key}: noise level {eps!r} must be positive with a finite, non-zero square"
        )
    return eps


_LEVEL = _checked(_number, lambda p: 0.0 < p < 1.0, "lie in (0, 1)")
_POSITIVE = _checked(_integer, lambda n: n >= 1, "be positive")
_CELL = _one_of(ALL_CELLS, "cell")


def _items(raw: str, key: str, read: Reader) -> tuple:
    """The comma-separated items of ``raw``, each read by ``read``."""
    items = tuple(read(item.strip(), key) for item in raw.split(",") if item.strip())
    if not items:
        raise ValueError(f"{key} is empty")
    return items


def _eps_grid(raw: str, key: str) -> tuple[float, ...]:
    grid = _items(raw, key, _noise_level)
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"{key} must be strictly decreasing")
    return grid


def _cells(raw: str, key: str) -> tuple[str, ...]:
    if raw == "all":
        return ALL_CELLS
    cells = _items(raw, key, _CELL)
    for i, cell in enumerate(cells):
        if cell in cells[:i]:
            raise ValueError(f"{key} lists {cell} twice")
    return cells


#: Marks a key that has no default.
_REQUIRED = object()

#: Every config key: its reader and its default.  A noise key's default None
#: leaves the model's constructor default.
_KEYS: dict[str, tuple[Reader, object]] = {
    "operator.kind": (_one_of(OPERATOR_KINDS, "operator kind"), _REQUIRED),
    # required for the ill-posed kinds (checked after the loop)
    "operator.t": (_number, 0.0),
    "operator.scale": (_number, 1.0),
    "smoothness.kind": (_one_of(SMOOTHNESS_KINDS, "smoothness kind"), _REQUIRED),
    "smoothness.s": (_number, _REQUIRED),
    "smoothness.scale": (_number, 1.0),
    "eps": (_noise_level, _REQUIRED),
    "C": (_checked(_number, lambda c: 1.0 <= c < math.inf, "be a finite number >= 1"), 3.0),
    "D_max": (_POSITIVE, DEFAULT_D_MAX),
    "noise.kind": (_one_of(NOISE_KINDS, "noise kind"), None),
    **{f"noise.{name}": (_number, None) for cls in NOISE_KINDS.values() for name in cls.params},
    "rng.seed": (_checked(_integer, lambda n: 0 <= n < 1 << 64, "be an unsigned 64-bit value"), 0),
    "test.alpha": (_LEVEL, 0.1),
    "test.beta": (_LEVEL, 0.1),
    "test.D": (_POSITIVE, None),
    "run.command": (_one_of(COMMANDS, "command"), None),
    "run.eps_grid": (_eps_grid, ()),
    "run.reps": (_POSITIVE, 10_000),
    "run.output_path": (_text, None),
    "run.cells": (_cells, ALL_CELLS),
}


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
    found: dict[str, tuple[object, int]] = {}
    blocks: list[dict[str, tuple[object, int]]] = []
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        at = f"{source}, line {line_no}"
        if "=" not in line:
            raise ConfigError(f"{at}: expected 'key = value', got {line!r}")
        key, _, raw = (part.strip() for part in line.partition("="))
        if key not in _KEYS:
            raise ConfigError(f"{at}: unknown key {key!r}")
        if not raw:
            raise ConfigError(f"{at}: empty value for {key!r}")
        scope = found
        if key == "noise.kind":
            blocks.append(scope := {})
        elif key.startswith("noise."):
            if not blocks:
                raise ConfigError(f"{at}: {key} appears before any noise.kind")
            scope = blocks[-1]
            kind = scope["noise.kind"][0]
            if key.removeprefix("noise.") not in NOISE_KINDS[kind].params:
                raise ConfigError(f"{at}: {kind} noise takes no {key}")
        if key in scope:
            raise ConfigError(f"{at}: duplicate key {key!r}")
        try:
            scope[key] = (_KEYS[key][0](raw, key), line_no)
        except ValueError as exc:
            raise ConfigError(f"{at}: {exc}") from None

    value = {key: default for key, (_, default) in _KEYS.items()}
    value.update((key, v) for key, (v, _) in found.items())
    line_of = {key: n for key, (_, n) in found.items()}
    missing = [key for key, v in value.items() if v is _REQUIRED]
    # a well-posed spectrum has no exponent, but its block may carry the t
    # that the ill-posed cells of `rates` use
    if value["operator.kind"] != WELL_POSED and "operator.t" not in found:
        missing.append("operator.t")
    if missing:
        raise ConfigError(f"{source}: missing required key {missing[0]!r}")

    def family(maker: Callable, prefix: str, exponent: str):
        keys = (f"{prefix}.{exponent}", f"{prefix}.scale")
        lines = [line_of[key] for key in keys if key in line_of]
        return _family(source, lines, maker, value[f"{prefix}.kind"], *(value[k] for k in keys))

    problem = ProblemSpec(
        operator=family(OperatorFamily, "operator", "t"),
        smoothness=family(SmoothnessFamily, "smoothness", "s"),
        eps=value["eps"],
        fourth_moment_bound=value["C"],
        d_max=value["D_max"],
    )
    test_d = value["test.D"]
    if test_d is not None and test_d > problem.bandwidth_limit:
        raise ConfigError(
            f"{source}, line {line_of['test.D']}: test.D = {test_d} exceeds the bandwidth "
            f"limit {problem.bandwidth_limit}"
        )

    noise: list[NoiseSettings] = []
    for block in blocks:
        kind, _ = block.pop("noise.kind")
        settings = NoiseSettings(
            kind, {key.removeprefix("noise."): v for key, (v, _) in block.items()}
        )
        # built at one coordinate, so that every command reports a parameter
        # the family rejects at its line
        _family(source, [n for _, n in block.values()], settings.build, 1)
        noise.append(settings)

    return ExperimentConfig(
        problem=problem,
        noise=tuple(noise),
        alpha=value["test.alpha"],
        beta=value["test.beta"],
        test_d=test_d,
        eps_grid=value["run.eps_grid"],
        reps=value["run.reps"],
        seed=value["rng.seed"],
        output_path=value["run.output_path"],
        command=value["run.command"],
        cells=value["run.cells"],
    )


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, source=str(path))
