"""A seeded config fuzz: no config makes a command raise.

Each fuzzed config is a shipped one with 1-3 keys set to values drawn from
`FUZZ_VALUES`: boundary numbers (0, negatives, nan, inf, 1e+-300), one-point
and repeated grids, and bad choices.  `cli.main` must return 0, 1 or 2, and
an exit 1 must come with a FAILED status line.

`FUZZ_VALUES` has one list per key of `config._KEYS`, noise parameters
included, so a new key without fuzz values fails a test.  The work stays
small: simulate, the one command that samples noise and builds dense noise
matrices, runs the fewest replications it accepts, and no value lets its
bandwidth exceed `SIMULATE_D_MAX`.
"""

import random
from pathlib import Path

import pytest

from seqdetect import cli, config, noise

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
COMMANDS = ("bounds", "calibrate", "simulate", "rates")
CONFIGS_PER_COMMAND = 100
SIMULATE_D_MAX = "64"

NUMBERS = ["0", "-1", "nan", "inf", "-inf", "1e300", "-1e300", "1e-300"]
LEVELS = [*NUMBERS, "1", "1e-7", "0.5", "0.999"]
GRIDS = [
    "0.1",
    "0.1, 0.1",
    ",",
    "0.1, nan",
    "1e300, 0.1",
    "0.1, 1e-300",
    "1e-150, 1e-151, 1e-152, 1e-153, 1e-154",
    "10, 5, 2, 1.5, 1.25, 0.5",
    "0.5, 0.25, 0.125, 0.0625, 0.03125",
]

FUZZ_VALUES = {
    "operator.kind": ["well_posed", "mildly_ill_posed", "severely_ill_posed", "custom", "x"],
    "operator.t": [*NUMBERS, "0.5", "1e-10"],
    "operator.scale": [*NUMBERS, "1e-154", "1e154"],
    "smoothness.kind": ["ordinary_smooth", "super_smooth", "x"],
    "smoothness.s": [*NUMBERS, "0.25", "1e-10"],
    "smoothness.scale": [*NUMBERS, "1e-154", "1e154"],
    "eps": [*NUMBERS, "1", "1e-150", "1e150"],
    "C": [*NUMBERS, "1", "1.5"],
    "index_mode": ["infinite", "0", "-1", "1", "7", "1e3", "x"],
    "D_max": ["0", "-1", "1", "2", SIMULATE_D_MAX, "1e3", "x"],
    "noise.kind": [*noise.NOISE_KINDS, "x"],
    "noise.s": [*NUMBERS, "0.25"],
    "noise.c": [*NUMBERS, "1", "0.001"],
    "noise.d": [*NUMBERS, "0.7071067811865476", "0.99", "1"],
    "rng.seed": ["0", "-1", str(2**64 - 1), str(2**64), "nan"],
    "test.alpha": LEVELS,
    "test.beta": LEVELS,
    "test.D": ["0", "-1", "1", "17", "65537", "nan", "1e3"],
    "test.c_beta_mode": ["exact", "practical", "x"],
    "run.command": [*COMMANDS, "x"],
    "run.eps_grid": GRIDS,
    "run.reps": ["0", "-1", "1", "1000", "nan", "1e3"],
    "run.output_path": ["-"],
    "run.cells": [
        "all",
        "well_posed/super_smooth",
        "severely_ill_posed/super_smooth, severely_ill_posed/super_smooth",
        "mildly_ill_posed/x",
        ",",
    ],
}

#: Each command's shipped config, with simulate held to the fewest
#: replications it accepts and a small bandwidth limit.
BASE_EDITS = {"simulate": {"run.reps": "1000", "D_max": SIMULATE_D_MAX}}


def test_every_key_has_fuzz_values():
    assert FUZZ_VALUES.keys() == config._KEYS.keys()


def _set(lines: list[str], key: str, value: str) -> list[str]:
    """``lines`` with the first ``key`` line set to ``value``; a key that is
    absent is added at the end, a noise parameter in a block of a kind that
    takes it."""
    for i, line in enumerate(lines):
        if line.partition("=")[0].strip() == key:
            return [*lines[:i], f"{key} = {value}", *lines[i + 1 :]]
    name = key.removeprefix("noise.")
    if name == key or name == "kind":
        return [*lines, f"{key} = {value}"]
    kind = next(k for k, cls in noise.NOISE_KINDS.items() if name in cls.params)
    return [*lines, f"noise.kind = {kind}", f"{key} = {value}"]


# extreme configs make the scans warn that a minimiser sits on the scan limit
@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("command", COMMANDS)
def test_no_config_raises(tmp_path, capsys, command):
    rng = random.Random(f"config fuzz {command}")
    lines = (CONFIGS / f"{command}.cfg").read_text().splitlines()
    for key, value in BASE_EDITS.get(command, {}).items():
        lines = _set(lines, key, value)
    failures = []
    for i in range(CONFIGS_PER_COMMAND):
        fuzzed = lines
        keys = rng.sample(sorted(FUZZ_VALUES), rng.randint(1, 3))
        edits = {key: rng.choice(FUZZ_VALUES[key]) for key in keys}
        for key, value in edits.items():
            fuzzed = _set(fuzzed, key, value)
        path = tmp_path / f"{i}.cfg"
        path.write_text("\n".join(fuzzed) + "\n")
        argv = [command, "--config", str(path), "--output", str(tmp_path / "out")]
        try:
            code = cli.main(argv)
        except Exception as exc:  # every raise is a failure, reported with its edits
            failures.append(f"{edits} raised {exc!r}")
            continue
        out = capsys.readouterr().out
        if code not in (0, 1, 2) or (code == 1 and "FAILED" not in out):
            failures.append(f"{edits} exited {code!r} with {out!r}")
    assert not failures, "\n".join(failures)
