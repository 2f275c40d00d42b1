"""Tests for config parsing and the batch runner.

Covers:
1. Schema validation with line diagnostics; unknown keys are hard errors
2. Noise blocks, defaults, overrides, and command pinning
3. Each subcommand's outputs: headers, key lines, exit codes
4. Byte-level determinism of the simulate CSV across reruns and threads
5. The shipped bounds, calibrate and rates configs against golden outputs
6. A negative control: simulate with a zero threshold must fail
7. Config errors (exit 2, never a traceback) for family parameters the
   spectra cannot use and for dense noise families above their size limit
"""

import math
import os
from pathlib import Path

import pytest

from seqdetect import cli, detector, noise
from seqdetect.config import ALL_CELLS, ConfigError, parse_config

BASE_CONFIG = """
# geometry
operator.kind = well_posed
smoothness.kind = ordinary_smooth
smoothness.s = 1.0
eps = 0.01
C = 3.0

noise.kind = iid_gaussian
noise.kind = adversarial_equicorrelated
noise.d = 0.7071067811865476

rng.seed = 42
test.alpha = 0.1
test.beta = 0.1

run.reps = 1000
run.eps_grid = 0.0625, 0.03125, 0.015625, 0.0078125, 0.00390625, 0.001953125
"""


REPO = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"


def write_config(tmp_path: Path, text: str = BASE_CONFIG, name: str = "exp.cfg") -> Path:
    path = tmp_path / name
    path.write_text(text)
    return path


class TestConfigParsing:
    def test_full_round_trip(self):
        config = parse_config(BASE_CONFIG)
        assert config.problem.eps == 0.01
        assert config.problem.fourth_moment_bound == 3.0
        assert [ns.kind for ns in config.noise] == [
            "iid_gaussian",
            "adversarial_equicorrelated",
        ]
        assert config.seed == 42
        assert config.reps == 1000
        assert len(config.eps_grid) == 6
        assert config.cells == ALL_CELLS

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2: unknown key 'operator.q'"):
            parse_config("operator.kind = well_posed\noperator.q = 3\n")

    def test_duplicate_key_rejected(self):
        text = BASE_CONFIG + "\neps = 0.5\n"
        with pytest.raises(ConfigError, match="duplicate key 'eps'"):
            parse_config(text)

    def test_noise_field_before_block(self):
        with pytest.raises(ConfigError, match="before any noise.kind"):
            parse_config("noise.d = 0.9\n")

    def test_empty_eps_grid_rejected(self):
        bad = BASE_CONFIG.replace(
            "run.eps_grid = 0.0625, 0.03125, 0.015625, 0.0078125, 0.00390625, 0.001953125",
            "run.eps_grid = ,",
        )
        with pytest.raises(ConfigError, match="eps_grid"):
            parse_config(bad)

    def test_increasing_eps_grid_rejected(self):
        bad = BASE_CONFIG.replace("0.0625, 0.03125", "0.03125, 0.0625")
        with pytest.raises(ConfigError, match="strictly decreasing"):
            parse_config(bad)

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="missing required key 'smoothness.s'"):
            parse_config("operator.kind = well_posed\nsmoothness.kind = ordinary_smooth\neps = 0.1\n")

    def test_finite_index_mode(self):
        config = parse_config(BASE_CONFIG + "index_mode = 32\n")
        assert config.problem.n_max == 32
        assert config.problem.bandwidth_limit == 32

    def test_bad_cell_listed(self):
        with pytest.raises(ConfigError, match="unknown cell"):
            parse_config(BASE_CONFIG + "run.cells = well_posed/fancy\n")

    def test_ill_posed_requires_exponent(self):
        bad = BASE_CONFIG.replace("operator.kind = well_posed", "operator.kind = mildly_ill_posed")
        with pytest.raises(ConfigError, match="operator.t"):
            parse_config(bad)


class TestCalibrateCommand:
    def test_constants_and_thresholds(self, tmp_path):
        text = BASE_CONFIG.replace("test.alpha = 0.1", "test.alpha = 0.04")
        cfg = write_config(tmp_path, text)
        assert cli.main(["calibrate", "--config", str(cfg), "--output", str(tmp_path)]) == 0
        out = (tmp_path / "calibrate.txt").read_text()
        assert "K1 = 10\n" in out
        assert "K2 = 40.4346643636149\n" in out
        # practical root 8 K2 / beta at beta = 0.1
        assert "c_beta_practical = 3234.773149089192\n" in out
        assert "margin_exact_flag = false" in out
        assert "threshold.D=1 = " in out

    def test_degenerate_class_row(self, tmp_path):
        text = BASE_CONFIG.replace("C = 3.0", "C = 1.0")
        cfg = write_config(tmp_path, text)
        assert cli.main(["calibrate", "--config", str(cfg), "--output", str(tmp_path)]) == 0
        out = (tmp_path / "calibrate.txt").read_text()
        assert "K1 = 0\n" in out

    def test_margin_flag_raised_for_tiny_alpha(self, tmp_path):
        # tiny alpha inflates K1 until the exact root sits just above it
        text = BASE_CONFIG.replace("test.alpha = 0.1", "test.alpha = 1e-8").replace(
            "test.beta = 0.1", "test.beta = 0.9"
        )
        cfg = write_config(tmp_path, text)
        assert cli.main(["calibrate", "--config", str(cfg), "--output", str(tmp_path)]) == 0
        out = (tmp_path / "calibrate.txt").read_text()
        assert "margin_exact_flag = true" in out
        assert "margin_practical_flag = true" in out


class TestBoundsCommand:
    def test_csv_and_fit(self, tmp_path):
        cfg = write_config(tmp_path)
        code = cli.main(["bounds", "--config", str(cfg), "--output", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "bounds.csv").read_text().splitlines()
        assert lines[0] == "eps,lower_r2,upper_r2,classical_r2,D_lower,D_upper"
        assert len(lines) == 7
        fit = (tmp_path / "bounds_fit.txt").read_text()
        assert "cell = well_posed/ordinary_smooth" in fit
        assert "expected_exponent = 1.3333333333333333" in fit
        assert "pass = true" in fit

    def test_reproducible_bytes(self, tmp_path):
        cfg = write_config(tmp_path)
        cli.main(["bounds", "--config", str(cfg), "--output", str(tmp_path / "a")])
        cli.main(["bounds", "--config", str(cfg), "--output", str(tmp_path / "b")])
        assert (tmp_path / "a" / "bounds.csv").read_bytes() == (
            tmp_path / "b" / "bounds.csv"
        ).read_bytes()

    def test_requires_grid(self, tmp_path):
        text = BASE_CONFIG.replace(
            "run.eps_grid = 0.0625, 0.03125, 0.015625, 0.0078125, 0.00390625, 0.001953125",
            "",
        )
        cfg = write_config(tmp_path, text)
        assert cli.main(["bounds", "--config", str(cfg), "--output", str(tmp_path)]) == 2


class TestSimulateCommand:
    def test_runs_and_passes(self, tmp_path):
        cfg = write_config(tmp_path)
        code = cli.main(["simulate", "--config", str(cfg), "--output", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "simulate.csv").read_text().splitlines()
        assert lines[0] == (
            "scenario,noise_kind,alpha,beta,D,reps,seed,p_hat_type1,se1,p_hat_type2,se2,pass"
        )
        assert len(lines) == 3
        assert all(line.endswith(",true") for line in lines[1:])
        # the adversarial block triggers the analytic lower-bound chain
        assert (tmp_path / "lowerbound_check.txt").exists()

    def test_reps_floor(self, tmp_path):
        cfg = write_config(tmp_path)
        code = cli.main(
            ["simulate", "--config", str(cfg), "--output", str(tmp_path), "--reps", "10"]
        )
        assert code == 2

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path)
        cli.main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "a")])
        cli.main(
            ["simulate", "--config", str(cfg), "--output", str(tmp_path / "b"), "--seed", "7"]
        )
        a = (tmp_path / "a" / "simulate.csv").read_text()
        b = (tmp_path / "b" / "simulate.csv").read_text()
        assert a != b

    def test_byte_identical_across_threads(self, tmp_path):
        cfg = write_config(tmp_path)
        outputs = []
        for threads in (1, 4):
            out = tmp_path / f"t{threads}"
            cli.main(
                [
                    "simulate",
                    "--config",
                    str(cfg),
                    "--output",
                    str(out),
                    "--threads",
                    str(threads),
                ]
            )
            outputs.append((out / "simulate.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_env_thread_fallback(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        monkeypatch.setenv("SEQDETECT_THREADS", "2")
        out = tmp_path / "env"
        assert cli.main(["simulate", "--config", str(cfg), "--output", str(out)]) == 0
        monkeypatch.setenv("SEQDETECT_THREADS", "zebra")
        assert cli.main(["simulate", "--config", str(cfg), "--output", str(out)]) == 2


class TestRatesCommand:
    def test_single_cell(self, tmp_path):
        text = BASE_CONFIG + "run.cells = well_posed/ordinary_smooth\n"
        text = text.replace("test.alpha = 0.1", "test.alpha = 0.25").replace(
            "test.beta = 0.1", "test.beta = 0.25"
        )
        cfg = write_config(tmp_path, text)
        code = cli.main(["rates", "--config", str(cfg), "--output", str(tmp_path)])
        assert code == 0
        summary = (tmp_path / "rates_summary.txt").read_text()
        assert "cell = well_posed/ordinary_smooth" in summary
        assert "pass = true" in summary
        assert (tmp_path / "rates_well_posed-ordinary_smooth.csv").exists()


class TestFixedBandwidthLimit:
    @pytest.mark.parametrize("command", ["calibrate", "simulate"])
    def test_rejected_at_load(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, BASE_CONFIG + "test.D = 100000\n")
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(cfg), "--output", str(out)]) == 2
        assert "test.D = 100000 exceeds the bandwidth limit 65536" in capsys.readouterr().err
        assert not out.exists()


class TestNoiseLevelSquare:
    """eps^2 must be a finite positive float: an overflowing or underflowing
    square is a config error (exit 2), never a traceback."""

    GRID = "run.eps_grid = 0.0625, 0.03125, 0.015625, 0.0078125, 0.00390625, 0.001953125"

    @pytest.mark.parametrize(
        "command,old,new,key",
        [
            ("bounds", GRID, GRID.replace("= 0.0625", "= 1e200, 0.0625"), "run.eps_grid"),
            ("rates", GRID, GRID + ", 1e-200", "run.eps_grid"),
            ("calibrate", "eps = 0.01", "eps = 1e200", "eps"),
            ("simulate", "eps = 0.01", "eps = 1e-200", "eps"),
        ],
        ids=["bounds-overflow", "rates-underflow", "calibrate-overflow", "simulate-underflow"],
    )
    def test_rejected_at_load(self, tmp_path, capsys, command, old, new, key):
        text = BASE_CONFIG.replace(old, new)
        assert text != BASE_CONFIG
        if command == "rates":
            text += "run.cells = well_posed/ordinary_smooth\n"
        out = tmp_path / "out"
        cfg = write_config(tmp_path, text)
        assert cli.main([command, "--config", str(cfg), "--output", str(out)]) == 2
        assert f"{key}: noise level" in capsys.readouterr().err
        assert not out.exists()


class TestFamilyParameters:
    """A family parameter the spectra cannot use is a config error (exit 2)
    at the line that sets it, never a traceback."""

    @pytest.mark.parametrize(
        "command,old,new,line,message",
        [
            ("bounds", "smoothness.s = 1.0", "smoothness.s = 0", "line 5", "positive exponent"),
            (
                "rates",
                "operator.kind = well_posed",
                "operator.kind = mildly_ill_posed\noperator.t = -1",
                "line 4",
                "positive exponent",
            ),
            (
                "calibrate",
                "operator.kind = well_posed",
                "operator.kind = well_posed\noperator.scale = -1",
                "line 4",
                "operator scale",
            ),
            (
                "bounds",
                "operator.kind = well_posed",
                "operator.kind = well_posed\noperator.scale = 1e-200",
                "line 4",
                "operator scale",
            ),
            (
                "bounds",
                "operator.kind = well_posed",
                "operator.kind = severely_ill_posed\noperator.t = 1\noperator.scale = 1e200",
                "lines 4, 5",
                "operator scale",
            ),
            (
                "simulate",
                "smoothness.s = 1.0",
                "smoothness.s = 1.0\nsmoothness.scale = 1e200",
                "lines 5, 6",
                "smoothness scale",
            ),
        ],
        ids=[
            "smoothness-s-zero",
            "operator-t-negative",
            "scale-negative",
            "scale-square-underflows",
            "scale-square-overflows",
            "smoothness-scale-square-overflows",
        ],
    )
    def test_rejected_at_load(self, tmp_path, capsys, command, old, new, line, message):
        text = BASE_CONFIG.replace(old, new)
        assert text != BASE_CONFIG
        if command == "rates":
            text += "run.cells = mildly_ill_posed/ordinary_smooth\n"
        out = tmp_path / "out"
        cfg = write_config(tmp_path, text)
        assert cli.main([command, "--config", str(cfg), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{line}: " in err and message in err
        assert not out.exists()


class TestDenseNoiseLimit:
    """Dense correlated families above `noise.MAX_DENSE_DIMENSION` are a
    config error of simulate that names the family, D and the limit."""

    @pytest.mark.parametrize("kind", ["long_range_gaussian", "adversarial_equicorrelated"])
    def test_simulate_rejects_dimension_above_limit(self, tmp_path, capsys, monkeypatch, kind):
        monkeypatch.setattr(noise, "MAX_DENSE_DIMENSION", 16)
        text = BASE_CONFIG.replace(
            "noise.kind = adversarial_equicorrelated\nnoise.d = 0.7071067811865476",
            f"noise.kind = {kind}",
        )
        out = tmp_path / "out"
        cfg = write_config(tmp_path, text + "test.D = 17\n")
        assert cli.main(["simulate", "--config", str(cfg), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{kind} noise" in err and "D = 17" in err and "limit 16" in err
        assert not (out / "simulate.csv").exists()

    def test_simulate_runs_at_the_limit(self, tmp_path, monkeypatch):
        # 16 also covers the divergence check's adversarial matrices (D <= 16)
        monkeypatch.setattr(noise, "MAX_DENSE_DIMENSION", 16)
        text = BASE_CONFIG.replace(
            "noise.kind = adversarial_equicorrelated",
            "noise.kind = long_range_gaussian\nnoise.kind = adversarial_equicorrelated",
        )
        # at eps = 0.001 the guaranteed alternative at D = 16 fits the ellipsoid
        text = text.replace("eps = 0.01", "eps = 0.001")
        cfg = write_config(tmp_path, text + "test.D = 16\n")
        assert cli.main(["simulate", "--config", str(cfg), "--output", str(tmp_path)]) == 0


class TestCommandPinning:
    def test_pinned_command_mismatch(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG + "run.command = bounds\n")
        assert cli.main(["simulate", "--config", str(cfg), "--output", str(tmp_path)]) == 2

    def test_pinned_command_match(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG + "run.command = calibrate\n")
        assert cli.main(["calibrate", "--config", str(cfg), "--output", str(tmp_path)]) == 0


#: Output fields compared exactly; every other value is a float compared at
#: a relative tolerance that absorbs libm and SIMD differences between
#: platforms.
EXACT_FIELDS = {"D_lower", "D_upper", "D_selected", "D_truncated", "pass", "cell"}
GOLDEN_RTOL = 1e-12


def _same_field(name: str, got: str, want: str) -> bool:
    if name in EXACT_FIELDS or name.endswith("_flag"):
        return got == want
    return math.isclose(float(got), float(want), rel_tol=GOLDEN_RTOL, abs_tol=0.0)


def _assert_matches_golden(path: Path, golden: Path) -> None:
    got, want = path.read_text().splitlines(), golden.read_text().splitlines()
    assert len(got) == len(want), path.name
    if path.suffix == ".csv":
        assert got[0] == want[0], f"{path.name}: header"
        header = want[0].split(",")
        for got_line, want_line in zip(got[1:], want[1:]):
            got_row, want_row = got_line.split(","), want_line.split(",")
            assert len(got_row) == len(header), f"{path.name}: {got_line}"
            for name, g, w in zip(header, got_row, want_row):
                assert _same_field(name, g, w), f"{path.name}: {name} {g} != {w}"
        return
    for got_line, want_line in zip(got, want):
        if " = " not in want_line:
            assert got_line == want_line, path.name
            continue
        name, _, w = want_line.partition(" = ")
        got_name, _, g = got_line.partition(" = ")
        assert got_name == name, f"{path.name}: {got_line}"
        assert _same_field(name, g, w), f"{path.name}: {name} {g} != {w}"


class TestGoldenOutputs:
    """The shipped configs reproduce the outputs recorded in tests/golden/."""

    @pytest.mark.parametrize("command", ["bounds", "calibrate", "rates"])
    def test_shipped_config(self, tmp_path, command):
        cfg = REPO / "configs" / f"{command}.cfg"
        assert cli.main([command, "--config", str(cfg), "--output", str(tmp_path)]) == 0
        expected = sorted(p.name for p in (GOLDEN / command).iterdir())
        produced = sorted(p.name for p in tmp_path.iterdir() if p.suffix != ".log")
        assert produced == expected
        for name in expected:
            _assert_matches_golden(tmp_path / name, GOLDEN / command / name)


class TestNegativeControl:
    def test_zero_threshold_fails_simulate(self, tmp_path, monkeypatch):
        # a threshold of 0 rejects about half of all null draws, far above
        # alpha = 0.1, so the type I check must fail and the run exit 1
        monkeypatch.setattr(detector, "threshold", lambda *args, **kwargs: 0.0)
        cfg = REPO / "configs" / "simulate.cfg"
        argv = ["simulate", "--config", str(cfg), "--output", str(tmp_path), "--reps", "1000"]
        assert cli.main(argv) == 1
        rows = (tmp_path / "simulate.csv").read_text().splitlines()[1:]
        assert any(row.endswith(",false") for row in rows)

