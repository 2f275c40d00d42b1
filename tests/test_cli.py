"""Tests for config parsing and the batch runner.

Covers:
1. Schema validation with line diagnostics; unknown keys are hard errors
2. Noise blocks, defaults, overrides, command pinning, and the output
   directory `run.output_path`, which --output overrides
3. Each subcommand's outputs: headers, key lines, exit codes
4. Byte-level determinism of the simulate CSV across reruns and threads;
   each replication block drawn once per family for both error types
5. The shipped bounds, calibrate, rates and simulate configs against golden
   outputs
6. A negative control: simulate with a zero threshold must fail; every
   pass gate at its boundary, with hand-made values just inside and just
   past it: simulate's two error-rate gates, the divergence budget and the
   two alignment bounds of lowerbound_check.txt, and calibrate's margin flag
7. Config errors (exit 2, never a traceback) for family parameters the
   spectra cannot use, for dense noise families above their size limit and
   for a guaranteed radius no in-ellipsoid signal attains
8. Config errors before any output for levels with alpha + beta >= 1 in the
   commands that form the lower bound, and for a C that is not finite or
   below 1
9. simulate at C = 1, a bound that overflows at every bandwidth (in bounds
   and rates, and in the bandwidth selection of calibrate and simulate), a
   noise key the block's kind does not take, and a rates cell without a
   usable exponent are config errors; --seed, --reps and
   --threads belong to simulate alone
10. A calibration constant that is not a finite number above K1, the
   removed key test.c_beta_mode, a lower bound that underflows to 0 and a
   grid a rate law cannot be fitted on are config errors before any output;
   noise parameters are checked at load, and a long-range amplitude below
   1e-3 loads and simulates
11. Every command computes all its outputs before any is written: a failure
   injected after a table is built, or a check inside a command, leaves no
   output directory, a failed write is a config error, and an adversarial
   loading too close to 1 for the divergence chain, in any adversarial
   block, is a config error before any estimate runs
12. `main` is the one error boundary: a ValueError from any layer of any
   command is a config error named after the command, a ConfigError keeps
   its message, and any other exception escapes; an infinite threshold is
   one such refusal; a list with an empty item is refused at its line
13. One report per run: stdout is one line naming the command, its summary,
   its first file and its verdict, and the last line of `<command>.log` is
   that line after a timestamp; the negative control's report says FAILED
"""

import math
import os
import re
from pathlib import Path

import pytest

from seqdetect import bounds as bounds_mod
from seqdetect import cli, detector, montecarlo, noise
from seqdetect import config as config_mod
from seqdetect.config import ALL_CELLS, ConfigError, parse_config
from seqdetect.sequences import OperatorFamily, SmoothnessFamily, bias_term, sum_inv_b_sq

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

    @pytest.mark.parametrize(
        "extra,message",
        [
            ("\neps = 0.5\n", "duplicate key 'eps'"),
            # the same key twice within one noise block
            ("noise.d = 1.5\n", "line 19: duplicate key 'noise.d'"),
        ],
        ids=["top-level", "noise-block"],
    )
    def test_duplicate_key_rejected(self, extra, message):
        text = BASE_CONFIG + extra
        with pytest.raises(ConfigError, match=message):
            parse_config(text)

    def test_noise_field_before_block(self):
        with pytest.raises(ConfigError, match="before any noise.kind"):
            parse_config("noise.d = 0.9\n")

    @pytest.mark.parametrize(
        "kind,own,key",
        [
            ("iid_gaussian", None, "d"),
            ("iid_rademacher", None, "s"),
            ("long_range_gaussian", "s", "d"),
            ("adversarial_equicorrelated", "d", "c"),
        ],
    )
    def test_noise_key_the_kind_does_not_take(self, kind, own, key):
        # a dense kind first sets a parameter of its own, which it keeps
        text = BASE_CONFIG.split("noise.kind")[0] + f"noise.kind = {kind}\n"
        if own is not None:
            text += f"noise.{own} = 0.8\n"
        assert parse_config(text).noise[0].params == ({} if own is None else {own: 0.8})
        line = text.count("\n") + 1
        with pytest.raises(ConfigError, match=f"line {line}: {kind} noise takes no noise.{key}$"):
            parse_config(text + f"noise.{key} = 0.9\n")

    def test_noise_key_not_taken_stops_simulate(self, tmp_path, capsys):
        text = BASE_CONFIG.replace(
            "noise.kind = iid_gaussian", "noise.kind = iid_gaussian\nnoise.d = 0.9\nnoise.s = -5"
        )
        out = tmp_path / "out"
        cfg = write_config(tmp_path, text)
        assert cli.main(["simulate", "--config", str(cfg), "--output", str(out)]) == 2
        assert "line 10: iid_gaussian noise takes no noise.d" in capsys.readouterr().err
        assert not out.exists()

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

    def test_index_mode_is_an_unknown_key(self):
        # D_max is the one bandwidth cap
        with pytest.raises(ConfigError, match="line 19: unknown key 'index_mode'"):
            parse_config(BASE_CONFIG + "index_mode = 32\n")

    def test_cell_listed_twice_rejected(self):
        cell = "well_posed/ordinary_smooth"
        with pytest.raises(ConfigError, match=f"line 19: run.cells lists {cell} twice"):
            parse_config(BASE_CONFIG + f"run.cells = {cell}, {cell}\n")

    def test_empty_cell_list_rejected(self):
        # no cell to check would let rates pass without checking anything
        with pytest.raises(ConfigError, match="line 19: run.cells is empty"):
            parse_config(BASE_CONFIG + "run.cells = ,\n")

    @pytest.mark.parametrize(
        "line",
        [
            "run.eps_grid = 0.1,,0.05",
            "run.eps_grid = 0.1, 0.05,",
            "run.cells = well_posed/ordinary_smooth, ,well_posed/super_smooth",
        ],
        ids=["gap", "trailing-comma", "cells"],
    )
    def test_list_with_an_empty_item_rejected(self, line):
        # an empty item used to be dropped, so a typo ran a shorter list
        text = re.sub(r"run\.eps_grid = .*", line, BASE_CONFIG)
        key = line.partition(" =")[0]
        with pytest.raises(ConfigError, match=f"line 18: {re.escape(key)} has an empty item"):
            parse_config(text)

    def test_bad_cell_listed(self):
        with pytest.raises(ConfigError, match="unknown cell"):
            parse_config(BASE_CONFIG + "run.cells = well_posed/fancy\n")

    def test_ill_posed_requires_exponent(self):
        bad = BASE_CONFIG.replace("operator.kind = well_posed", "operator.kind = mildly_ill_posed")
        with pytest.raises(ConfigError, match="operator.t"):
            parse_config(bad)

    @pytest.mark.parametrize("kind", noise.NOISE_KINDS)
    def test_noise_defaults_to_the_family_constant(self, kind):
        # a config block never sets the claimed constant: each model keeps
        # its class's own
        config = parse_config(BASE_CONFIG.split("noise.kind")[0] + f"noise.kind = {kind}\n")
        (settings,) = config.noise
        model = settings.build(4)
        assert model.kind == kind
        assert model.claimed_fourth_moment == noise.NOISE_KINDS[kind].claimed_fourth_moment

    def test_schema_docstring_names_every_key(self):
        # the schema docstring is the one prose copy of the key table
        for key in config_mod._KEYS:
            assert re.search(rf"^  {re.escape(key)} ", config_mod.__doc__, re.M), key

    def test_well_posed_block_carries_t_for_the_ill_posed_cells(self):
        text = BASE_CONFIG.replace(
            "operator.kind = well_posed", "operator.kind = well_posed\noperator.t = 0.5"
        )
        problem = parse_config(text).problem
        assert problem.operator == OperatorFamily("well_posed", 0.5)
        assert cli._cell_families("mildly_ill_posed/super_smooth", problem) == (
            OperatorFamily("mildly_ill_posed", 0.5),
            SmoothnessFamily("super_smooth", 1.0),
        )


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

    @pytest.mark.parametrize(
        "alpha, margin, flag", [("1e-9", "0.1069", "false"), ("1e-10", "0.0616", "true")]
    )
    def test_margin_flag_on_each_side_of_the_level(self, tmp_path, alpha, margin, flag):
        # at C = 3 and beta = 0.1 the exact margin 1 - K1/c_beta crosses
        # cli.MARGIN_FLAG_LEVEL = 0.1 between these two alphas
        text = BASE_CONFIG.replace("test.alpha = 0.1", f"test.alpha = {alpha}")
        cfg = write_config(tmp_path, text)
        assert cli.main(["calibrate", "--config", str(cfg), "--output", str(tmp_path)]) == 0
        out = (tmp_path / "calibrate.txt").read_text()
        value = float(re.search(r"^margin_exact = (\S+)$", out, re.M).group(1))
        assert round(value, 4) == float(margin)
        assert f"\nmargin_exact_flag = {flag}\n" in out


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


def _lower_bound_reference(config, loading) -> str:
    """lowerbound_check.txt computed D by D, each D with its own
    `adversarial_sigma(D, loading)`."""
    problem = config.problem
    budget = bounds_mod.c_alpha_beta(config.alpha, config.beta)
    coeff = bounds_mod.lower_coefficient(config.alpha, config.beta)
    lines = [f"divergence_budget = {budget:.17g}"]
    for d in range(1, 17):
        if d > problem.bandwidth_limit:
            break
        sigma = noise.adversarial_sigma(d, loading)
        s_w = sum_inv_b_sq(problem, d)
        if math.isinf(s_w):
            break
        r_sq = min(coeff * problem.eps**2 * s_w, bias_term(problem, d))
        value = montecarlo.chi_sq_divergence(problem, d, math.sqrt(r_sq), sigma)
        _, _, rho_sq, v_sigma_v = montecarlo.direction_stats(problem, d, sigma)
        holds = value <= budget + 1e-10 and v_sigma_v <= d and rho_sq >= 0.25 * d * s_w
        lines.append(f"D={d} divergence = {value:.17g} pass = {'true' if holds else 'false'}")
    return "\n".join(lines) + "\n"


class TestLowerBoundCheckExact:
    """simulate's lowerbound_check.txt equals, character for character, the
    chain computed with a fresh matrix per D (the golden comparison allows
    a relative 1e-12)."""

    @pytest.mark.parametrize(
        "loading, extra",
        [(1.0 / math.sqrt(2.0), ""), (0.8, ""), (0.95, ""), (0.8, "D_max = 5\n")],
    )
    def test_matches_the_per_d_chain(self, tmp_path, loading, extra):
        text = BASE_CONFIG.replace("noise.d = 0.7071067811865476", f"noise.d = {loading!r}")
        cfg = write_config(tmp_path, text + extra)
        cli.main(["simulate", "--config", str(cfg), "--output", str(tmp_path)])
        got = (tmp_path / "lowerbound_check.txt").read_text()
        config = parse_config(text + extra)
        assert got == _lower_bound_reference(config, loading)
        assert got.count("\nD=") == min(16, config.problem.bandwidth_limit)


class TestSimulateGates:
    """Each simulate row passes when p_hat <= level + 3 SE for both error
    types, and the command exits 1 when a row fails.  The estimates are
    hand-made, with SE 0.01, so each sits just inside or just past its gate
    at 0.1 + 3 * 0.01 = 0.13."""

    @pytest.mark.parametrize(
        "p1, p2, verdict, code",
        [
            (0.1299, 0.05, "true", 0),
            (0.1301, 0.05, "false", 1),
            (0.05, 0.1299, "true", 0),
            (0.05, 0.1301, "false", 1),
        ],
    )
    def test_row_verdict_at_each_gate(self, tmp_path, monkeypatch, p1, p2, verdict, code):
        def estimate_type2(spec, config, model, theta, reps, seed, threads=1):
            type1 = montecarlo.McEstimate(p1, reps, 0.01, seed, 0.0)
            return montecarlo.McEstimate(p2, reps, 0.01, seed, 0.0, type1)

        monkeypatch.setattr(montecarlo, "estimate_type2", estimate_type2)
        cfg = write_config(tmp_path)
        assert cli.main(["simulate", "--config", str(cfg), "--output", str(tmp_path)]) == code
        rows = (tmp_path / "simulate.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        assert all(row.split(",")[-1] == verdict for row in rows)


class TestLowerBoundCheckGates:
    """Each D line of lowerbound_check.txt passes when the divergence is
    within the budget 1 + 4 (1 - alpha - beta)^2 (plus 1e-10), v' Sigma v <= D
    and rho^2 >= D sum b^-2 / 4; a line that fails makes simulate exit 1."""

    def _run(self, tmp_path) -> tuple[int, list[str]]:
        cfg = write_config(tmp_path)
        code = cli.main(["simulate", "--config", str(cfg), "--output", str(tmp_path)])
        lines = (tmp_path / "lowerbound_check.txt").read_text().splitlines()[1:]
        assert len(lines) == 16 and all(line.startswith("D=") for line in lines)
        return code, [line.rsplit(" = ", 1)[1] for line in lines]

    @pytest.mark.parametrize("excess, verdict, code", [(0.0, "true", 0), (1e-9, "false", 1)])
    def test_divergence_at_the_budget(self, tmp_path, monkeypatch, excess, verdict, code):
        budget = bounds_mod.c_alpha_beta(0.1, 0.1)
        monkeypatch.setattr(montecarlo, "chi_sq_divergence", lambda *args: budget + excess)
        assert self._run(tmp_path) == (code, [verdict] * 16)

    @pytest.mark.parametrize(
        "which, past, verdict, code",
        [
            ("v_sigma_v", False, "true", 0),
            ("v_sigma_v", True, "false", 1),
            ("rho_sq", False, "true", 0),
            ("rho_sq", True, "false", 1),
        ],
    )
    def test_alignment_at_its_bound(self, tmp_path, monkeypatch, which, past, verdict, code):
        # v' Sigma v set to D, or rho^2 to D sum b^-2 / 4, or one ulp past it
        original = montecarlo.direction_stats

        def direction_stats(spec, d, sigma):
            v, u, rho_sq, v_sigma_v = original(spec, d, sigma)
            if which == "v_sigma_v":
                bound = float(d)
                return v, u, rho_sq, math.nextafter(bound, math.inf) if past else bound
            bound = 0.25 * d * sum_inv_b_sq(spec, d)
            return v, u, math.nextafter(bound, -math.inf) if past else bound, v_sigma_v

        monkeypatch.setattr(montecarlo, "chi_sq_divergence", lambda *args: 1.0)
        monkeypatch.setattr(montecarlo, "direction_stats", direction_stats)
        assert self._run(tmp_path) == (code, [verdict] * 16)


class TestSimulateDrawsOnce:
    def test_each_block_is_drawn_once_per_family(self, tmp_path, monkeypatch):
        # type I and type II of a row are counted on the same draws
        draws = []

        def counting(sample_block):
            def wrapper(self, n, d, rng):
                draws.append((self.kind, n))
                return sample_block(self, n, d, rng)

            return wrapper

        for cls in (noise.IidGaussian, noise.AdversarialEquicorrelated):
            monkeypatch.setattr(cls, "sample_block", counting(cls.sample_block))
        cfg = write_config(tmp_path)
        reps = 20_000
        argv = ["simulate", "--config", str(cfg), "--output", str(tmp_path), "--reps", str(reps)]
        assert cli.main(argv) == 0
        row = (tmp_path / "simulate.csv").read_text().splitlines()[1].split(",")
        rows = max(1, montecarlo._MC_BLOCK_ELEMENTS // int(row[4]))
        blocks = -(-reps // rows)
        assert blocks >= 2
        for kind in ("iid_gaussian", "adversarial_equicorrelated"):
            sizes = [n for k, n in draws if k == kind]
            assert len(sizes) == blocks and sum(sizes) == reps, kind


class TestSimulateCapacity:
    def test_radius_beyond_the_ellipsoid_is_a_config_error(self, tmp_path, capsys):
        # at eps = 0.5 and D = 16 the guaranteed radius^2 (about 3285) exceeds
        # every in-ellipsoid spike (a_1^-2 = 1)
        text = BASE_CONFIG.replace("eps = 0.01", "eps = 0.5") + "test.D = 16\n"
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "D = 16" in err and "ellipsoid capacity" in err
        assert not (out / "simulate.csv").exists()


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

    def test_ill_posed_cell_needs_a_problem_exponent(self, tmp_path, capsys):
        # a well-posed block without operator.t has no exponent for the
        # ill-posed cells: a config error naming the cell, before any CSV
        text = BASE_CONFIG + (
            "run.cells = well_posed/ordinary_smooth, severely_ill_posed/ordinary_smooth\n"
        )
        cfg = write_config(tmp_path, text)
        assert cli.main(["rates", "--config", str(cfg), "--output", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "cell 'severely_ill_posed/ordinary_smooth'" in err
        assert "requires a positive exponent" in err
        assert not list(tmp_path.glob("rates_*"))


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
    """A family parameter the spectra or a noise family cannot use is a
    config error (exit 2) at the line that sets it, never a traceback, for
    every command."""

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
            (
                "calibrate",
                "noise.kind = iid_gaussian",
                "noise.kind = long_range_gaussian\nnoise.s = -5",
                "line 10",
                "decay exponent must be positive",
            ),
            (
                "bounds",
                "noise.kind = iid_gaussian",
                "noise.kind = long_range_gaussian\nnoise.s = -5",
                "line 10",
                "decay exponent must be positive",
            ),
            ("rates", "noise.d = 0.7071067811865476", "noise.d = nan", "line 11", "factor loadings"),
            # an infinite exponent collapses its law: a_k = inf or b_k = 0
            # past k = 1, or the identity for long-range noise
            *(
                (command, "smoothness.s = 1.0", "smoothness.s = inf", "line 5", "positive exponent")
                for command in ("bounds", "calibrate", "simulate")
            ),
            *(
                (
                    command,
                    "operator.kind = well_posed",
                    "operator.kind = mildly_ill_posed\noperator.t = inf",
                    "line 4",
                    "positive exponent",
                )
                for command in ("bounds", "calibrate")
            ),
            *(
                (
                    command,
                    "noise.kind = iid_gaussian",
                    "noise.kind = long_range_gaussian\nnoise.s = inf",
                    "line 10",
                    "decay exponent must be positive",
                )
                for command in ("bounds", "calibrate", "simulate", "rates")
            ),
        ],
        ids=[
            "smoothness-s-zero",
            "operator-t-negative",
            "scale-negative",
            "scale-square-underflows",
            "scale-square-overflows",
            "smoothness-scale-square-overflows",
            "noise-s-negative-calibrate",
            "noise-s-negative-bounds",
            "noise-d-nan",
            *(f"smoothness-s-inf-{c}" for c in ("bounds", "calibrate", "simulate")),
            *(f"operator-t-inf-{c}" for c in ("bounds", "calibrate")),
            *(f"noise-s-inf-{c}" for c in ("bounds", "calibrate", "simulate", "rates")),
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
    """The long-range family above `noise.MAX_DENSE_DIMENSION` is a config
    error of simulate that names the family, D and the limit; the adversarial
    family samples without a D x D matrix and runs there."""

    @pytest.mark.parametrize("kind", ["long_range_gaussian"])
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
        assert not out.exists()

    def test_simulate_runs_adversarial_above_the_limit(self, tmp_path, monkeypatch):
        # the divergence check builds at most the 16 x 16 matrix it reads
        monkeypatch.setattr(noise, "MAX_DENSE_DIMENSION", 16)
        # at eps = 0.001 the guaranteed alternative at D = 17 fits the ellipsoid
        text = BASE_CONFIG.replace("eps = 0.01", "eps = 0.001")
        cfg = write_config(tmp_path, text + "test.D = 17\n")
        assert cli.main(["simulate", "--config", str(cfg), "--output", str(tmp_path)]) == 0
        rows = (tmp_path / "lowerbound_check.txt").read_text().splitlines()
        assert [line.split()[0] for line in rows if line.startswith("D=")] == [
            f"D={d}" for d in range(1, 17)
        ]
        assert ",17," in (tmp_path / "simulate.csv").read_text()

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


class TestLongRangeAmplitude:
    """Every long-range amplitude in (0, 1] is usable: one below 1e-3, which
    the matrix search used to refuse at every dimension, loads and simulates."""

    TEXT = (REPO / "configs" / "simulate.cfg").read_text().replace("noise.c = 0.5", "noise.c = 0.0005")

    def test_small_amplitude_loads(self):
        block = next(b for b in parse_config(self.TEXT).noise if b.kind == "long_range_gaussian")
        assert block.params == {"s": 1.0, "c": 0.0005}

    def test_simulate_passes_at_a_small_amplitude(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.TEXT)
        argv = ["simulate", "--config", str(cfg), "--output", str(tmp_path / "out"), "--reps", "2000"]
        assert cli.main(argv) == 0, capsys.readouterr()


class TestCommandPinning:
    def test_pinned_command_mismatch(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG + "run.command = bounds\n")
        assert cli.main(["simulate", "--config", str(cfg), "--output", str(tmp_path)]) == 2

    def test_pinned_command_match(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG + "run.command = calibrate\n")
        assert cli.main(["calibrate", "--config", str(cfg), "--output", str(tmp_path)]) == 0


class TestOutputPath:
    """`run.output_path` is where a command writes without --output; --output
    overrides it, and a relative path resolves against the working
    directory, not the config file's."""

    def test_written_there_without_output_flag(self, tmp_path):
        out = tmp_path / "from_config"
        cfg = write_config(tmp_path, BASE_CONFIG + f"run.output_path = {out}\n")
        assert cli.main(["calibrate", "--config", str(cfg)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["calibrate.log", "calibrate.txt"]

    def test_output_flag_overrides(self, tmp_path):
        out, flag = tmp_path / "from_config", tmp_path / "from_flag"
        cfg = write_config(tmp_path, BASE_CONFIG + f"run.output_path = {out}\n")
        assert cli.main(["calibrate", "--config", str(cfg), "--output", str(flag)]) == 0
        assert (flag / "calibrate.txt").is_file()
        assert not out.exists()

    def test_relative_path_resolves_against_working_directory(self, tmp_path, monkeypatch):
        config_dir, work = tmp_path / "configs", tmp_path / "work"
        config_dir.mkdir()
        work.mkdir()
        cfg = write_config(config_dir, BASE_CONFIG + "run.output_path = out/run1\n")
        monkeypatch.chdir(work)
        assert cli.main(["calibrate", "--config", str(cfg)]) == 0
        assert (work / "out" / "run1" / "calibrate.txt").is_file()
        assert not (config_dir / "out").exists()


#: Output fields compared exactly; every other value is a float compared at
#: a relative tolerance that absorbs libm and SIMD differences between
#: platforms.  The simulate columns are strings or follow from integer
#: rejection counts (p_hat = count / reps, se = sqrt(p (1 - p) / reps)), so
#: they compare exactly.
EXACT_FIELDS = {
    "D_lower", "D_upper", "D_selected", "D_truncated", "pass", "cell",
    "scenario", "noise_kind", "D", "reps", "seed",
    "p_hat_type1", "se1", "p_hat_type2", "se2",
}
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
        got_pairs, want_pairs = _line_fields(got_line), _line_fields(want_line)
        assert [n for n, _ in got_pairs] == [n for n, _ in want_pairs], f"{path.name}: {got_line}"
        for (name, g), (_, w) in zip(got_pairs, want_pairs):
            assert _same_field(name, g, w), f"{path.name}: {name} {g} != {w}"


def _line_fields(line: str) -> list[tuple[str, str]]:
    """The (name, value) pairs of a ``name = value`` line.  A line may hold
    several pairs, each value one word (``D=3 divergence = 1.6 pass = true``);
    a line with one pair keeps everything after its ``=`` as the value."""
    parts = line.split(" = ")
    names, values = [parts[0]], []
    for middle in parts[1:-1]:
        value, _, name = middle.partition(" ")
        values.append(value)
        names.append(name)
    values.append(parts[-1])
    return list(zip(names, values))


class TestGoldenOutputs:
    """The shipped configs reproduce the outputs recorded in tests/golden/."""

    @pytest.mark.parametrize("command", ["bounds", "calibrate", "rates", "simulate"])
    def test_shipped_config(self, tmp_path, command):
        cfg = REPO / "configs" / f"{command}.cfg"
        assert cli.main([command, "--config", str(cfg), "--output", str(tmp_path)]) == 0
        expected = sorted(p.name for p in (GOLDEN / command).iterdir())
        produced = sorted(p.name for p in tmp_path.iterdir() if p.suffix != ".log")
        assert produced == expected
        for name in expected:
            _assert_matches_golden(tmp_path / name, GOLDEN / command / name)


class TestNegativeControl:
    def test_zero_threshold_fails_simulate(self, tmp_path, capsys, monkeypatch):
        # a threshold of 0 rejects about half of all null draws, far above
        # alpha = 0.1, so the type I check must fail, the run exit 1 and its
        # report line, printed and logged, say FAILED
        monkeypatch.setattr(detector, "threshold", lambda *args, **kwargs: 0.0)
        cfg = REPO / "configs" / "simulate.cfg"
        argv = ["simulate", "--config", str(cfg), "--output", str(tmp_path), "--reps", "1000"]
        assert cli.main(argv) == 1
        rows = (tmp_path / "simulate.csv").read_text().splitlines()[1:]
        assert any(row.endswith(",false") for row in rows)
        report = f"simulate: 5 rows -> {tmp_path / 'simulate.csv'} (FAILED)"
        assert capsys.readouterr().out == report + "\n"
        assert (tmp_path / "simulate.log").read_text().endswith(f" {report}\n")


class TestRunReport:
    """Each run prints one report line, ``<command>: <summary> -> <file>
    (ok|FAILED)``, naming its first file, and appends the same line after a
    timestamp to ``<command>.log``."""

    @pytest.mark.parametrize(
        "command, summary, name",
        [
            ("bounds", "8 rows", "bounds.csv"),
            ("calibrate", "D = 5", "calibrate.txt"),
            ("simulate", "5 rows", "simulate.csv"),
            ("rates", "6 cells", "rates_summary.txt"),
        ],
    )
    def test_shipped_config(self, tmp_path, capsys, command, summary, name):
        cfg = REPO / "configs" / f"{command}.cfg"
        assert cli.main([command, "--config", str(cfg), "--output", str(tmp_path)]) == 0
        report = f"{command}: {summary} -> {tmp_path / name} (ok)"
        assert capsys.readouterr().out == report + "\n"
        last = (tmp_path / f"{command}.log").read_text().splitlines()[-1]
        assert re.fullmatch(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2} " + re.escape(report), last)



class TestBoundOverflow:
    """A bound that overflows at every bandwidth has no minimiser (its scan
    reports D = 0): a config error (exit 2) before that CSV is written."""

    def test_bounds(self, tmp_path, capsys):
        # 1/scale^2 = 1e308 is finite, but c eps^2 sum b^-2 overflows at D = 1
        text = BASE_CONFIG.replace(
            "operator.kind = well_posed", "operator.kind = well_posed\noperator.scale = 1e-154"
        )
        cfg = write_config(tmp_path, text)
        assert cli.main(["bounds", "--config", str(cfg), "--output", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "bounds: at eps = 0.0625 the upper bound overflows at every bandwidth" in err
        assert not (tmp_path / "bounds.csv").exists()

    def test_rates(self, tmp_path, capsys):
        text = BASE_CONFIG.replace(
            "0.0625, 0.03125, 0.015625, 0.0078125, 0.00390625, 0.001953125",
            "1e153, 1e152, 1e151, 1e150, 1e149",
        )
        text += "run.cells = well_posed/ordinary_smooth\n"
        cfg = write_config(tmp_path, text)
        assert cli.main(["rates", "--config", str(cfg), "--output", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "cell 'well_posed/ordinary_smooth': at eps = 1e+153 the upper bound" in err
        assert not list(tmp_path.glob("rates_*"))

    @pytest.mark.parametrize("command", ["calibrate", "simulate"])
    def test_selected_bandwidth(self, tmp_path, capsys, command):
        # the selection minimises the upper bound's objective, so there is
        # no bandwidth to calibrate or simulate at
        text = BASE_CONFIG.replace(
            "operator.kind = well_posed", "operator.kind = well_posed\noperator.scale = 1e-154"
        ).replace("eps = 0.01", "eps = 1")
        out = tmp_path / "out"
        cfg = write_config(tmp_path, text)
        assert cli.main([command, "--config", str(cfg), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{command}: at eps = 1 the upper bound overflows at every bandwidth" in err
        assert not out.exists()


class TestUnusableCalibrationOrFit:
    """A calibration constant that is not a finite number above K1, a config
    that still picks a calibration mode (there is one constant), a lower
    bound that underflows to 0 and a grid a rate law cannot be fitted on are
    config errors (exit 2) before any output, never a traceback."""

    @pytest.mark.parametrize(
        "command,edits,message",
        [
            (
                "simulate",
                [("test.alpha = 0.1", "test.alpha = 1e-300")],
                "simulate: the calibration constant c_beta = 2e+150 is not a finite number "
                "above K1 = 2e+150",
            ),
            (
                "bounds",
                [("C = 3.0", "C = 1e300"), ("test.alpha = 0.1", "test.alpha = 1e-300")],
                "bounds: the calibration constant c_beta = nan is not a finite number "
                "above K1 = inf",
            ),
            (
                "calibrate",
                [("C = 3.0", "C = 1e300"), ("test.alpha = 0.04", "test.alpha = 1e-300")],
                "calibrate: the calibration constant c_beta = nan",
            ),
            (
                "bounds",
                [("test.alpha = 0.1", "test.alpha = 0.1\ntest.c_beta_mode = exact")],
                "line 12: unknown key 'test.c_beta_mode'",
            ),
            (
                "rates",
                [("smoothness.s = 0.75", "smoothness.s = 1e300")],
                "cell 'well_posed/super_smooth': at eps = 0.0625 the lower bound underflows to 0",
            ),
            (
                "bounds",
                [("ordinary_smooth\nsmoothness.s = 1.0", "super_smooth\nsmoothness.s = 1e300")],
                "bounds: at eps = 0.0625 the lower bound underflows to 0",
            ),
            (
                "rates",
                [("0.0625, 0.03125,", "10, 5, 2, 1.5, 1.25, 0.0625, 0.03125,")],
                "cell 'well_posed/super_smooth': log-log fitting needs eps < 1",
            ),
        ],
        ids=[
            "exact-root-on-K1",
            "K1-overflows-bounds",
            "K1-overflows-calibrate",
            "calibration-mode-is-an-unknown-key",
            "lower-bound-underflows-rates",
            "lower-bound-underflows-bounds",
            "log-log-fit-eps-above-1",
        ],
    )
    def test_shipped_config_edit(self, tmp_path, capsys, command, edits, message):
        text = original = (REPO / "configs" / f"{command}.cfg").read_text()
        for old, new in edits:
            text = text.replace(old, new)
        assert all(new in text for _, new in edits) and text != original
        out = tmp_path / "out"
        cfg = write_config(tmp_path, text)
        assert cli.main([command, "--config", str(cfg), "--output", str(out)]) == 2
        # a parse error names the config file before its line
        err = capsys.readouterr().err.replace(f"{cfg}, ", "")
        assert f"config error: {message}" in err
        assert not out.exists()


class TestSimulateOnlyFlags:
    """--seed, --reps and --threads act on simulate only; the other commands
    do not accept them, and no environment variable sets them."""

    @pytest.mark.parametrize("command", ["bounds", "calibrate", "rates"])
    @pytest.mark.parametrize("flag", ["--seed", "--reps", "--threads"])
    def test_rejected_elsewhere(self, tmp_path, capsys, command, flag):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", str(cfg), "--output", str(out), flag, "2"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--seed", "-1", "--seed: rng.seed must be an unsigned 64-bit value, got -1"),
            ("--seed", str(1 << 64), "--seed: rng.seed must be an unsigned 64-bit value"),
            ("--reps", "0", "--reps: run.reps must be positive, got 0"),
        ],
    )
    def test_values_checked_as_their_keys(self, tmp_path, capsys, flag, value, message):
        # the flags go through the rng.seed and run.reps readers of a config
        # file, so a bad value is a config error before any output
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        argv = ["simulate", "--config", str(cfg), "--output", str(out), flag, value]
        assert cli.main(argv) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_thread_count_must_be_positive(self, tmp_path, capsys, value):
        # the library refuses the count, so the run is a config error of the
        # command, with no output directory
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        argv = ["simulate", "--config", str(cfg), "--output", str(out), "--threads", value]
        assert cli.main(argv) == 2
        assert (
            f"config error: simulate: threads must be an integer of at least 1, got {value}"
            in capsys.readouterr().err
        )
        assert not out.exists()

    def test_thread_default_ignores_the_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEQDETECT_THREADS", "zebra")
        args = cli.build_parser().parse_args(["simulate", "--config", "x.cfg"])
        assert (args.seed, args.reps, args.threads) == (None, None, 1)


class TestSimulateNeedsCAboveOne:
    """At C = 1 the threshold is 0 and the class's only noise (random signs)
    is rejected on every null draw: simulate stops with a config error before
    any output, while the commands that report constants and bounds run."""

    ONE = BASE_CONFIG.replace("C = 3.0", "C = 1")

    def test_simulate_rejected_before_any_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.ONE)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg), "--output", str(out)]) == 2
        assert "simulate needs C > 1" in capsys.readouterr().err
        assert not out.exists()

    def test_bounds_accepts_it(self, tmp_path):
        cfg = write_config(tmp_path, self.ONE)
        assert cli.main(["bounds", "--config", str(cfg), "--output", str(tmp_path)]) == 0


class TestLowerBoundLevels:
    """The lower bound needs alpha + beta < 1: a config error (exit 2) before
    any output of the commands that form it, while calibrate, which forms
    none, still runs."""

    LEVELS = BASE_CONFIG.replace("test.alpha = 0.1", "test.alpha = 0.5").replace(
        "test.beta = 0.1", "test.beta = 0.5"
    )

    @pytest.mark.parametrize("command", ["bounds", "rates", "simulate"])
    def test_rejected_before_any_output(self, tmp_path, capsys, command):
        text = self.LEVELS
        if command == "rates":
            text += "run.cells = well_posed/ordinary_smooth\n"
        out = tmp_path / "out"
        cfg = write_config(tmp_path, text)
        assert cli.main([command, "--config", str(cfg), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        message = "the lower bound requires alpha + beta < 1, got 0.5 + 0.5"
        assert f"config error: {command}: {message}" in err
        assert not out.exists()

    def test_simulate_without_an_adversarial_block_runs(self, tmp_path):
        text = self.LEVELS.replace(
            "noise.kind = adversarial_equicorrelated\nnoise.d = 0.7071067811865476\n", ""
        )
        cfg = write_config(tmp_path, text)
        assert cli.main(["simulate", "--config", str(cfg), "--output", str(tmp_path)]) == 0
        assert not (tmp_path / "lowerbound_check.txt").exists()

    def test_calibrate_accepts_the_levels(self, tmp_path):
        cfg = write_config(tmp_path, self.LEVELS)
        assert cli.main(["calibrate", "--config", str(cfg), "--output", str(tmp_path)]) == 0
        assert "alpha = 0.5" in (tmp_path / "calibrate.txt").read_text()


class TestFourthMomentBound:
    """C must be finite and at least 1: anything else is a config error at
    the line that sets it, for every command."""

    @pytest.mark.parametrize("command", ["bounds", "calibrate", "simulate", "rates"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0.5"])
    def test_rejected_at_load(self, tmp_path, capsys, command, value):
        text = BASE_CONFIG.replace("C = 3.0", f"C = {value}")
        assert text != BASE_CONFIG
        out = tmp_path / "out"
        cfg = write_config(tmp_path, text)
        assert cli.main([command, "--config", str(cfg), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "line 7: C must be a finite number >= 1" in err
        assert not out.exists()

    def test_one_is_valid(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG.replace("C = 3.0", "C = 1"))
        assert cli.main(["calibrate", "--config", str(cfg), "--output", str(tmp_path)]) == 0

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.5])
    def test_problem_spec_rejects_it(self, value):
        from seqdetect.sequences import OperatorFamily, ProblemSpec, SmoothnessFamily

        with pytest.raises(ValueError, match="finite and at least 1"):
            ProblemSpec(
                OperatorFamily("well_posed"),
                SmoothnessFamily("ordinary_smooth", 1.0),
                eps=0.1,
                fourth_moment_bound=value,
            )


class TestNothingWrittenOnFailure:
    """A command computes all its outputs before `main` writes any of them:
    a failure injected once the command has built a table leaves no output
    directory, which `main` creates only after the command has returned."""

    class Injected(Exception):
        pass

    @pytest.mark.parametrize(
        "command, module, name, failing_call",
        [
            # bounds: the fit after the bounds table
            ("bounds", bounds_mod, "fit_rate", 1),
            # calibrate: the threshold ladder after the constants
            ("calibrate", detector, "threshold", 1),
            # rates: the second cell's fit, after the first cell's table
            ("rates", bounds_mod, "fit_rate", 2),
            # simulate: the divergence chain of its adversarial block
            ("simulate", montecarlo, "chi_sq_divergence", 1),
        ],
    )
    def test_shipped_config(self, tmp_path, monkeypatch, command, module, name, failing_call):
        original, calls = getattr(module, name), []

        def failing(*args, **kwargs):
            calls.append(name)
            if len(calls) == failing_call:
                raise self.Injected
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, failing)
        out = tmp_path / "out"
        argv = [command, "--config", str(REPO / "configs" / f"{command}.cfg"), "--output", str(out)]
        with pytest.raises(self.Injected):
            cli.main(argv + (["--reps", "1000"] if command == "simulate" else []))
        assert not out.exists()

    def test_a_check_of_the_command_leaves_no_directory(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, BASE_CONFIG.replace("run.reps = 1000", "run.reps = 10"))
        assert cli.main(["simulate", "--config", str(cfg), "--output", str(out)]) == 2
        assert (
            "config error: simulate: need an integer of at least 1000 replications, got 10"
            in capsys.readouterr().err
        )
        assert not out.exists()

    def test_a_failed_write_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        # the directory exists and the write itself fails, as on a full disk
        def failing(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "write_text", failing)
        cfg = REPO / "configs" / "calibrate.cfg"
        assert cli.main(["calibrate", "--config", str(cfg), "--output", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"config error: output directory {tmp_path} is not writable" in err
        assert "Permission denied" in err


class TestErrorBoundary:
    """`main` is the one error boundary: a ValueError that a command lets out
    of any library call is a config error named after the command (exit 2,
    no output directory), a ConfigError keeps its own message, and any other
    exception, an implementation fault, escapes."""

    @staticmethod
    def run(tmp_path, command):
        out = tmp_path / "out"
        argv = [command, "--config", str(REPO / "configs" / f"{command}.cfg"), "--output", str(out)]
        return cli.main(argv), out

    @pytest.mark.parametrize(
        "command, module, name",
        [
            ("bounds", bounds_mod, "bounds_over_grid"),
            ("rates", bounds_mod, "bounds_over_grid"),
            ("calibrate", detector, "threshold"),
            ("simulate", montecarlo, "estimate_type2"),
        ],
    )
    @pytest.mark.parametrize(
        "error, message",
        [
            (ValueError("injected"), "config error: {command}: injected\n"),
            (ConfigError("injected"), "config error: injected\n"),
        ],
        ids=["value-error", "config-error"],
    )
    def test_refusal_is_a_config_error(
        self, tmp_path, capsys, monkeypatch, command, module, name, error, message
    ):
        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(module, name, failing)
        code, out = self.run(tmp_path, command)
        assert code == 2
        assert capsys.readouterr().err == message.format(command=command)
        assert not out.exists()

    def test_a_fault_escapes(self, tmp_path, monkeypatch):
        def failing(*args, **kwargs):
            raise RuntimeError("injected")

        monkeypatch.setattr(bounds_mod, "bounds_over_grid", failing)
        with pytest.raises(RuntimeError, match="injected"):
            self.run(tmp_path, "bounds")
        assert not (tmp_path / "out").exists()

    def test_an_infinite_threshold_is_a_config_error(self, tmp_path, capsys):
        # on b_k = e^-k the threshold's sum overflows past D = 354
        text = BASE_CONFIG.replace(
            "operator.kind = well_posed", "operator.kind = severely_ill_posed\noperator.t = 1"
        ).replace("eps = 0.01", "eps = 0.001")
        cfg = write_config(tmp_path, text + "test.D = 400\n")
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: simulate: threshold at D = 400 must be finite, got inf" in err
        assert not out.exists()


class TestLoadingNearOne:
    """A loading the config accepts (d < 1) but so close to 1 that the
    divergence chain's covariance, with smallest eigenvalue 1 - d^2, is not
    strictly positive definite is a config error before any estimate runs."""

    def test_simulate_rejected_before_any_estimate(self, tmp_path, capsys, monkeypatch):
        def no_estimate(*args, **kwargs):
            raise AssertionError("an estimate ran")

        monkeypatch.setattr(montecarlo, "estimate_type2", no_estimate)
        text = BASE_CONFIG.replace("noise.d = 0.7071067811865476", "noise.d = 0.99999999999995")
        assert text != BASE_CONFIG
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg), "--output", str(out)]) == 2
        assert "noise.d = 0.99999999999995 is too close to 1" in capsys.readouterr().err
        assert not out.exists()

    def test_every_adversarial_block_is_checked(self, tmp_path, capsys, monkeypatch):
        # the shipped config's adversarial block is usable; a second block
        # with the loading above must stop the run just as a first one does
        def no_estimate(*args, **kwargs):
            raise AssertionError("an estimate ran")

        monkeypatch.setattr(montecarlo, "estimate_type2", no_estimate)
        text = (REPO / "configs" / "simulate.cfg").read_text()
        text += "noise.kind = adversarial_equicorrelated\nnoise.d = 0.99999999999995\n"
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg), "--output", str(out)]) == 2
        assert "noise.d = 0.99999999999995 is too close to 1" in capsys.readouterr().err
        assert not out.exists()

    def test_one_chain_section_per_adversarial_block(self, tmp_path):
        # two usable loadings: each block's chain, headed by its loading
        text = BASE_CONFIG + "noise.kind = adversarial_equicorrelated\nnoise.d = 0.9\n"
        single = tmp_path / "single"
        assert cli.main(["simulate", "--config", str(write_config(tmp_path)),
                         "--output", str(single)]) == 0
        both = tmp_path / "both"
        assert cli.main(["simulate", "--config", str(write_config(tmp_path, text, "two.cfg")),
                         "--output", str(both)]) == 0
        chain = (single / "lowerbound_check.txt").read_text()
        sections = (both / "lowerbound_check.txt").read_text().split("noise.d = ")
        assert sections[0] == ""
        assert sections[1] == "0.70710678118654757\n" + chain
        assert sections[2].startswith("0.90000000000000002\ndivergence_budget = ")
        assert len((both / "simulate.csv").read_text().splitlines()) == 4
