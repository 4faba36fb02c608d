"""Command-line interface tests.

Most of these shell out to ``python -m fresnelpseudo.cli`` so the whole
pipeline (argv handling, exit codes, CSV shape) is exercised the way a
user hits it.  Exit-code wiring for injected failures is tested
in-process where a real failure is awkward to produce on demand.
"""

import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

from fresnelpseudo import cli
from fresnelpseudo.cli import parse_grid, parse_metadata, read_config
from fresnelpseudo.errors import NonConvergent
from fresnelpseudo.sampling import SeededStream, sample_cauchy_mixture
from fresnelpseudo.validation import CheckResult


def run_cli(*argv, env=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "fresnelpseudo.cli", *argv],
        capture_output=True,
        text=True,
        env=full_env,
        timeout=300,
    )


def parse_rows(stdout):
    rows = []
    for line in stdout.splitlines():
        if line.startswith("#") or line.startswith("x,") or line == "value":
            continue
        if not line:
            continue
        rows.append([float(tok) for tok in line.split(",")])
    return rows


class TestEval:
    def test_density_grid_row_count(self):
        res = run_cli(
            "eval", "--fn", "density", "--alpha", "2", "--p", "0.5",
            "--t", "1", "--grid", "-5:5:501",
        )
        assert res.returncode == 0
        rows = parse_rows(res.stdout)
        assert len(rows) == 501
        assert rows[0][0] == -5.0
        assert rows[-1][0] == 5.0

    def test_density_value_at_origin(self):
        res = run_cli(
            "eval", "--fn", "density", "--alpha", "2", "--p", "0.5",
            "--t", "1", "--grid", "-5:5:501",
        )
        at_zero = [v for x, v in parse_rows(res.stdout) if x == 0.0]
        assert len(at_zero) == 1
        # cos(-pi/4) / (2 sqrt(pi))
        assert at_zero[0] == pytest.approx(0.199471140200716338970, abs=1e-12)

    def test_repeat_runs_byte_identical(self):
        args = ("eval", "--fn", "density", "--alpha", "2", "--p", "0.5",
                "--t", "1", "--grid", "-5:5:501")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout

    def test_airy_column_matches_library(self):
        from fresnelpseudo.special import airy_grid

        res = run_cli("eval", "--fn", "airy", "--alpha", "2.5", "--grid", "-2:2:9")
        rows = parse_rows(res.stdout)
        xs = np.array([r[0] for r in rows])
        want = airy_grid(xs, 2.5)
        np.testing.assert_allclose([r[1] for r in rows], want, rtol=0, atol=0)

    def test_header_records_flags(self):
        res = run_cli("eval", "--fn", "mixture", "--alpha", "3", "--p", "0.25",
                      "--t", "2", "--grid", "-1:1:3")
        meta = parse_metadata(res.stdout.splitlines())
        assert meta["command"] == "eval"
        assert meta["fn"] == "mixture"
        assert float(meta["alpha"]) == 3.0
        assert float(meta["p"]) == 0.25
        assert float(meta["t"]) == 2.0
        assert meta["grid"] == "-1:1:3"

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--fn", "density", "--grid", "5:-5:10"),
            ("eval", "--fn", "density", "--grid", "-1:1:1"),
            ("eval", "--fn", "density", "--grid", "banana"),
            ("eval", "--fn", "density", "--grid", "-1:1"),
            ("eval", "--fn", "nope", "--grid", "-1:1:5"),
            ("eval", "--grid", "-1:1:5"),
            ("eval", "--fn", "density"),
            ("eval", "--fn", "density", "--alpha", "0.5", "--grid", "-1:1:5"),
            ("eval", "--fn", "density", "--grid=-inf:1:3"),
            ("eval", "--fn", "density", "--alpha", "2.5", "--tol", "nan", "--grid", "-1:1:3"),
            ("eval", "--fn", "density", "--alpha", "1e308", "--grid", "-1:1:3"),
        ],
    )
    def test_argument_errors_exit_2(self, argv):
        assert run_cli(*argv).returncode == 2

    def test_subordinated_series_near_unit_index(self, capsys):
        # the float64 series pass used to raise ValueError (inf - inf)
        # out of math.fsum here, a traceback and exit 1
        argv = ["eval", "--fn", "subordinated", "--alpha", "3.0933989675739655",
                "--theta", "0.35438126456675634", "--t", "1.6488682713909983",
                "--grid=2.2551783164115364:3:2"]
        assert cli.main(argv) == 0
        rows = parse_rows(capsys.readouterr().out)
        assert len(rows) == 2 and all(np.isfinite(v) for _, v in rows)

    def test_subordinated_falls_back_where_the_series_refuses(self, capsys):
        """At (3, .5, .5) the p = 1/2 series refuses from |x| ~ 15 on;
        the CLI takes those points from the direct integral."""
        from scipy import integrate

        from fresnelpseudo.subordination import SubordinationSpec, subordinated_density_series

        with pytest.raises(NonConvergent):
            subordinated_density_series(16.0, SubordinationSpec(3.0, 0.5, 0.5), 1.0)
        argv = ["eval", "--fn", "subordinated", "--alpha", "3", "--theta", "0.5",
                "--p", "0.5", "--grid=16:16.5:2"]
        assert cli.main(argv) == 0
        x, value = parse_rows(capsys.readouterr().out)[0]
        # cosine-transform inversion of exp(-(i g^3)^(1/2)) at p = 1/2
        c = s = math.sqrt(0.5)
        want, _ = integrate.quad(lambda g: math.exp(-c * g**1.5) * math.cos(s * g**1.5),
                                 0.0, math.inf, weight="cos", wvar=x)
        assert x == 16.0
        assert value == pytest.approx(want / math.pi, abs=1e-9)


class TestValidate:
    def test_weibull_suite_passes(self):
        res = run_cli("validate", "--suite", "weibull")
        assert res.returncode == 0
        lines = [l for l in res.stdout.splitlines() if "error=" in l]
        assert lines, res.stdout
        for line in lines:
            assert "tol=" in line
            assert line.endswith("PASS")

    def test_cf_mc_respects_n_and_seed(self):
        res = run_cli("validate", "--suite", "cf-mc", "--n", "20000", "--seed", "7")
        assert res.returncode == 0
        rerun = run_cli("validate", "--suite", "cf-mc", "--n", "20000", "--seed", "7")
        assert rerun.stdout == res.stdout

    def test_unknown_suite_exits_2(self):
        assert run_cli("validate", "--suite", "nope").returncode == 2

    def test_failing_check_exits_1(self, monkeypatch, capsys):
        monkeypatch.setitem(
            cli.SUITES, "airy", lambda: [CheckResult("forced failure", 1.0, 1e-9)]
        )
        assert cli.main(["validate", "--suite", "airy"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_numerical_error_exits_3(self, monkeypatch):
        def boom(*a, **k):
            raise NonConvergent("forced")

        monkeypatch.setattr(cli, "airy_grid", boom)
        assert cli.main(["eval", "--fn", "airy", "--grid", "-1:1:3"]) == 3

    def test_unexpected_error_exits_3_on_one_line(self, monkeypatch, capsys):
        def boom(*a, **k):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(cli, "airy_grid", boom)
        assert cli.main(["eval", "--fn", "airy", "--grid", "-1:1:3"]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "ZeroDivisionError" in err


class TestSample:
    def test_header_round_trips(self, tmp_path):
        out = tmp_path / "draws.csv"
        res = run_cli(
            "sample", "--mixture", "--alpha", "3", "--theta", "0.5", "--p", "0.3",
            "--t", "0.7", "--n", "11", "--seed", "42", "--stream", "2",
            "--out", str(out),
        )
        assert res.returncode == 0
        lines = out.read_text().splitlines()
        meta = parse_metadata(lines)
        assert meta["command"] == "sample"
        assert meta["mixture"] == "true"
        assert float(meta["alpha"]) == 3.0
        assert float(meta["theta"]) == 0.5
        assert float(meta["p"]) == 0.3
        assert float(meta["t"]) == 0.7
        assert int(meta["n"]) == 11
        assert int(meta["seed"]) == 42
        assert int(meta["stream"]) == 2
        values = [float(l) for l in lines if not l.startswith("#") and l != "value"]
        assert len(values) == 11

    def test_unit_index_routes_through_cauchy_sampler(self):
        res = run_cli(
            "sample", "--mixture", "--alpha", "2", "--theta", "0.5", "--p", "0.5",
            "--n", "6", "--seed", "3",
        )
        assert res.returncode == 0
        got = [
            float(l) for l in res.stdout.splitlines()
            if not l.startswith("#") and l != "value"
        ]
        want = sample_cauchy_mixture(2.0, 0.5, 1.0, 6, SeededStream(3, 0))
        assert got == [float(v) for v in want]

    def test_seed_is_required(self):
        res = run_cli("sample", "--mixture", "--alpha", "2", "--theta", "0.5",
                      "--p", "0.5", "--n", "3")
        assert res.returncode == 2
        assert "seed" in res.stderr

    def test_bad_n_exits_2(self):
        res = run_cli("sample", "--alpha", "2", "--theta", "0.5", "--seed", "1",
                      "--n", "0")
        assert res.returncode == 2

    def test_same_seed_same_draws(self):
        args = ("sample", "--alpha", "3", "--theta", "0.5", "--seed", "5", "--n", "4")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_different_seed_different_draws(self):
        base = ("sample", "--alpha", "3", "--theta", "0.5", "--n", "4")
        one = run_cli(*base, "--seed", "5")
        two = run_cli(*base, "--seed", "6")
        assert one.stdout != two.stdout


class TestConfigAndEnv:
    def test_config_supplies_defaults(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("fn=density\nalpha=2.0\np=0.5\nt=1.0\ngrid=-1:1:3\n")
        via_config = run_cli("eval", "--config", str(conf))
        via_flags = run_cli("eval", "--fn", "density", "--alpha", "2.0", "--p", "0.5",
                            "--t", "1.0", "--grid", "-1:1:3")
        assert via_config.returncode == 0
        assert parse_rows(via_config.stdout) == parse_rows(via_flags.stdout)

    def test_explicit_flag_beats_config(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("fn=density\ngrid=-5:5:501\n")
        res = run_cli("eval", "--config", str(conf), "--grid", "-1:1:3")
        assert len(parse_rows(res.stdout)) == 3

    def test_config_can_supply_seed(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("seed=77\nn=3\nalpha=3.0\ntheta=0.5\n")
        res = run_cli("sample", "--config", str(conf))
        assert res.returncode == 0
        meta = parse_metadata(res.stdout.splitlines())
        assert int(meta["seed"]) == 77

    def test_non_finite_config_value_exits_2(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("fn=density\ngrid=-1:1:3\nt=inf\n")
        assert cli.main(["eval", "--config", str(conf)]) == 2
        assert "--t must be finite" in capsys.readouterr().err

    def test_missing_config_exits_2(self):
        res = run_cli("eval", "--config", "/nonexistent.conf", "--grid", "-1:1:3")
        assert res.returncode == 2

    def test_outdir_env_joins_relative_paths(self, tmp_path):
        res = run_cli(
            "eval", "--fn", "density", "--grid", "-1:1:3", "--out", "sub/run.csv",
            env={"FRESNELPSEUDO_OUTDIR": str(tmp_path)},
        )
        assert res.returncode == 0
        assert (tmp_path / "sub" / "run.csv").exists()

    def test_outdir_env_ignores_absolute_paths(self, tmp_path):
        target = tmp_path / "abs.csv"
        other = tmp_path / "elsewhere"
        res = run_cli(
            "eval", "--fn", "density", "--grid", "-1:1:3", "--out", str(target),
            env={"FRESNELPSEUDO_OUTDIR": str(other)},
        )
        assert res.returncode == 0
        assert target.exists()
        assert not other.exists()


class TestHelpers:
    def test_parse_grid(self):
        np.testing.assert_allclose(parse_grid("-1:1:3"), [-1.0, 0.0, 1.0])

    def test_parse_grid_rejects_two_fields(self):
        with pytest.raises(cli.CliError):
            parse_grid("-1:1")

    def test_read_config_skips_comments(self, tmp_path):
        conf = tmp_path / "c.conf"
        conf.write_text("# comment\n\nalpha=2.5\n  p = 0.25 \n")
        assert read_config(str(conf)) == {"alpha": "2.5", "p": "0.25"}

    def test_read_config_rejects_bare_words(self, tmp_path):
        conf = tmp_path / "c.conf"
        conf.write_text("alpha\n")
        with pytest.raises(cli.CliError):
            read_config(str(conf))

    def test_parse_metadata_stops_at_data(self):
        lines = ["# a=1", "# b=two", "x,value", "# c=3"]
        assert parse_metadata(lines) == {"a": "1", "b": "two"}


@pytest.mark.skipif(shutil.which("fresnelpseudo") is None,
                    reason="console script not on PATH")
def test_console_script_runs():
    res = subprocess.run(
        ["fresnelpseudo", "--version"], capture_output=True, text=True, timeout=60
    )
    assert res.returncode == 0
    assert "fresnelpseudo" in res.stdout
