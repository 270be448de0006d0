import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vccsim
from vccsim import experiments
from vccsim.cli import RunConfig, build_parser, main, parse_config, run
from vccsim.errors import InvalidConfigurationError
from vccsim.recipes import RECIPES, list_recipes


class TestParseConfig:
    def test_flags_only(self):
        cfg = parse_config(recipe="fig3", seed=5, locations=3, fadings=2)
        assert cfg == RunConfig("fig3", 5, 3, 2, None, {}, 1)

    def test_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("recipe=fig4\nseed=9\nlocations=7\nL=16\nQ=optimize\n")
        cfg = parse_config(path=str(path))
        assert cfg.recipe == "fig4" and cfg.seed == 9 and cfg.n_locations == 7
        assert cfg.overrides == {"L": 16, "Q": None}

    def test_flags_beat_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("recipe=fig4\nseed=9\n")
        cfg = parse_config(path=str(path), recipe="fig3", seed=1)
        assert cfg.recipe == "fig3" and cfg.seed == 1

    def test_set_overrides(self):
        cfg = parse_config(recipe="fig3", sets=["L=16", "gamma=5/6", "ptot_dbm=40,43"])
        assert cfg.overrides == {"L": 16, "gamma": __import__("fractions").Fraction(5, 6),
                                 "ptot_dbm": (40.0, 43.0)}

    def test_unknown_key_named(self):
        with pytest.raises(InvalidConfigurationError, match="banana_mode"):
            parse_config(recipe="fig3", sets=["banana_mode=1"])

    def test_type_mismatch_named(self):
        with pytest.raises(InvalidConfigurationError, match="'L'"):
            parse_config(recipe="fig3", sets=["L=banana"])

    def test_unknown_recipe(self):
        with pytest.raises(InvalidConfigurationError, match="fig99"):
            parse_config(recipe="fig99")

    def test_missing_recipe(self):
        with pytest.raises(InvalidConfigurationError, match="recipe"):
            parse_config(sets=["L=8"])


class TestListRecipes:
    def test_contains_all_names(self):
        text = list_recipes()
        for name in (f"fig{i}" for i in range(2, 10)):
            assert f"{name}:" in text
        assert set(RECIPES) == {f"fig{i}" for i in range(2, 10)}

    def test_fig4_parameters(self):
        assert "L=32, M=4, Q=2, Q'=8, G=4" in list_recipes()

    def test_fig7_micro(self):
        text = list_recipes()
        assert "fig7: Micro-cell" in text and "L=32, M=2, G=6" in text

    def test_csit_note(self):
        text = list_recipes()
        assert "csit_error_var=0.01" in text

    def test_stable_output(self):
        assert list_recipes() == list_recipes()


def _child_env(**overrides):
    # The child imports the same vccsim as the tests, installed or not.
    src = str(Path(vccsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path, **overrides}
    return {k: v for k, v in env.items() if v is not None}


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "vccsim", *args],
        capture_output=True, text=True, env=_child_env(),
    )


def run_python(code, **env):
    """Run ``code`` in a fresh interpreter; ``None`` unsets a variable."""
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=_child_env(**env),
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


needs_task_list = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task"
)


class TestImport:
    @pytest.mark.parametrize("unused", ["scipy", "vccsim.caching"])
    def test_cli_import_loads_no_scipy(self, unused):
        out = run_python(
            "import sys, vccsim.cli\n"
            f"print(sorted(m for m in sys.modules if (m + '.').startswith({unused!r} + '.')))"
        )
        assert out.strip() == "[]"

    THREADS = (
        "import os, vccsim.cli\n"
        "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])"
    )

    @needs_task_list
    def test_blas_capped_at_one_thread_by_default(self):
        out = run_python(
            self.THREADS, OPENBLAS_NUM_THREADS=None, OMP_NUM_THREADS=None,
            GOTO_NUM_THREADS=None,
        )
        assert out.split() == ["1", "1"]

    @needs_task_list
    def test_user_blas_thread_count_wins(self):
        threads, value = run_python(self.THREADS, OPENBLAS_NUM_THREADS="2").split()
        assert value == "2"
        if len(os.sched_getaffinity(0)) >= 2:
            assert int(threads) == 2


class TestRun:
    def test_smoke_and_summary(self, tmp_path, capsys):
        out = tmp_path / "fig4.csv"
        cfg = parse_config(
            recipe="fig4", seed=1, locations=3, fadings=1, out=str(out)
        )
        assert run(cfg) == 0
        text = out.read_text()
        assert text.splitlines()[0] == "# recipe=fig4"
        assert "scheme,ptot_dbm,snr_db,q,mean_rate_nats" in text
        assert "vcc_bd_mrc," in text and "cacheless_bd_mrc," in text
        # The summary: the row count, then one line per row with a gain.
        rows = list(csv.DictReader(line for line in text.splitlines() if line[0] != "#"))
        expected = [f"fig4: wrote {len(rows)} rows to {out}"] + [
            f"  {r['scheme']} @ {float(r['ptot_dbm']):g} dBm "
            f"(snr {float(r['snr_db']):.1f} dB, q={r['q']}): "
            f"rate {float(r['mean_rate_nats']):.4g} nats, gain {float(r['gain']):.4g}"
            for r in rows if r["gain"]
        ]
        assert len(expected) == 10  # the vcc_bd_mrc rows, one per power
        assert capsys.readouterr().out.splitlines() == expected

    def test_same_seed_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            run(parse_config(recipe="fig4", seed=3, locations=2, fadings=1, out=str(path)))
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_worker_count_byte_identical(self, tmp_path):
        outs = []
        for name, workers in (("w1.csv", 1), ("w8.csv", 8)):
            path = tmp_path / name
            cfg = parse_config(
                recipe="fig4", seed=3, locations=4, fadings=1,
                out=str(path), workers=workers,
            )
            run(cfg)
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_echo_round_trip(self, tmp_path):
        out = tmp_path / "fig4.csv"
        cfg = parse_config(
            recipe="fig4", seed=7, locations=2, fadings=1, out=str(out),
            sets=["L=16", "Q=1", "Qprime=2", "ptot_dbm=40,43"],
        )
        run(cfg)
        # the echoed header alone reproduces the run request
        back = parse_config(path=str(out))
        assert back.recipe == cfg.recipe
        assert back.seed == cfg.seed
        assert back.n_locations == 2 and back.n_fadings == 1
        assert back.overrides == cfg.overrides

    def test_cli_process_exit_codes(self, tmp_path):
        ok = run_cli([
            "--recipe", "fig4", "--locations", "2", "--fadings", "1",
            "--set", "ptot_dbm=40", "--out", str(tmp_path / "x.csv"),
        ])
        assert ok.returncode == 0, ok.stderr
        assert "wrote" in ok.stdout
        bad = run_cli(["--recipe", "fig4", "--set", "L=banana"])
        assert bad.returncode == 2
        assert "L" in bad.stderr

    def test_list_recipes_flag(self):
        out = run_cli(["--list-recipes"])
        assert out.returncode == 0
        assert out.stdout == list_recipes()

    @pytest.mark.parametrize("recipe", sorted(RECIPES))
    def test_every_recipe_byte_identical_across_workers(self, tmp_path, recipe):
        # A recipe pools the locations of all its jobs, mixed schemes and
        # scenarios alike, so the reduction order is checked per recipe.
        outs = []
        for workers in (1, 2):
            path = tmp_path / f"w{workers}.csv"
            run(parse_config(recipe=recipe, seed=1, locations=2, fadings=2,
                             out=str(path), workers=workers))
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]


class TestParser:
    def test_known_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            ["--recipe", "fig7", "--seed", "4", "--workers", "2",
             "--locations", "10", "--fadings", "3", "--set", "L=16",
             "--out", "x.csv"]
        )
        assert args.recipe == "fig7" and args.workers == 2
        assert args.set == ["L=16"]

    def test_main_list(self, capsys):
        assert main(["--list-recipes"]) == 0
        assert "fig2:" in capsys.readouterr().out

    def test_zero_counts_rejected_not_defaulted(self, capsys, tmp_path):
        code = main(["--recipe", "fig9", "--locations", "0", "--fadings", "0",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("recipe, setting", [
        ("fig9", "csit_error_var=2"),
        ("fig9", "csir_error_vars=-0.1"),
        ("fig4", "geometry=foo"),
    ])
    def test_bad_setting_rejected_before_sampling(self, capsys, tmp_path, recipe, setting):
        code = main(["--recipe", recipe, "--set", setting, "--locations", "1",
                     "--fadings", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "x.csv").exists()

    def test_huge_csir_variance_gives_finite_rates(self, capsys, tmp_path):
        # Any finite variance is accepted, so the SINR must stay finite:
        # an overflow would write inf or empty cells (or raise its warning).
        out = tmp_path / "x.csv"
        code = main(["--recipe", "fig9", "--set", "csir_error_vars=1e308", "--locations", "2",
                     "--fadings", "1", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        columns = lines[0].split(",")
        rows = [dict(zip(columns, ln.split(","))) for ln in lines[1:]]
        huge = [r for r in rows if r["scheme"] == "vcc_zf_csit_csir1e+308_opt"]
        assert len(huge) == 9
        for row in huge:
            for col in ("mean_rate_nats", "stderr", "gain_optimized"):
                assert math.isfinite(float(row[col])), (col, row[col])

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_worker_count_below_one_rejected(self, capsys, tmp_path, workers):
        code = main(["--recipe", "fig9", "--workers", workers, "--locations", "1",
                     "--fadings", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "workers" in err
        assert not (tmp_path / "x.csv").exists()

    def test_negative_seed_rejected(self, capsys, tmp_path):
        code = main(["--recipe", "fig4", "--seed", "-1", "--locations", "1",
                     "--fadings", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_pilot_overhead_of_q_sweep_rejected_before_sampling(
        self, capsys, tmp_path, monkeypatch
    ):
        def no_sampling(args):
            raise AssertionError("a location task ran")

        monkeypatch.setattr(experiments, "_location_task", no_sampling)
        code = main(["--recipe", "fig8", "--locations", "20", "--fadings", "1",
                     "--set", "T=400", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("args", [["--config", "nope.cfg"], ["--config", "."]])
    def test_unreadable_config_is_an_error(self, capsys, tmp_path, monkeypatch, args):
        monkeypatch.chdir(tmp_path)
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error: cannot read config file")

    @pytest.mark.parametrize("out", ["no/such/dir/x.csv", "."])
    def test_bad_out_path_rejected_before_sampling(
        self, capsys, tmp_path, monkeypatch, out
    ):
        def no_sampling(args):
            raise AssertionError("a location task ran")

        monkeypatch.setattr(experiments, "_location_task", no_sampling)
        monkeypatch.chdir(tmp_path)
        code = main(["--recipe", "fig9", "--locations", "1", "--fadings", "1",
                     "--out", out])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: output path {out}")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("recipe, setting, field", [
        ("fig4", "Lambda=-4", "num_states"),
        ("fig4", "Lambda=0", "num_states"),
        ("fig4", "users_per_state=0", "users_per_state"),
        ("fig4", "users_per_state=-3", "users_per_state"),
        ("fig9", "noise_power=0", "noise_power"),
        ("fig9", "noise_power=-1", "noise_power"),
        ("fig9", "noise_power=inf", "noise_power"),
        ("fig4", "Qprime=100", "baseline_users"),
        ("fig4", "ptot_dbm=nan", "ptot_dbm"),
        ("fig4", "ptot_dbm=30,nan", "ptot_dbm"),
        ("fig4", "ptot_dbm=inf", "ptot_dbm"),
        ("fig4", "ptot_dbm=-inf", "ptot_dbm"),
        ("fig9", "ptot_dbm=4000", "ptot_dbm"),
        ("fig9", "ptot_dbm=-4000", "ptot_dbm"),
        ("fig8", "L=1", "L"),
        # fig3 and fig4 take their gain at fixed Q and Q'
        ("fig3", "Q=optimize", "Q (users_per_group)"),
        ("fig3", "Qprime=optimize", "Qprime (baseline_users)"),
        ("fig4", "Q=optimize", "Q (users_per_group)"),
        ("fig4", "Qprime=optimize", "Qprime (baseline_users)"),
        # two CSIR variances with one curve label, and CSIR curves fig6 never writes
        ("fig9", "csir_error_vars=0.01,0.01", "csir_error_vars"),
        ("fig9", "csir_error_vars=0.01,1e-2", "csir_error_vars"),
        ("fig6", "csir_error_vars=0.1", "csir_error_vars"),
    ])
    def test_bad_field_named_before_sampling(
        self, capsys, tmp_path, monkeypatch, recipe, setting, field
    ):
        def no_sampling(args):
            raise AssertionError("a location task ran")

        monkeypatch.setattr(experiments, "_location_task", no_sampling)
        code = main(["--recipe", recipe, "--set", setting, "--locations", "1",
                     "--fadings", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert not (tmp_path / "x.csv").exists()
