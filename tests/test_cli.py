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

from csvrows import parse_rows


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
    # numpy.random (about 6 MiB) loads at the first draw, not at import.
    @pytest.mark.parametrize("unused", ["scipy", "vccsim.caching", "numpy.random"])
    def test_cli_import_loads_no_scipy(self, unused):
        out = run_python(
            "import sys, vccsim.cli\n"
            f"print(sorted(m for m in sys.modules if (m + '.').startswith({unused!r} + '.')))"
        )
        assert out.strip() == "[]"

    POOL_MODULES = ("concurrent.futures", "multiprocessing")

    # fig8 runs one fading per location, so each block task holds
    # _BLOCK_CELLS locations.  Forked slices need no pool module, so none
    # loads on 1 worker or on 2, where the parent forks one child.
    @pytest.mark.parametrize("workers, blocks", [(1, 1), (2, 2)])
    def test_pool_modules_load_only_for_a_pool(self, tmp_path, workers, blocks):
        if workers > 1 and experiments._usable_cpus() < 2:
            pytest.skip("a fork needs two usable CPUs")
        locations = blocks * experiments._BLOCK_CELLS
        out = run_python(
            "import os, sys\n"
            "from vccsim.cli import parse_config, run\n"
            "forks, fork = [], os.fork\n"
            "os.fork = lambda: forks.append(1) or fork()\n"
            f"run(parse_config(recipe='fig8', locations={locations}, fadings=1, "
            f"workers={workers}, out={str(tmp_path / 'fig8.csv')!r}))\n"
            f"print(sorted(m for m in {self.POOL_MODULES!r} if m in sys.modules), len(forks))"
        )
        assert out.splitlines()[-1] == f"[] {workers - 1}"

    def test_forked_child_leaves_stdio_and_atexit_alone(self, tmp_path):
        # Block-buffered stdout holds "before" when the parent forks; a child
        # that flushed it or ran atexit handlers on its way out would repeat
        # a line.
        out = run_python(
            "import atexit\n"
            "from vccsim import experiments\n"
            "experiments._usable_cpus = lambda: 3\n"
            "atexit.register(print, 'atexit')\n"
            "print('before')\n"
            "print(experiments._parallel_map(abs, [-1, -2, -3], 3))\n"
        )
        assert out.splitlines() == ["before", "[1, 2, 3]", "atexit"]

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
    @pytest.mark.parametrize("recipe, schemes, gain_schemes", [
        ("fig4", {"vcc_bd_mrc", "cacheless_bd_mrc"}, {"vcc_bd_mrc"}),
        # The fixed-Q gain of msv, and the optimized gain of the best-q rows.
        (
            "fig8",
            {"msv", "msv_modified", "msv_modified_opt", "vcc_bd_mrc_opt", "cacheless_bd_mrc_opt"},
            {"msv", "msv_modified_opt", "vcc_bd_mrc_opt"},
        ),
        # Only best-q rows, with optimized gains.
        (
            "fig9",
            {"cacheless_zf_csit_opt", "vcc_zf_csit_opt", "vcc_zf_csit_csir0.01_opt",
             "vcc_zf_csit_csir0.001_opt", "vcc_zf_csit_csir0_opt"},
            {"vcc_zf_csit_opt", "vcc_zf_csit_csir0.01_opt", "vcc_zf_csit_csir0.001_opt",
             "vcc_zf_csit_csir0_opt"},
        ),
    ], ids=["fig4", "fig8", "fig9"])
    def test_smoke_and_summary(self, tmp_path, capsys, recipe, schemes, gain_schemes):
        out = tmp_path / f"{recipe}.csv"
        cfg = parse_config(
            recipe=recipe, seed=1, locations=3, fadings=1, out=str(out)
        )
        assert run(cfg) == 0
        text = out.read_text()
        assert text.splitlines()[0] == f"# recipe={recipe}"
        assert "scheme,ptot_dbm,snr_db,q,mean_rate_nats" in text
        rows = parse_rows(text)
        assert {r["scheme"] for r in rows} == schemes
        # The summary: the row count, then one line per row with a gain, the
        # fixed-Q one where the row has it, else the optimized one.
        with_gain = [
            (r, r["gain"] if r["gain"] is not None else r["gain_optimized"]) for r in rows
        ]
        with_gain = [(r, g) for r, g in with_gain if g is not None]
        expected = [f"{recipe}: wrote {len(rows)} rows to {out}"] + [
            f"  {r['scheme']} @ {r['ptot_dbm']:g} dBm "
            f"(snr {r['snr_db']:.1f} dB, q={r['q']}): "
            f"rate {r['mean_rate_nats']:.4g} nats, gain {g:.4g}"
            for r, g in with_gain
        ]
        assert {r["scheme"] for r, _ in with_gain} == gain_schemes
        # One line per power (9 in each recipe) for each scheme with a gain.
        assert len(expected) == 1 + 9 * len(gain_schemes)
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

    def test_stdout_closed_before_the_summary(self, tmp_path):
        # As under `| head -1`, but with the read end closed before the run
        # writes anything, so that every write to stdout fails.
        out = tmp_path / "x.csv"
        proc = subprocess.Popen(
            [sys.executable, "-m", "vccsim", "--recipe", "fig4", "--locations", "1",
             "--fadings", "1", "--out", str(out)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(),
        )
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert stderr == b""
        rows = parse_rows(out.read_text())
        assert rows and {row["scheme"] for row in rows} == {"vcc_bd_mrc", "cacheless_bd_mrc"}

    def test_list_recipes_flag(self):
        out = run_cli(["--list-recipes"])
        assert out.returncode == 0
        assert out.stdout == list_recipes()

    @pytest.mark.parametrize("recipe", sorted(RECIPES))
    def test_every_recipe_byte_identical_across_workers(self, monkeypatch, tmp_path, recipe):
        # A recipe pools the locations of all its jobs, mixed schemes and
        # scenarios alike, so the reduction order is checked per recipe.  At
        # 2 fadings a block is one location, so 5 locations cut into slices
        # of 3 + 2 blocks on 2 workers and 2 + 2 + 1 on 3.
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 3)
        outs = []
        for workers in (1, 2, 3):
            path = tmp_path / f"w{workers}.csv"
            run(parse_config(recipe=recipe, seed=1, locations=5, fadings=2,
                             out=str(path), workers=workers))
            outs.append(path.read_bytes())
        assert outs[1:] == outs[:1] * 2


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
        rows = parse_rows(out.read_text())
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
            raise AssertionError("a block task ran")

        monkeypatch.setattr(experiments, "_block_task", no_sampling)
        code = main(["--recipe", "fig8", "--locations", "20", "--fadings", "1",
                     "--set", "T=400", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "x.csv").exists()

    def test_msv_pilots_beyond_coherence_rejected(self, capsys, tmp_path, monkeypatch):
        # The MSV job's full count, 31 unicast streams, the common one and
        # 5 cached listeners, needs 370 pilot symbols; the cache-aided and
        # cacheless sets at Q = Q' = 1 need 60 and 10.
        def no_sampling(args):
            raise AssertionError("a block task ran")

        monkeypatch.setattr(experiments, "_block_task", no_sampling)
        code = main(["--recipe", "fig8", "--set", "Q=1", "--set", "Qprime=1", "--set", "T=360",
                     "--locations", "1", "--fadings", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "37 antennas" in err
        assert not (tmp_path / "x.csv").exists()

    # At 10 pilot symbols each coherence block T is exactly filled by the
    # pilots of the largest served set of the listed curves, at the listed
    # q: those rows read rate 0 and every other row a positive rate.  fig8
    # fills its cache-aided set at q = 32, which it writes only at its best
    # q, so none of its rows is 0.
    @pytest.mark.parametrize("recipe, coherence, filled", [
        ("fig2", 2400, {f"vcc_{s}_m12": 4 for s in ("bd_mrc", "zf", "zf_lower", "zf_upper")}),
        ("fig3", 960, {"vcc_bd_mrc": 4, "vcc_bd_mrc_asym": 4}),
        ("fig4", 320, {"vcc_bd_mrc": 2, "cacheless_bd_mrc": 8}),
        ("fig5", 1440, {"vcc_bd_mrc": 6}),
        ("fig7", 1920, {"vcc_bd_mrc": 16}),
        ("fig8", 1920, {}),
    ])
    def test_pilots_filling_coherence_give_zero_rate(self, tmp_path, recipe, coherence, filled):
        out = tmp_path / "x.csv"
        done = run_cli(["--recipe", recipe, "--locations", "1", "--fadings", "1",
                        "--set", "Theta=10", "--set", f"T={coherence}", "--out", str(out)])
        assert (done.returncode, done.stderr) == (0, "")
        rows = parse_rows(out.read_text())
        for row in rows:
            assert (row["mean_rate_nats"] == 0.0) == (filled.get(row["scheme"]) == row["q"]), row
        assert sum(row["mean_rate_nats"] == 0.0 for row in rows) >= len(filled)
        if recipe == "fig4":
            # Both sides' rates are 0, so each gain is 0 / 0: an empty cell.
            assert all(row["gain"] is None and row["gain_optimized"] is None for row in rows)

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
            raise AssertionError("a block task ran")

        monkeypatch.setattr(experiments, "_block_task", no_sampling)
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
        # a full cache: coded gain num_states + 1 above the cache states
        ("fig6", "gamma=1", "cache_fraction"),
        ("fig8", "gamma=1", "cache_fraction"),
        ("fig4", "T=0", "coherence_symbols"),
        ("fig4", "Theta=-1", "pilot_symbols"),
    ])
    def test_bad_field_named_before_sampling(
        self, capsys, tmp_path, monkeypatch, recipe, setting, field
    ):
        def no_sampling(args):
            raise AssertionError("a block task ran")

        monkeypatch.setattr(experiments, "_block_task", no_sampling)
        code = main(["--recipe", recipe, "--set", setting, "--locations", "1",
                     "--fadings", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert not (tmp_path / "x.csv").exists()

    # A floating-point fault that no scenario check foresees fails the run
    # with one error line naming the faulty block's locations, and no CSV.
    # 5 locations at one fading make the blocks [0, 1], [2, 3] and [4]: on 1
    # worker every block's kernel divides by zero and the first block
    # fails; on 2 workers only the forked child's kernel does, so the fault
    # of its block [4] reaches the parent through the pipe.
    @pytest.mark.parametrize("workers, child_only, locations", [
        ("1", False, "[0, 1]"), ("2", True, "[4]"),
    ])
    def test_floating_point_fault_fails_the_run(
        self, capsys, tmp_path, monkeypatch, workers, child_only, locations
    ):
        parent = os.getpid()
        couplings = experiments.zf_prefix_couplings

        def dividing_by_zero(h, factor, q_values):
            coupling = couplings(h, factor, q_values)
            if child_only and os.getpid() == parent:
                return coupling
            return coupling / 0.0

        monkeypatch.setattr(experiments, "zf_prefix_couplings", dividing_by_zero)
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 3)
        out = tmp_path / "x.csv"
        code = main(["--recipe", "fig9", "--locations", "5", "--fadings", "1",
                     "--workers", workers, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: floating-point fault in the block of locations {locations}: "
            "divide by zero encountered in divide"
        ]
        assert not out.exists()
