"""Acceptance suite: one test per release criterion, one status line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the status lines;
figure-level checks run at reduced realization counts with the tolerances
stated inline.
"""

import dataclasses
import time
from fractions import Fraction

import numpy as np
import pytest

from vccsim import experiments
from vccsim.allocation import UserRateFunction, solve_mmf, waterfill
from vccsim.caching import build_placement, build_schedule, verify_delivery
from vccsim.channel import substream
from vccsim.experiments import BD_MRC, BD_MRC_ASYM, Scenario, cache_aided_job, run_vcc_zf
from vccsim.recipes import run_recipe

from csvrows import rendered_rows
from oracles import bd_mrc, null_projector, sample_group_channel

WORKERS = 4


def _report(criterion: int, description: str, failures: list[str]):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {criterion}: {description}")
    assert not failures, f"criterion {criterion}: " + "; ".join(failures[:10])


def _rows_by_scheme(blocks, scheme):
    """The rendered CSV rows of ``scheme``, keyed by power in dBm."""
    return {r["ptot_dbm"]: r for r in rendered_rows(blocks) if r["scheme"] == scheme}


class TestCriterion1BdNulling:
    def test_nulling_and_eigen_equivalence(self):
        start = time.perf_counter()
        failures = []
        combos = [
            (l, q, m)
            for l in (8, 16, 32)
            for q in (2, 3)
            for m in (1, 2, 4)
            if q * m <= l
        ]
        per_combo = 10_000 // len(combos) + 1
        count = 0
        for ci, (l, q, m) in enumerate(combos):
            for i in range(per_combo):
                if count >= 10_000:
                    break
                count += 1
                rng = substream(500 + ci, i)
                betas = rng.uniform(0.1, 2.0, size=q)
                group = sample_group_channel(l, [m] * q, betas, rng)
                sol = bd_mrc(group)
                mats = [h for h, _ in group.per_user]
                for k, user in enumerate(sol.users):
                    lam = user.eigenvalues
                    for kk in range(q):
                        if kk == k:
                            continue
                        leak = np.abs(mats[kk].T @ user.precoder).max()
                        if leak > 1e-9 * np.linalg.norm(mats[kk]):
                            failures.append(f"intra leak {leak:.2e} at L={l},q={q},m={m}")
                    eff = user.combiner.conj().T @ mats[k].T @ user.precoder
                    off = np.abs(eff - np.diag(np.diag(eff)))
                    if off.size and off.max() > 1e-9 * np.sqrt(lam.max()):
                        failures.append(f"inter-stream leak at L={l},q={q},m={m}")
                    # the large projected covariance shares the small
                    # matrix's nonzero spectrum
                    rest = np.hstack([h for j, h in enumerate(mats) if j != k])
                    t = null_projector(rest)
                    big = t @ mats[k].conj() @ mats[k].T @ t
                    w = np.sort(np.linalg.eigvalsh((big + big.conj().T) / 2))[::-1]
                    if not np.allclose(w[: lam.size], lam, rtol=1e-8):
                        failures.append(f"eigen mismatch at L={l},q={q},m={m}")
                if failures:
                    break
            if failures:
                break
        elapsed = time.perf_counter() - start
        if elapsed >= 60:
            failures.append(f"runtime {elapsed:.1f}s >= 60s")
        _report(
            1,
            f"BD-MRC nulling + eigen equivalence on {count} instances "
            f"({elapsed:.1f}s)",
            failures,
        )


class TestCriterion2WaterfillMmf:
    def test_kkt_brute_force_equal_rate_brackets(self):
        start = time.perf_counter()
        failures = []

        # KKT on 10^4 random water-filling instances
        rng = substream(600, 0)
        for i in range(10_000):
            j = int(rng.integers(1, 7))
            lams = rng.uniform(0.05, 10.0, size=j)
            n0 = float(rng.uniform(0.1, 2.0))
            budget = float(rng.uniform(0.0, 8.0))
            powers, level = waterfill(lams, budget, n0)
            if abs(powers.sum() - budget) > 1e-10 * max(budget, 1e-12):
                failures.append(f"budget violated at instance {i}")
                break
            active = powers > 0
            if active.any():
                levels = powers[active] + n0 / lams[active]
                if np.ptp(levels) > 1e-10 * levels.max():
                    failures.append(f"unequal water level at instance {i}")
                    break
                if (~active).any() and (n0 / lams[~active]).min() < level * (1 - 1e-10):
                    failures.append(f"inactive stream above water at instance {i}")
                    break

        # solver properties on pooled instances
        rng = substream(601, 0)
        for i in range(2_000):
            n = int(rng.integers(1, 7))
            fns = [
                UserRateFunction(
                    rng.uniform(0.1, 9.0, size=int(rng.integers(1, 5))), 1.0, 0.95
                )
                for _ in range(n)
            ]
            p_tot = float(rng.uniform(0.2, 25.0))
            sol = solve_mmf(fns, p_tot)
            rates = np.array([f.rate(b) for f, b in zip(fns, sol.allocation.per_user)])
            if np.abs(rates - sol.per_user_rate).max() > 1e-6 * max(sol.per_user_rate, 1e-12):
                failures.append(f"unequal rates at pooled instance {i}")
                break
            if abs(sol.allocation.total - p_tot) > 1e-9 * p_tot:
                failures.append(f"budget mismatch at pooled instance {i}")
                break
            lo, hi = sol.bracket
            if not (lo <= sol.sum_rate * (1 + 1e-12) and sol.sum_rate <= hi * (1 + 1e-12)):
                failures.append(f"bracket violated at pooled instance {i}")
                break

        # independent brute-force optimizer agreement on small pools
        from test_allocation import brute_force_mmf, random_fns

        rng = substream(602, 0)
        for i in range(150):
            fns = random_fns(rng, int(rng.integers(2, 7)))
            p_tot = float(rng.uniform(0.5, 20.0))
            sol = solve_mmf(fns, p_tot)
            ref = brute_force_mmf(fns, p_tot)
            if abs(sol.per_user_rate - ref) > 1e-4 * max(ref, 1e-9):
                failures.append(
                    f"brute-force mismatch at {i}: {sol.per_user_rate} vs {ref}"
                )
                break

        elapsed = time.perf_counter() - start
        if elapsed >= 120:
            failures.append(f"runtime {elapsed:.1f}s >= 120s")
        _report(
            2,
            f"water-filling KKT, equal-rate, brackets, brute-force agreement "
            f"({elapsed:.1f}s)",
            failures,
        )


class TestCriterion3MassiveMimo:
    def test_large_array_convergence(self):
        start = time.perf_counter()
        scn = Scenario(
            name="c3", geometry="macro", num_tx_antennas=64, num_states=5,
            cache_fraction=Fraction(4, 5), antennas_per_user=2, users_per_group=4,
            ptot_dbm=(40.0,), n_locations=200, n_fadings=20, seed=30,
        )
        job = cache_aided_job(
            scn, (BD_MRC, ("vcc_bd_mrc",)), (BD_MRC_ASYM, ("vcc_bd_mrc_asym",))
        )
        rep = experiments._simulate([job], WORKERS)
        sim = rep["vcc_bd_mrc"].mean[0, 0]
        asym = rep["vcc_bd_mrc_asym"].mean[0, 0]
        rel = abs(sim - asym) / sim
        elapsed = time.perf_counter() - start
        failures = []
        if rel > 0.015:
            failures.append(f"deviation {rel:.4f} > 1.5%")
        if elapsed >= 600:
            failures.append(f"runtime {elapsed:.1f}s >= 600s")
        _report(
            3,
            f"large-array closed form vs Monte Carlo at L=64: "
            f"{100 * rel:.2f}% on 200x20 draws ({elapsed:.1f}s)",
            failures,
        )


class TestCriterion4ZfSandwich:
    def test_bounds_contain_simulation(self):
        failures = []
        details = []
        for m in (2, 4):
            scn = Scenario(
                name=f"c4-m{m}", geometry="macro", num_tx_antennas=64,
                num_states=5, cache_fraction=Fraction(4, 5), antennas_per_user=m,
                users_per_group=4,
                ptot_dbm=(30.0, 34.0, 38.0, 42.0, 46.0, 50.0),
                n_locations=40, n_fadings=4, seed=40,
            )
            rep = run_vcc_zf(scn, workers=WORKERS)
            sim = rep["vcc_zf"]
            lo, hi = rep["vcc_zf_lower"].mean, rep["vcc_zf_upper"].mean
            slack = 2 * np.nan_to_num(sim.stderr, nan=0.0)
            below = sim.mean < lo - slack
            above = sim.mean > hi + slack
            if below.any() or above.any():
                failures.append(f"M={m}: simulation escapes the bound band")
            details.append(f"M={m} ok")
        _report(4, "ZF bound sandwich over the power sweep: " + ", ".join(details), failures)


class TestCriterion5Figures:
    def test_fig3_gain_doubles_and_increases(self):
        rows, _ = run_recipe("fig3", seed=50, n_locations=80, n_fadings=4, workers=WORKERS)
        vcc = _rows_by_scheme(rows, "vcc_bd_mrc")
        gains = [vcc[p]["gain"] for p in sorted(vcc)]
        window = [vcc[p]["gain"] for p in (40.0, 41.0, 42.0, 43.0)]
        failures = []
        if not np.all(np.diff(gains) > 0):
            failures.append(f"gain not increasing: {np.round(gains, 3)}")
        mean_gain = float(np.mean(window))
        if not 2.0 * 0.85 <= mean_gain <= 2.0 * 1.15:
            failures.append(f"window gain {mean_gain:.3f} outside 2 +/- 15%")
        _report(
            5, f"fig3 gain doubles at 40-43 dBm (window mean {mean_gain:.2f}) "
            f"and increases with power", failures,
        )

    def test_fig4_gain_above_230_and_decreases(self):
        rows, _ = run_recipe("fig4", seed=51, n_locations=60, n_fadings=3, workers=WORKERS)
        vcc = _rows_by_scheme(rows, "vcc_bd_mrc")
        gains = [vcc[p]["gain"] for p in sorted(vcc)]
        window = [vcc[p]["gain"] for p in (40.0, 41.0, 42.0, 43.0)]
        failures = []
        if not np.all(np.diff(gains) < 0):
            failures.append(f"gain not decreasing: {np.round(gains, 3)}")
        if min(window) < 2.3:
            failures.append(f"gain {min(window):.3f} below 2.3 in 40-43 dBm")
        _report(
            5, f"fig4 gain stays above 2.3 at 40-43 dBm (min {min(window):.2f}) "
            f"and decreases with power", failures,
        )

    def test_fig7_micro_gain(self):
        rows, _ = run_recipe(
            "fig7", seed=52, n_locations=60, n_fadings=3, workers=WORKERS,
            overrides={"ptot_dbm": (33.0,)},
        )
        opt = _rows_by_scheme(rows, "vcc_bd_mrc_opt")
        gain = opt[33.0]["gain_optimized"]
        failures = []
        if not 4.1 * 0.85 <= gain <= 4.1 * 1.15:
            failures.append(f"optimized gain {gain:.3f} outside 4.1 +/- 15%")
        _report(5, f"fig7 optimized Micro-cell gain at 33 dBm: {gain:.2f}", failures)

    def test_fig8_msv_structure(self):
        from oracles import msv_high_snr_gain_limit

        rows, _ = run_recipe("fig8", seed=53, n_locations=150, n_fadings=1, workers=WORKERS)
        msv = _rows_by_scheme(rows, "msv")
        modified = _rows_by_scheme(rows, "msv_modified_opt")
        failures = []
        orig_gains = [msv[p]["gain"] for p in sorted(msv)]
        if max(orig_gains) >= 1.0:
            failures.append(f"original gain reaches {max(orig_gains):.3f} >= 1")
        top = max(modified)
        mod_top = modified[top]["gain_optimized"]
        if not 0.85 <= mod_top <= 1.15:
            failures.append(f"modified gain at top power {mod_top:.3f} not close to 1")
        if msv_high_snr_gain_limit(32, 5) != (32 + 5) / 32:
            failures.append("analytic limit differs from (32+5)/32")
        _report(
            5, f"fig8 multi-server baseline: original gain < 1 everywhere "
            f"(max {max(orig_gains):.2f}), modified {mod_top:.2f} at top power, "
            f"limit 1.15625 exact", failures,
        )

    def test_fig9_worst_case_csir(self):
        rows, _ = run_recipe(
            "fig9", seed=54, n_locations=120, n_fadings=1, workers=WORKERS,
            overrides={"ptot_dbm": (55.0, 60.0, 65.0, 70.0)},  # SNR 25..40 dB
        )
        worst = _rows_by_scheme(rows, "vcc_zf_csit_csir0.01_opt")
        failures = []
        gains = {p - 30.0: worst[p]["gain_optimized"] for p in sorted(worst)}
        for snr, gain in gains.items():
            if gain <= 3.0:
                failures.append(f"gain {gain:.3f} <= 3 at SNR {snr:g} dB")
        _report(
            5, "fig9 worst-case receiver-side error keeps gain above 3 past "
            f"20 dB SNR ({ {k: round(v, 2) for k, v in gains.items()} })", failures,
        )


class TestCriterion6Determinism:
    def test_worker_count_invariance(self, tmp_path):
        from vccsim.cli import parse_config, run

        failures = []
        for recipe, sets in (("fig4", ["ptot_dbm=40,43"]), ("fig9", ["ptot_dbm=60"])):
            blobs = []
            for workers in (1, 8):
                out = tmp_path / f"{recipe}-w{workers}.csv"
                cfg = parse_config(
                    recipe=recipe, seed=77, locations=4, fadings=1,
                    out=str(out), sets=list(sets), workers=workers,
                )
                run(cfg)
                blobs.append(out.read_bytes())
            if blobs[0] != blobs[1]:
                failures.append(f"{recipe}: bytes differ between 1 and 8 workers")
        _report(6, "byte-identical CSV across 1 and 8 workers (fig4, fig9)", failures)


class TestCriterion7DeliveryVerifier:
    def test_all_schedules_verify_and_mutations_fail(self):
        failures = []
        rng = substream(700, 0)
        checked = 0
        for num_states in range(2, 7):
            for t in range(1, num_states):
                gamma = Fraction(t, num_states)
                plan = build_placement(num_states, gamma, num_states * 3, num_states * 3)
                for q in (1, 2, 3):
                    sched = build_schedule(plan, q)
                    ok, report = verify_delivery(sched, plan)
                    if not ok:
                        failures.append(
                            f"valid schedule rejected: states={num_states}, "
                            f"t={t}, q={q}: {report[:2]}"
                        )
                        continue
                    tags = plan.subfile_tags
                    for _ in range(100):
                        idx = int(rng.integers(len(sched.entries)))
                        entry = sched.entries[idx]
                        while True:
                            label = (
                                int(rng.integers(1, plan.library_size + 1)),
                                tags[int(rng.integers(len(tags)))],
                            )
                            if label != entry.subfile:
                                break
                        mutated = dataclasses.replace(entry, subfile=label)
                        broken = dataclasses.replace(
                            sched,
                            entries=sched.entries[:idx] + (mutated,) + sched.entries[idx + 1 :],
                        )
                        ok, _ = verify_delivery(broken, plan)
                        checked += 1
                        if ok:
                            failures.append(
                                f"mutation accepted: states={num_states}, t={t}, "
                                f"q={q}, entry {idx} -> {label}"
                            )
                            break
        _report(
            7,
            f"delivery verifier accepts all generated schedules and rejects "
            f"{checked} single-label mutations",
            failures,
        )
