"""Named experiment recipes and their CSV assembly.

Each recipe pins the scenario of one headline comparison (cell preset,
antenna counts, caching parameters, power sweep) and composes the runner
calls plus effective-gain bookkeeping into CSV rows.  Realization counts
and any scenario field can be overridden; the paper-scale defaults are
1000 location draws with 20 fading draws each for pathloss scenarios.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction

from .experiments import (
    Scenario,
    effective_gain,
    rows_for_best,
    rows_for_curve,
    run_cacheless_bd_mrc,
    run_imperfect_csi,
    run_msv,
    run_vcc_bd_mrc,
    run_vcc_zf,
)

__all__ = ["Recipe", "RECIPES", "list_recipes", "run_recipe"]

_SCENARIO_FIELDS = {f.name for f in dataclasses.fields(Scenario)}


@dataclass(frozen=True)
class Recipe:
    name: str
    description: str
    default_locations: int
    default_fadings: int
    build_rows: object  # callable(params: dict, workers: int) -> list[dict]


def _scenario(base: dict, params: dict, **extra) -> Scenario:
    kw = dict(base)
    kw.update({k: v for k, v in params.items() if k in _SCENARIO_FIELDS})
    kw.update(extra)
    return Scenario(**kw)


def _snr_sweep(*snr_db: float) -> tuple[float, ...]:
    # With unit noise power, transmit power in dBm reads as SNR + 30 dB.
    return tuple(s + 30.0 for s in snr_db)


def _fig2_rows(params: dict, workers: int) -> list[dict]:
    base = dict(
        name="fig2", geometry="macro", num_tx_antennas=64, num_states=5,
        cache_fraction=Fraction(4, 5), users_per_group=4,
        ptot_dbm=(30.0, 34.0, 38.0, 42.0, 46.0, 50.0),
    )
    m_values = (2, 4, 12)
    if "antennas_per_user" in params:
        m_values = (params["antennas_per_user"],)
    rows = []
    for m in m_values:
        scn = _scenario(base, params, antennas_per_user=m, name=f"fig2-m{m}")
        bd = run_vcc_bd_mrc(scn, workers=workers)
        zf = run_vcc_zf(scn, workers=workers)
        rows += rows_for_curve(bd["vcc_bd_mrc"], scn, scheme=f"vcc_bd_mrc_m{m}")
        for key in ("vcc_zf", "vcc_zf_lower", "vcc_zf_upper"):
            rows += rows_for_curve(zf[key], scn, scheme=f"{key}_m{m}")
    return rows


def _fixed_gain_rows(scn: Scenario, workers: int, include_asymptotic: bool) -> list[dict]:
    vcc = run_vcc_bd_mrc(scn, workers=workers, include_asymptotic=include_asymptotic)
    cl = run_cacheless_bd_mrc(scn, workers=workers)
    gain = effective_gain(vcc["vcc_bd_mrc"], cl["cacheless_bd_mrc"], "fixed")
    rows = rows_for_curve(vcc["vcc_bd_mrc"], scn, gain=gain)
    if include_asymptotic:
        rows += rows_for_curve(vcc["vcc_bd_mrc_asym"], scn)
    rows += rows_for_curve(cl["cacheless_bd_mrc"], scn)
    return rows


def _fig3_rows(params: dict, workers: int) -> list[dict]:
    base = dict(
        name="fig3", geometry="macro", num_tx_antennas=24, num_states=6,
        cache_fraction=Fraction(5, 6), antennas_per_user=4,
        users_per_group=4, baseline_users=4,
        ptot_dbm=(36.0, 38.0, 40.0, 41.0, 42.0, 43.0, 44.0, 46.0),
    )
    return _fixed_gain_rows(_scenario(base, params), workers, include_asymptotic=True)


def _fig4_rows(params: dict, workers: int) -> list[dict]:
    base = dict(
        name="fig4", geometry="macro", num_tx_antennas=32, num_states=4,
        cache_fraction=Fraction(3, 4), antennas_per_user=4,
        users_per_group=2, baseline_users=8,
        ptot_dbm=(34.0, 36.0, 38.0, 40.0, 41.0, 42.0, 43.0, 44.0, 46.0),
    )
    return _fixed_gain_rows(_scenario(base, params), workers, include_asymptotic=False)


def _optimized_gain_rows(scn: Scenario, workers: int, with_zf: bool) -> list[dict]:
    vcc = run_vcc_bd_mrc(scn, workers=workers)
    cl = run_cacheless_bd_mrc(scn, workers=workers)
    gain_opt = effective_gain(vcc["vcc_bd_mrc"], cl["cacheless_bd_mrc"], "optimized")
    rows = rows_for_curve(vcc["vcc_bd_mrc"], scn)
    rows += rows_for_best(vcc["vcc_bd_mrc"], scn, gain_opt=gain_opt)
    rows += rows_for_curve(cl["cacheless_bd_mrc"], scn)
    rows += rows_for_best(cl["cacheless_bd_mrc"], scn)
    if with_zf:
        zf = run_vcc_zf(scn, workers=workers)
        gain_zf = effective_gain(zf["vcc_zf"], cl["cacheless_bd_mrc"], "optimized")
        rows += rows_for_best(zf["vcc_zf"], scn, gain_opt=gain_zf)
        rows += rows_for_best(zf["vcc_zf_lower"], scn)
        rows += rows_for_best(zf["vcc_zf_upper"], scn)
    return rows


def _fig5_rows(params: dict, workers: int) -> list[dict]:
    base = dict(
        name="fig5", geometry="macro", num_tx_antennas=24, num_states=6,
        cache_fraction=Fraction(5, 6), antennas_per_user=4,
        users_per_group=None, baseline_users=None,
        ptot_dbm=(36.0, 38.0, 40.0, 42.0, 44.0, 46.0),
    )
    return _optimized_gain_rows(_scenario(base, params), workers, with_zf=False)


def _fig6_rows(params: dict, workers: int) -> list[dict]:
    base = dict(
        name="fig6", geometry=None, noise_power=1.0, num_tx_antennas=16,
        num_states=6, cache_fraction=Fraction(5, 6), antennas_per_user=1,
        users_per_group=None, baseline_users=None,
        csit_error_var=0.01, csir_error_vars=(),
        ptot_dbm=_snr_sweep(0, 5, 10, 15, 20, 25, 30, 35, 40),
    )
    scn = _scenario(base, params)
    rep = run_imperfect_csi(scn, workers=workers)
    rows = []
    for variant in ("perfect", "csit"):
        num, den = rep[f"vcc_zf_{variant}"], rep[f"cacheless_zf_{variant}"]
        gain = effective_gain(num, den, "optimized")
        rows += rows_for_curve(num, scn)
        rows += rows_for_best(num, scn, gain_opt=gain)
        rows += rows_for_best(den, scn)
    return rows


def _fig7_rows(params: dict, workers: int) -> list[dict]:
    base = dict(
        name="fig7", geometry="micro", num_tx_antennas=32, num_states=6,
        cache_fraction=Fraction(5, 6), antennas_per_user=2,
        users_per_group=None, baseline_users=None,
        ptot_dbm=(24.0, 27.0, 30.0, 33.0, 36.0, 39.0),
    )
    return _optimized_gain_rows(_scenario(base, params), workers, with_zf=True)


def _fig8_rows(params: dict, workers: int) -> list[dict]:
    base = dict(
        name="fig8", geometry=None, noise_power=1.0, num_tx_antennas=32,
        num_states=6, cache_fraction=Fraction(5, 6), antennas_per_user=1,
        users_per_group=None, baseline_users=None,
        ptot_dbm=_snr_sweep(0, 5, 10, 15, 20, 25, 30, 35, 40),
    )
    scn = _scenario(base, params)
    msv = run_msv(scn, workers=workers)
    vcc = run_vcc_bd_mrc(scn, workers=workers)
    cl = run_cacheless_bd_mrc(scn, workers=workers)
    den = cl["cacheless_bd_mrc"].best()[1]
    rows = rows_for_curve(msv["msv"], scn, gain=msv["msv"].single()[1] / den)
    rows += rows_for_curve(msv["msv_modified"], scn)
    rows += rows_for_best(
        msv["msv_modified"], scn, gain_opt=msv["msv_modified"].best()[1] / den
    )
    rows += rows_for_best(
        vcc["vcc_bd_mrc"], scn, gain_opt=vcc["vcc_bd_mrc"].best()[1] / den
    )
    rows += rows_for_best(cl["cacheless_bd_mrc"], scn)
    return rows


def _fig9_rows(params: dict, workers: int) -> list[dict]:
    base = dict(
        name="fig9", geometry=None, noise_power=1.0, num_tx_antennas=16,
        num_states=6, cache_fraction=Fraction(5, 6), antennas_per_user=1,
        users_per_group=None, baseline_users=None,
        csit_error_var=0.01, csir_error_vars=(0.01, 0.001, 0.0),
        ptot_dbm=_snr_sweep(0, 5, 10, 15, 20, 25, 30, 35, 40),
    )
    scn = _scenario(base, params)
    rep = run_imperfect_csi(scn, workers=workers)
    den = rep["cacheless_zf_csit"]
    rows = rows_for_best(den, scn)
    rows += rows_for_best(
        rep["vcc_zf_csit"], scn,
        gain_opt=effective_gain(rep["vcc_zf_csit"], den, "optimized"),
    )
    for var in scn.csir_error_vars:
        curve = rep[f"vcc_zf_csit_csir{var:g}"]
        rows += rows_for_best(curve, scn, gain_opt=effective_gain(curve, den, "optimized"))
    return rows


RECIPES: dict[str, Recipe] = {
    "fig2": Recipe(
        "fig2",
        "Macro-cell effective sum-rate vs transmit power: L=64, G=5, Q=4, "
        "M in {2,4,12}; BD-MRC simulation with the ZF bound band",
        1000, 20, _fig2_rows,
    ),
    "fig3": Recipe(
        "fig3",
        "Macro-cell gain at equal precoder load: M=4, L=24, G=6, Q=Q'=4; "
        "BD-MRC vs cacheless plus the large-antenna closed form",
        1000, 20, _fig3_rows,
    ),
    "fig4": Recipe(
        "fig4",
        "Macro-cell gain at equal DoF: L=32, M=4, Q=2, Q'=8, G=4",
        1000, 20, _fig4_rows,
    ),
    "fig5": Recipe(
        "fig5",
        "Macro-cell optimized gain: G=6, M=4, L=24; Q and Q' optimized "
        "independently per power point",
        1000, 20, _fig5_rows,
    ),
    "fig6": Recipe(
        "fig6",
        "Symmetric ZF gain under imperfect transmitter CSI: L=16, M=1, G=6, "
        "csit_error_var=0.01; Q and Q' optimized; equal power",
        400, 1, _fig6_rows,
    ),
    "fig7": Recipe(
        "fig7",
        "Micro-cell optimized gain: L=32, M=2, G=6; Q and Q' optimized "
        "independently; ZF bound band included",
        1000, 20, _fig7_rows,
    ),
    "fig8": Recipe(
        "fig8",
        "Multi-server baseline vs cache-aided delivery: L=32, G=6, M=1, "
        "symmetric Rayleigh; original and stream-swept variants",
        300, 1, _fig8_rows,
    ),
    "fig9": Recipe(
        "fig9",
        "Symmetric ZF gain under imperfect CSI at both ends: L=16, M=1, G=6, "
        "csit_error_var=0.01, csir_error_vars={0.01,0.001,0}; Q optimized",
        400, 1, _fig9_rows,
    ),
}


def list_recipes() -> str:
    """Stable one-line-per-recipe listing."""
    lines = [f"{name}: {RECIPES[name].description}" for name in sorted(RECIPES)]
    return "\n".join(lines) + "\n"


def run_recipe(
    name: str,
    seed: int = 0,
    n_locations: int | None = None,
    n_fadings: int | None = None,
    workers: int = 1,
    overrides: dict | None = None,
) -> tuple[list[dict], tuple[int, int]]:
    """Run one recipe; returns ``(rows, (locations, fadings))`` as resolved."""
    recipe = RECIPES[name]
    params = dict(overrides or {})
    params["seed"] = seed
    params["n_locations"] = recipe.default_locations if n_locations is None else n_locations
    params["n_fadings"] = recipe.default_fadings if n_fadings is None else n_fadings
    rows = recipe.build_rows(params, workers)
    return rows, (params["n_locations"], params["n_fadings"])
