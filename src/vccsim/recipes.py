"""Named experiment recipes and their CSV assembly.

Each recipe pins the scenario of one headline comparison (cell preset,
antenna counts, caching parameters, power sweep), lists the jobs it needs
(each side of the comparison with the schemes run on it), hands them to one
:func:`~vccsim.experiments._simulate` call, and turns the curves plus
effective-gain bookkeeping into CSV rows.  Realization counts and any
scenario field can be overridden; the paper-scale defaults are 1000
location draws with 20 fading draws each for pathloss scenarios.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction

# experiments._simulate is looked up at call time, so that a test can wrap it.
from . import experiments
from .errors import InvalidConfigurationError
# run_vcc_bd_mrc, run_cacheless_bd_mrc, run_vcc_zf, run_msv and
# run_imperfect_csi are on no recipe's run path; they stay importable here,
# where bench/spans.py resolves the names it traces.
from .experiments import (
    BD_MRC,
    BD_MRC_ASYM,
    CSI_ERROR,
    CSI_PERFECT,
    ZF,
    ZF_BOUNDS,
    Scenario,
    cache_aided_job,
    cacheless_job,
    effective_gain,
    imperfect_csi_jobs,
    msv_job,
    msv_original,
    rows_for_best,
    rows_for_curve,
    run_cacheless_bd_mrc,
    run_imperfect_csi,
    run_msv,
    run_vcc_bd_mrc,
    run_vcc_zf,
)

__all__ = ["Recipe", "RECIPES", "list_recipes", "run_recipe"]

_SCENARIO_FIELDS = {f.name for f in dataclasses.fields(Scenario) if f.init}


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


def _bd_jobs(scn: Scenario, *vcc_rules) -> list:
    """BD-MRC on both sides; ``vcc_rules`` also run on the cache-aided side."""
    return [
        cache_aided_job(scn, (BD_MRC, ("vcc_bd_mrc",)), *vcc_rules),
        cacheless_job(scn, (BD_MRC, ("cacheless_bd_mrc",))),
    ]


def _fixed_q_scenario(base: dict, params: dict) -> Scenario:
    """The scenario of a recipe whose gain is taken at fixed Q and Q'."""
    scn = _scenario(base, params)
    for key, field, count in (
        ("Q", "users_per_group", scn.users_per_group),
        ("Qprime", "baseline_users", scn.baseline_users),
    ):
        if count is None:
            raise InvalidConfigurationError(
                f"{key} ({field}) cannot be optimize in {scn.name}, whose gain is "
                "taken at fixed Q and Q'"
            )
    return scn


def _fig2_rows(params: dict, workers: int) -> list[dict]:
    base = dict(
        name="fig2", geometry="macro", num_tx_antennas=64, num_states=5,
        cache_fraction=Fraction(4, 5), users_per_group=4,
        ptot_dbm=(30.0, 34.0, 38.0, 42.0, 46.0, 50.0),
    )
    m_values = (2, 4, 12)
    if "antennas_per_user" in params:
        m_values = (params["antennas_per_user"],)
    scns = {m: _scenario(base, params, antennas_per_user=m, name=f"fig2-m{m}") for m in m_values}
    curves = experiments._simulate([
        cache_aided_job(
            scn,
            (BD_MRC, (f"vcc_bd_mrc_m{m}",)),
            (ZF, (f"vcc_zf_m{m}",)),
            (ZF_BOUNDS, (f"vcc_zf_lower_m{m}", f"vcc_zf_upper_m{m}")),
        )
        for m, scn in scns.items()
    ], workers)
    rows = []
    for m, scn in scns.items():
        for key in ("vcc_bd_mrc", "vcc_zf", "vcc_zf_lower", "vcc_zf_upper"):
            rows += rows_for_curve(curves[f"{key}_m{m}"], scn)
    return rows


def _fig3_rows(params: dict, workers: int) -> list[dict]:
    base = dict(
        name="fig3", geometry="macro", num_tx_antennas=24, num_states=6,
        cache_fraction=Fraction(5, 6), antennas_per_user=4,
        users_per_group=4, baseline_users=4,
        ptot_dbm=(36.0, 38.0, 40.0, 41.0, 42.0, 43.0, 44.0, 46.0),
    )
    scn = _fixed_q_scenario(base, params)
    curves = experiments._simulate(_bd_jobs(scn, (BD_MRC_ASYM, ("vcc_bd_mrc_asym",))), workers)
    vcc, cl = curves["vcc_bd_mrc"], curves["cacheless_bd_mrc"]
    rows = rows_for_curve(vcc, scn, gain=effective_gain(vcc, cl, "fixed"))
    rows += rows_for_curve(curves["vcc_bd_mrc_asym"], scn)
    rows += rows_for_curve(cl, scn)
    return rows


def _fig4_rows(params: dict, workers: int) -> list[dict]:
    base = dict(
        name="fig4", geometry="macro", num_tx_antennas=32, num_states=4,
        cache_fraction=Fraction(3, 4), antennas_per_user=4,
        users_per_group=2, baseline_users=8,
        ptot_dbm=(34.0, 36.0, 38.0, 40.0, 41.0, 42.0, 43.0, 44.0, 46.0),
    )
    scn = _fixed_q_scenario(base, params)
    curves = experiments._simulate(_bd_jobs(scn), workers)
    vcc, cl = curves["vcc_bd_mrc"], curves["cacheless_bd_mrc"]
    rows = rows_for_curve(vcc, scn, gain=effective_gain(vcc, cl, "fixed"))
    rows += rows_for_curve(cl, scn)
    return rows


def _optimized_bd_rows(scn: Scenario, curves: dict) -> list[dict]:
    """Every q of both BD-MRC sides plus their best-q rows and gain."""
    vcc, cl = curves["vcc_bd_mrc"], curves["cacheless_bd_mrc"]
    rows = rows_for_curve(vcc, scn)
    rows += rows_for_best(vcc, scn, gain_opt=effective_gain(vcc, cl, "optimized"))
    rows += rows_for_curve(cl, scn)
    rows += rows_for_best(cl, scn)
    return rows


def _fig5_rows(params: dict, workers: int) -> list[dict]:
    base = dict(
        name="fig5", geometry="macro", num_tx_antennas=24, num_states=6,
        cache_fraction=Fraction(5, 6), antennas_per_user=4,
        users_per_group=None, baseline_users=None,
        ptot_dbm=(36.0, 38.0, 40.0, 42.0, 44.0, 46.0),
    )
    scn = _scenario(base, params)
    curves = experiments._simulate(_bd_jobs(scn), workers)
    return _optimized_bd_rows(scn, curves)


def _fig6_rows(params: dict, workers: int) -> list[dict]:
    base = dict(
        name="fig6", geometry=None, noise_power=1.0, num_tx_antennas=16,
        num_states=6, cache_fraction=Fraction(5, 6), antennas_per_user=1,
        users_per_group=None, baseline_users=None,
        csit_error_var=0.01, csir_error_vars=(),
        ptot_dbm=_snr_sweep(0, 5, 10, 15, 20, 25, 30, 35, 40),
    )
    scn = _scenario(base, params)
    curves = experiments._simulate(imperfect_csi_jobs(scn, CSI_PERFECT, CSI_ERROR), workers)
    rows = []
    for variant in ("perfect", "csit"):
        num, den = curves[f"vcc_zf_{variant}"], curves[f"cacheless_zf_{variant}"]
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
    scn = _scenario(base, params)
    curves = experiments._simulate(
        _bd_jobs(scn, (ZF, ("vcc_zf",)), (ZF_BOUNDS, ("vcc_zf_lower", "vcc_zf_upper"))), workers
    )
    rows = _optimized_bd_rows(scn, curves)
    zf = curves["vcc_zf"]
    rows += rows_for_best(
        zf, scn, gain_opt=effective_gain(zf, curves["cacheless_bd_mrc"], "optimized")
    )
    rows += rows_for_best(curves["vcc_zf_lower"], scn)
    rows += rows_for_best(curves["vcc_zf_upper"], scn)
    return rows


def _fig8_rows(params: dict, workers: int) -> list[dict]:
    base = dict(
        name="fig8", geometry=None, noise_power=1.0, num_tx_antennas=32,
        num_states=6, cache_fraction=Fraction(5, 6), antennas_per_user=1,
        users_per_group=None, baseline_users=None,
        ptot_dbm=_snr_sweep(0, 5, 10, 15, 20, 25, 30, 35, 40),
    )
    scn = _scenario(base, params)
    curves = experiments._simulate([msv_job(scn), *_bd_jobs(scn)], workers)
    msv, modified = msv_original(curves["msv_modified"]), curves["msv_modified"]
    vcc, cl = curves["vcc_bd_mrc"], curves["cacheless_bd_mrc"]
    den = cl.best()[1]
    rows = rows_for_curve(msv, scn, gain=msv.single()[1] / den)
    rows += rows_for_curve(modified, scn)
    rows += rows_for_best(modified, scn, gain_opt=modified.best()[1] / den)
    rows += rows_for_best(vcc, scn, gain_opt=vcc.best()[1] / den)
    rows += rows_for_best(cl, scn)
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
    # fig9 writes only the estimated-CSI curves.
    curves = experiments._simulate(imperfect_csi_jobs(scn, CSI_ERROR), workers)
    den = curves["cacheless_zf_csit"]
    rows = rows_for_best(den, scn)
    rows += rows_for_best(
        curves["vcc_zf_csit"], scn,
        gain_opt=effective_gain(curves["vcc_zf_csit"], den, "optimized"),
    )
    for var in scn.csir_error_vars:
        curve = curves[f"vcc_zf_csit_csir{var:g}"]
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
