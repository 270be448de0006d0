"""Command-line front end: recipe runs, config parsing, CSV output.

Configuration is a flat ``key=value`` text file; flags override file
entries.  The resolved configuration is echoed as ``# key=value`` comment
lines at the top of the CSV so that re-parsing a result file reproduces
the run (the worker count is an execution knob and is deliberately not
echoed, keeping output bytes identical for any parallelism).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InvalidConfigurationError, SimulationError
from .experiments import format_csv, gain_rows, row_count
from .recipes import RECIPES, list_recipes, run_recipe

__all__ = ["RunConfig", "parse_config", "run", "main"]


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok)


def _parse_q(text: str):
    if text.lower() == "optimize":
        return None
    return int(text)


def _parse_geometry(text: str):
    if text.lower() in ("none", "symmetric"):
        return None
    return text.lower()


def _render(value) -> str:
    if value is None:
        return "optimize"
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, tuple):
        return ",".join(_render(v) for v in value)
    return str(value)


# CLI key -> (scenario field, parser).  These are the overridable constants.
SCENARIO_KEYS = {
    "geometry": ("geometry", _parse_geometry),
    "L": ("num_tx_antennas", int),
    "Lambda": ("num_states", int),
    "gamma": ("cache_fraction", Fraction),
    "M": ("antennas_per_user", int),
    "Q": ("users_per_group", _parse_q),
    "Qprime": ("baseline_users", _parse_q),
    "ptot_dbm": ("ptot_dbm", _parse_float_list),
    "T": ("coherence_symbols", int),
    "Theta": ("pilot_symbols", int),
    "noise_power": ("noise_power", float),
    "csit_error_var": ("csit_error_var", float),
    "csir_error_vars": ("csir_error_vars", _parse_float_list),
    "users_per_state": ("users_per_state", _parse_q),
}

RUN_KEYS = {
    "recipe": str,
    "seed": int,
    "locations": int,
    "fadings": int,
    "out": str,
}


@dataclass
class RunConfig:
    """Fully resolved run request."""

    recipe: str
    seed: int = 0
    n_locations: int | None = None
    n_fadings: int | None = None
    out: str | None = None
    overrides: dict = field(default_factory=dict)
    workers: int = 1

    def header(self, resolved_counts: tuple[int, int]) -> dict:
        # Execution knobs (workers, output path) are omitted on purpose:
        # the same computation must produce the same bytes.
        head = {
            "recipe": self.recipe,
            "seed": self.seed,
            "locations": resolved_counts[0],
            "fadings": resolved_counts[1],
        }
        for key in sorted(self.overrides):
            head[key] = _render(self.overrides[key])
        return head


def _typed(key: str, raw: str):
    if key in RUN_KEYS:
        parser = RUN_KEYS[key]
    elif key in SCENARIO_KEYS:
        parser = SCENARIO_KEYS[key][1]
    else:
        raise InvalidConfigurationError(
            f"unknown configuration key '{key}'; known keys: "
            f"{', '.join(sorted(list(RUN_KEYS) + list(SCENARIO_KEYS)))}"
        )
    try:
        return parser(raw)
    except (ValueError, ZeroDivisionError):
        raise InvalidConfigurationError(
            f"type mismatch for '{key}': cannot parse {raw!r}"
        )


def _read_config_lines(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise InvalidConfigurationError(f"cannot read config file {path}: {reason}") from exc
    entries: dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if text.startswith("#"):
            text = text[1:].strip()
        if text.startswith("scheme,"):
            break  # CSV body follows a result-file header
        if not text:
            continue
        if "=" not in text:
            raise InvalidConfigurationError(
                f"{path}:{lineno}: expected key=value, got {line.strip()!r}"
            )
        key, _, raw = text.partition("=")
        entries[key.strip()] = raw.strip()
    return entries


def parse_config(
    path: str | None = None,
    recipe: str | None = None,
    seed: int | None = None,
    locations: int | None = None,
    fadings: int | None = None,
    out: str | None = None,
    sets: list[str] | None = None,
    workers: int = 1,
) -> RunConfig:
    """Merge a config file with flag overrides (flags win) into a RunConfig.

    Raises :class:`InvalidConfigurationError` naming the offending key for
    unknown keys and type mismatches.
    """
    values: dict = {}
    if path:
        for key, raw in _read_config_lines(path).items():
            values[key] = _typed(key, raw)
    for item in sets or []:
        if "=" not in item:
            raise InvalidConfigurationError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        values[key.strip()] = _typed(key.strip(), raw.strip())
    if recipe is not None:
        values["recipe"] = recipe
    if seed is not None:
        values["seed"] = seed
    if locations is not None:
        values["locations"] = locations
    if fadings is not None:
        values["fadings"] = fadings
    if out is not None:
        values["out"] = out

    if workers < 1:
        raise InvalidConfigurationError(f"workers {workers} is below 1")
    if "recipe" not in values:
        raise InvalidConfigurationError("no recipe given (use --recipe or a config file)")
    if values["recipe"] not in RECIPES:
        raise InvalidConfigurationError(
            f"unknown recipe {values['recipe']!r}; see --list-recipes"
        )
    return RunConfig(
        recipe=values["recipe"],
        seed=values.get("seed", 0),
        n_locations=values.get("locations"),
        n_fadings=values.get("fadings"),
        out=values.get("out"),
        # Kept under their CLI key names for faithful echoing.
        overrides={k: v for k, v in values.items() if k in SCENARIO_KEYS},
        workers=workers,
    )


def _field_named(cli_overrides: dict) -> dict:
    return {SCENARIO_KEYS[k][0]: v for k, v in cli_overrides.items()}


def _check_out_path(path: str) -> None:
    """Fail before any sampling if the CSV cannot be written to ``path``."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        problem = "it is a directory"
    elif not os.path.isdir(parent):
        problem = f"directory {parent} does not exist"
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        problem = "not writable"
    else:
        return
    raise InvalidConfigurationError(f"output path {path}: {problem}")


def run(config: RunConfig) -> int:
    """Execute a run request; returns the process exit code.

    Runs the recipe (:func:`run_recipe`), writes its CSV blocks rendered by
    :func:`format_csv` under the configuration header, and prints a summary:
    the row count, then one line per row with a gain."""
    out_path = config.out or f"{config.recipe}.csv"
    _check_out_path(out_path)
    blocks, counts = run_recipe(
        config.recipe,
        seed=config.seed,
        n_locations=config.n_locations,
        n_fadings=config.n_fadings,
        workers=config.workers,
        overrides=_field_named(config.overrides),
    )
    text = format_csv(blocks, config.header(counts))
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(_summary(config, blocks, out_path))
    return 0


def _summary(config: RunConfig, blocks: list, out_path: str) -> str:
    lines = [f"{config.recipe}: wrote {row_count(blocks)} rows to {out_path}"]
    for scheme, ptot_dbm, snr_db, q, mean, gain in gain_rows(blocks):
        lines.append(
            f"  {scheme} @ {ptot_dbm:g} dBm (snr {snr_db:.1f} dB, "
            f"q={q}): rate {mean:.4g} nats, gain {gain:.4g}"
        )
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vccsim",
        description="Cache-aided MU-MIMO delivery simulator (CSV output)",
    )
    parser.add_argument("--recipe", help="named experiment preset (see --list-recipes)")
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override one configuration key (repeatable; wins over --config)",
    )
    parser.add_argument("--out", help="output CSV path (default <recipe>.csv)")
    parser.add_argument("--seed", type=int, help="master seed (default 0)")
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes, the running one included (--workers 2 forks one "
        "child); each uses one OpenBLAS thread unless OPENBLAS_NUM_THREADS is set",
    )
    parser.add_argument("--locations", type=int, help="location realizations")
    parser.add_argument("--fadings", type=int, help="fading draws per location")
    parser.add_argument(
        "--list-recipes", action="store_true", help="print recipe names and exit"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_recipes:
        print(list_recipes(), end="")
        return 0
    try:
        config = parse_config(
            path=args.config,
            recipe=args.recipe,
            seed=args.seed,
            locations=args.locations,
            fadings=args.fadings,
            out=args.out,
            sets=args.set,
            workers=args.workers,
        )
        return run(config)
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
