"""Set-up probe: a fresh interpreter imports vccsim and runs one 1x1 warm-up.

Usage: ``python3 bench/probe.py RECIPE SEED OUT_CSV``.  The benchmark times
this process from start to exit as one set-up sample, which is what a CLI
user pays before the first real location is simulated.
"""

import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    recipe, seed, out = argv
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from vccsim import cli

    config = cli.parse_config(recipe=recipe, seed=int(seed), locations=1, fadings=1, out=out)
    return cli.run(config)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
