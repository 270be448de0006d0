"""Cache-aided downlink MU-MIMO delivery: precoding, fair power allocation,
and Monte Carlo sum-rate experiments.

OpenBLAS gets one thread unless ``OPENBLAS_NUM_THREADS`` is set: the kernels
factor small matrices, and each pool worker would otherwise start a thread
per core.  It must be set here, before numpy loads; ``python -m vccsim``
imports this package before ``__main__``.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import allocation, caching, channel, cli, errors, experiments, precoding, recipes  # noqa: E402

__all__ = [
    "allocation",
    "caching",
    "channel",
    "cli",
    "errors",
    "experiments",
    "precoding",
    "recipes",
]

__version__ = "0.1.0"
