"""Cache-aided downlink MU-MIMO delivery: precoding, fair power allocation,
and Monte Carlo sum-rate experiments.

OpenBLAS gets one thread unless ``OPENBLAS_NUM_THREADS`` is set: the kernels
factor small matrices, and each worker process would otherwise start a
thread per core.  It must be set here, before numpy loads; importing any
submodule (``python -m vccsim`` included) runs this package first.
Submodules load on import only, so the command line never loads
:mod:`vccsim.caching`.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
