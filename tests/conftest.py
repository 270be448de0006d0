"""Session setup shared by every test module.

A failing hypothesis test reports its example through
``hypothesis.extra._patching``, which imports ``libcst``, and ``libcst``
imports ``mypy_extensions.TypedDict``, which warns ``DeprecationWarning``.
Under the ``error::DeprecationWarning`` filter of ``pyproject.toml`` that
import would raise inside pytest's report hook: an ``INTERNALERROR`` that
names no test and leaves every later test unrun.  So the module is imported
once here, with ``DeprecationWarning`` ignored for that import alone; the
filters of every test stay as ``pyproject.toml`` sets them.  Without
``libcst`` the import fails, and hypothesis then writes no patch file.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
