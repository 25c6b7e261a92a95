"""Session set-up shared by every test module.

To report a failing example, hypothesis imports libcst, and that import
warns through mypy_extensions (``mypy_extensions.TypedDict is
deprecated``).  Under ``-W error``, which overrides pyproject.toml's ignore
for it, the warning would turn the report into an INTERNALERROR that ends
the session, and the later tests would never run.  Importing both modules
here once, with that warning ignored, leaves nothing to warn later.
"""

import warnings

with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated",
                            DeprecationWarning)
    try:
        import libcst  # noqa: F401
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst, hypothesis reports without it
        pass
