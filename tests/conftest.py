"""Set-up shared by the test modules in this directory."""
import contextlib
import warnings

# When a property test fails, hypothesis imports its patch writer, and so
# libcst, to report the example.  libcst's import raises a
# DeprecationWarning, which pyproject.toml's `error::DeprecationWarning`
# turns into an INTERNALERROR: the example is never printed and no later
# test runs.  Importing it once here, with that warning ignored, keeps both.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
