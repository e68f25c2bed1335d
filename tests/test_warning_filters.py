"""The warning filters of ``pyproject.toml`` as the tests run under them.

A DeprecationWarning is an error, except the one mypy_extensions raises
when hypothesis imports libcst to report a failing property test; that one
entry must not let the library's own deprecations through.
"""

import warnings

import pytest

from quatinv import factor

LIBCST_IMPORT = ("mypy_extensions.TypedDict is deprecated, and will be "
                 "removed in a future version. Use typing.TypedDict or "
                 "typing_extensions.TypedDict instead.")


def test_a_deprecation_warning_from_the_library_is_an_error():
    with pytest.raises(DeprecationWarning, match="this call is deprecated"):
        warnings.warn_explicit("this call is deprecated", DeprecationWarning,
                               factor.__file__, 1, module="quatinv.factor")


def test_the_deprecation_warning_of_the_libcst_import_is_ignored():
    with warnings.catch_warnings(record=True) as seen:
        warnings.warn(LIBCST_IMPORT, DeprecationWarning)
    assert seen == []
