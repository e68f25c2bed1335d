"""Fixtures shared by the tests under ``tests/``."""

import sys

import numpy as np
import pytest


@pytest.fixture
def record(monkeypatch):
    """``record(fn, what, calls=None, *, result=False, modules=None)``
    wraps ``fn`` for the test and returns the list its calls append to.

    The wrapper replaces ``fn`` under every name that a loaded ``quatinv``
    module binds it to (an alias such as the CLI's ``qrank`` included), and
    under ``numpy.linalg`` for a LAPACK entry point such as
    ``np.linalg.svd``; ``modules`` narrows the search to the modules given.
    A classmethod such as ``QMatrix.eye`` is replaced on its class.  Each
    call appends ``what(*args, **kwargs)`` to ``calls`` (a new list when
    None) and then calls ``fn`` through.  With ``result``, the call comes
    first and ``what(out, *args, **kwargs)`` sees its result ``out`` and
    the arguments as the call left them.
    """
    def record(fn, what, calls=None, *, result=False, modules=None):
        calls = [] if calls is None else calls

        def wrapper(*args, **kwargs):
            if not result:
                calls.append(what(*args, **kwargs))
                return fn(*args, **kwargs)
            out = fn(*args, **kwargs)
            calls.append(what(out, *args, **kwargs))
            return out

        owner = getattr(fn, "__self__", None)
        if isinstance(owner, type):  # a classmethod
            monkeypatch.setattr(owner, fn.__name__, staticmethod(wrapper))
            return calls
        if modules is None:
            modules = [mod for name, mod in list(sys.modules.items())
                       if name.split(".")[0] == "quatinv"] + [np.linalg]
        bound = [(mod, name) for mod in modules
                 for name, value in vars(mod).items() if value is fn]
        assert bound, f"no module binds {fn.__qualname__}"
        for mod, name in bound:
            monkeypatch.setattr(mod, name, wrapper)
        return calls

    return record
