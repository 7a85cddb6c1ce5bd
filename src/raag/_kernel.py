"""Kernel selection: compiled extension when built, pure Python otherwise.

Set RAAG_PURE=1 in the environment to force the pure-Python fallback (the
benchmark and the parity tests import both implementations directly). Only
normalize has a compiled version; survivors is always the pure one.
"""

import os

from raag import _purekernel

COMPILED = False
_impl = _purekernel

if os.environ.get("RAAG_PURE", "").strip().lower() not in {"1", "true", "yes"}:
    try:
        from raag import _speedups
    except ImportError:
        pass
    else:
        _impl = _speedups
        COMPILED = True

normalize = _impl.normalize
survivors = _purekernel.survivors


def kernel_name() -> str:
    return "compiled" if COMPILED else "pure"
