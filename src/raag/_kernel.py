"""Kernel selection: the compiled raag._speedups when it was built, the pure
raag._purekernel otherwise. Both export normalize and survivors with the
same contracts; kernel_name() says which one this process uses. An
extension that is present but fails to import (say, a stale build missing
an entry point) falls back too, with a RuntimeWarning naming the error."""

try:
    from raag._speedups import normalize, survivors
except ImportError as exc:
    if not (isinstance(exc, ModuleNotFoundError) and exc.name == "raag._speedups"):
        import warnings

        warnings.warn(f"raag._speedups failed to import ({exc}); using the pure kernel", RuntimeWarning)
    from raag._purekernel import normalize, survivors

    COMPILED = False
else:
    COMPILED = True


def kernel_name() -> str:
    return "compiled" if COMPILED else "pure"
