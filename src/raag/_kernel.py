"""Kernel selection: the compiled raag._speedups when it was built, the pure
raag._purekernel otherwise. Both export normalize and survivors with the
same contracts; kernel_name() says which one this process uses."""

try:
    from raag._speedups import normalize, survivors
except ImportError:
    from raag._purekernel import normalize, survivors

    COMPILED = False
else:
    COMPILED = True


def kernel_name() -> str:
    return "compiled" if COMPILED else "pure"
