"""C-library settings: one OpenBLAS thread per replication worker, glibc's heap."""

import contextlib
import ctypes
import functools

# plain builds, and the symbol-prefixed builds numpy (64-bit) and scipy ship
_STEMS = ("openblas_{}_num_threads", "scipy_openblas_{}_num_threads64_",
          "scipy_openblas_{}_num_threads")


@functools.cache
def _openblas_controls() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS in /proc/self/maps."""
    paths = set()
    with contextlib.suppress(OSError), open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line}
    return tuple((getattr(lib, stem.format("get")), getattr(lib, stem.format("set")))
                 for lib in map(ctypes.CDLL, sorted(paths)) for stem in _STEMS
                 if hasattr(lib, stem.format("set")))


@contextlib.contextmanager
def one_blas_thread():
    """OpenBLAS at min(found, 1) threads inside the block."""
    saved = [(put, get()) for get, put in _openblas_controls()]
    for put, found in saved:
        put(min(found, 1))
    try:
        yield
    finally:
        for put, old in saved:
            put(old)


def keep_freed_memory() -> bool:
    """Make glibc serve blocks up to 32 MB from its heap and trim it only past
    64 MB free, so freed arrays are reused, not faulted in again as new pages."""
    with contextlib.suppress(OSError, TypeError, AttributeError):
        mallopt = ctypes.CDLL(None).mallopt  # M_MMAP_THRESHOLD -3, M_TRIM_THRESHOLD -1
        return bool(mallopt(-3, 32 << 20)) & bool(mallopt(-1, 64 << 20))
    return False
