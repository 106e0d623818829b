"""softalign: a desk-scale laboratory for soft cross-modal alignment.

Softened targets from intra-modal self-similarity, negative
disentanglement, and symmetric KL objectives over toy dual-stream
encoders, with hand-derived gradients verified by finite differences and
synthetic many-to-many retrieval benchmarks. The namespace holds no
names: import the module that owns one (``from softalign import harness``).

Importing the package pins numpy's bundled OpenBLAS to one thread
(:func:`_pin_blas`), so no result depends on the BLAS thread count; the
package's own threads are :mod:`softalign.cpus`'s.
"""

__version__ = "0.1.0"

_SET_THREADS = "scipy_openblas_set_num_threads64_"


def _openblas():
    """numpy's bundled OpenBLAS as a ctypes library, or None without one."""
    import ctypes
    from pathlib import Path

    import numpy as np

    root = Path(np.__file__).parent
    for folder in (root.parent / "numpy.libs", root / ".dylibs"):
        for lib in sorted(folder.glob("libscipy_openblas64_*")):
            return ctypes.CDLL(str(lib))
    return None


def _pin_blas() -> bool:
    """Pin numpy's OpenBLAS to one thread through its
    ``scipy_openblas_set_num_threads64_``; returns whether it took.
    Without the library or that symbol, log a warning and change nothing."""
    import ctypes

    setter = getattr(_openblas(), _SET_THREADS, None)
    if setter is None:
        import logging

        logging.getLogger("softalign").warning(
            "numpy bundles no OpenBLAS with %s: its thread count is left as "
            "it is, and results may depend on it", _SET_THREADS)
        return False
    setter.argtypes, setter.restype = (ctypes.c_int,), None
    setter(1)
    return True


_pin_blas()
