"""Weakly supervised color naming with a learned visual-attention branch.

``CHROMA_THREADS`` caps the BLAS thread pools (1 = fully deterministic
mode). It is copied into the BLAS variables here, before any chroma
module imports numpy, since the pools are sized when numpy loads; a
BLAS variable that is already set wins.
"""

import os


def _cap_blas_threads() -> None:
    threads = os.environ.get("CHROMA_THREADS")
    if threads:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, threads)


_cap_blas_threads()

__version__ = "0.1.0"
