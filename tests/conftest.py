"""One BLAS thread per test process.

OpenBLAS reads its thread count when numpy first loads, and pytest and its
plugins here do not import numpy before this file.  On a small host the
default threads contend with each other on the many small products of the
kernel and its references.  An environment that sets these keeps its values.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
