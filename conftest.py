"""Test-session setup, loaded by pytest before any test module imports numpy.

BLAS runs single-threaded unless the caller chose otherwise, as in the
benchmark's child processes.  The matrices here are small (d^2 <= 484), so
extra BLAS threads only spin, and in the forked workers of the
gate-dependence pool they compete with the other worker for the cores: on a
2-vCPU machine two workers with two BLAS threads each were slower than one.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
