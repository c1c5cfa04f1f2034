"""Test-session setup: one BLAS thread.

scipy's L-BFGS-B makes many tiny LAPACK calls; a multithreaded OpenBLAS
spins its worker threads on each of them, which costs CPU time and, on a
busy machine, wall time.  Set before numpy is first imported.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
