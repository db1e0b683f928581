"""Run the suite with one BLAS thread.

The tests multiply and factor many small matrices, where a second BLAS
thread only adds synchronization; under load it slows the diamond tests
down several-fold.  The variables must be set before numpy is first
imported, and an explicit setting in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
