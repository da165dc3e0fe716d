"""Pin BLAS thread pools before numpy is first imported.

Every phase of a solve runs in the calling thread on small LAPACK and FFT
calls; one BLAS thread keeps the timing experiments reproducible from run
to run. Pre-set environment values are respected.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
