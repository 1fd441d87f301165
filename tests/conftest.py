"""Session set-up for the tier-1 suite.

Pins the BLAS and OpenMP thread pools to one thread before NumPy is
first imported.  Wall-clock checks such as the calibration test's
estimate-versus-measurement band assume single-threaded kernels; a
multithreaded BLAS oversubscribes a 2-core host and slows a 256x256
product by an order of magnitude.  The repository benchmark's runner
pins the same variables.  ``setdefault`` leaves an explicit setting in
the caller's environment alone.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
