"""Pin BLAS and OpenMP to one thread for the test session.

Set before numpy is first imported, so the thread pools start at one;
on a loaded host an unpinned pool can make one fine-grid test many times
slower.  A value already in the environment is kept.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
