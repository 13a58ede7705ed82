"""One BLAS thread for the test session, as ``varcert.cli`` sets it; a value
set in the environment wins.  Set here because the tests load numpy before
they import the CLI."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
