"""Print the environment fingerprint recorded with every benchmark result.

Runs in the interpreter the commands use. The BLAS thread variables are
reported as inherited; the benchmark never sets them.
"""

import json
import os
import platform
import sys

import numpy
import scipy

blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
json.dump(
    {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    },
    sys.stdout,
)
