"""Run one benchmark measurement from the repository root::

    python3 perfbench/run.py --workload hot-zipf --seed 1 --seconds 30 --trace 0

See ``perfbench/README.md`` for the workloads and every metric.
"""

import os
import sys
from pathlib import Path

if __name__ == "__main__":
    # one BLAS thread, as for the server (see bench._env); set before
    # numpy loads so the reference answers run the same way
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench.bench import main

    sys.exit(main())
