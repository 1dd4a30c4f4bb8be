import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads, so OpenBLAS starts no threads
from .cli import main  # noqa: E402

sys.exit(main())
