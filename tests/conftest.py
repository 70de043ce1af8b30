"""Test-session setup, run before any test module imports numpy."""

import os

# OpenBLAS's default thread pool can stall a first call for a second on a
# small machine; the tests time nothing that needs more than one thread.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
