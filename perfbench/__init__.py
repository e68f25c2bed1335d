"""End-to-end and per-layer benchmark of quatinv; ``run.py`` is the entry point."""

# BLAS thread settings recorded with every result and defaulted by run.py
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
