"""Pin BLAS and OpenMP to one thread.

Import this before numpy loads anywhere in the process; child processes
inherit the setting. On a 2-core host analyze_raw takes 0.74-0.77 s at one
thread and 1.19-2.04 s at two.
"""
import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
