"""Exact Macdonald polynomial expansions.

Computes the integral form J_lambda(X; q, t) in several bases (modified
Schur, Schur, monomial) by independent routes: determinantal formulas,
creation-operator recursion, and a Gram-Schmidt orthogonalization oracle.
All arithmetic is exact over the field of rational functions in q and t.
"""

import os
import sys

__version__ = "0.1.0"

ENGINE_VERSION = __version__


def clear_caches() -> None:
    """Empty every module-level lru_cache in the loaded macdet modules,
    so the next computation runs cold.  A module that is not loaded yet
    has nothing cached."""
    for name, module in list(sys.modules.items()):
        if name.startswith(__name__ + "."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


def usable_cpus() -> int:
    """How many CPUs this process may run on: its affinity set where the
    platform reports one, else os.cpu_count(), else 1."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
