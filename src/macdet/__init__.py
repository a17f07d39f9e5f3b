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


def fork_join(fn, shares: list) -> list:
    """[fn(share) for share in shares]: the first share computed here, each
    other one in a forked child that pickles back its result, or its
    exception to be raised here, through a pipe.  Every child is reaped
    before this returns or raises.  With one share, or no os.fork, every
    share runs in this process."""
    if len(shares) < 2 or not hasattr(os, "fork"):
        return [fn(share) for share in shares]
    import pickle
    children = []
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            if not (pid := os.fork()):
                try:
                    with os.fdopen(write, "wb") as pipe:
                        try:
                            outcome = True, fn(share)
                        except Exception as exc:
                            outcome = False, exc
                        pickle.dump(outcome, pipe)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write)
            children.append((pid, read))
        results = [fn(shares[0])]
    finally:
        # read each pipe before reaping its child, which blocks while
        # writing a result larger than the pipe holds
        joined = []
        for pid, read in children:
            with os.fdopen(read, "rb") as pipe:
                joined.append((pid, pipe.read(), os.waitpid(pid, 0)[1]))
    for pid, data, status in joined:
        if status := os.waitstatus_to_exitcode(status):
            raise ChildProcessError(f"fork_join child {pid} exited with status {status}")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        results.append(value)
    return results
