"""Worker processes for `table --jobs N` with N > 1.

The process-pool stack (concurrent.futures.process, multiprocessing,
pickle, socket, logging) is the largest import in the package, and no
other command needs it, so only cli.cmd_table imports this module, and
only when it runs more than one worker.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable


def map_in_workers(fn: Callable, items: Iterable, workers: int) -> list:
    """list(map(fn, items)), computed by `workers` worker processes;
    the results keep the order of items."""
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
