"""Loading the macdet sources of a checkout, cold starts, and output digests.

The benchmark imports the program from ``<root>/src`` and talks to it
only through its public surface.  This module holds what both the
benchmark runner (run.py) and the reference generator need: locating and
importing the package, finding every ``functools.lru_cache`` the
package holds, and the canonical digest of an expansion.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import pkgutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class ProgramMissing(RuntimeError):
    """The checkout holds no macdet sources to benchmark."""


def load_macdet() -> list:
    """Import macdet from this checkout's src/ and return its modules."""
    if not (SRC / "macdet" / "__init__.py").is_file():
        raise ProgramMissing(f"no macdet package under {SRC}")
    sys.path.insert(0, str(SRC))
    import macdet
    if Path(macdet.__file__).resolve().parent != (SRC / "macdet").resolve():
        raise ProgramMissing(
            f"imported macdet from {macdet.__file__}, not from {SRC}")
    return [importlib.import_module(f"macdet.{info.name}")
            for info in pkgutil.iter_modules(macdet.__path__)]


def find_caches(modules: list) -> list:
    """Every lru_cache bound at module level in the modules, each once."""
    found: dict[int, object] = {}
    for module in modules:
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info"):
                found[id(obj)] = obj
    return list(found.values())


class ColdStart:
    """Clears every lru_cache before a one-shot request or a batch run,
    as a fresh process would see them, and keeps the hit and miss counts
    that each clear would otherwise discard.  It also collects garbage,
    because a fresh process starts without any for the collector to
    find."""

    def __init__(self, caches: list):
        self.caches = caches
        self.hits = 0
        self.misses = 0

    def harvest(self) -> None:
        for cache in self.caches:
            info = cache.cache_info()
            self.hits += info.hits
            self.misses += info.misses

    def __call__(self) -> None:
        self.harvest()
        for cache in self.caches:
            cache.cache_clear()
        warm = [c for c in self.caches if c.cache_info().currsize]
        if warm:
            raise RuntimeError(f"{len(warm)} caches still hold entries")
        gc.collect()

    def reset_counts(self) -> None:
        self.hits = self.misses = 0


def expansion_digest(expansion_json: dict) -> str:
    """sha256 of the canonical text of a ``sym_to_json`` expansion."""
    text = json.dumps(expansion_json, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def reference_key(lam: tuple[int, ...], basis: str) -> str:
    return f"{basis}:{','.join(map(str, lam))}"
