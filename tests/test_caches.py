"""clear_caches leaves no module-level lru_cache of the package filled."""

import importlib
import pkgutil

import macdet
from macdet import verify
from macdet.cli import compute_expansion
from macdet.verify import run_all


def _module_caches():
    found = {}
    for info in pkgutil.iter_modules(macdet.__path__):
        module = importlib.import_module(f"macdet.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and hasattr(obj, "cache_clear"):
                found[f"{module.__name__}.{name}"] = obj
    return found


def test_clear_caches_empties_every_module_cache(monkeypatch):
    for method in ("determinant", "creation", "oracle"):
        for basis in ("smod", "schur", "monomial"):
            compute_expansion((2, 1), basis, method)
    # on one usable CPU run_all keeps every suite, and so every cache it
    # fills, in this process
    monkeypatch.setattr(verify, "usable_cpus", lambda: 1)
    run_all(max_weight=3, seed=0, samples=2)
    caches = _module_caches()
    assert [name for name, c in caches.items() if not c.cache_info().currsize] == []
    macdet.clear_caches()
    assert [name for name, c in caches.items() if c.cache_info().currsize] == []
