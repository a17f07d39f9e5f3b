"""Write bench/reference.json: digests of J_lam for every (lam, basis)
the benchmark workloads can draw.

A digest is written only when the creation route and the Gram-Schmidt
oracle give the same canonical ``sym_to_json`` text.  The two build J_lam
independently; in each basis at most one of them goes through the
duality transport.  The benchmark then checks every output it times
against these digests.

    python3 bench/make_reference.py

It covers all three bases through weight 5 (the jpoly workloads and the
smoke test) and the monomial basis through weight 8 (the table workload).
Weight 8 takes a few minutes on the oracle.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from program import expansion_digest, load_macdet, reference_key

REFERENCE = Path(__file__).resolve().parent / "reference.json"
ROUTES = ("creation", "oracle")
ALL_BASES_TO = 5
MONOMIAL_TO = 8


def main() -> int:
    load_macdet()
    from macdet.cli import BASES, compute_expansion
    from macdet.partitions import partitions_of
    from macdet.symfunc import sym_to_json

    digests = {}
    for w in range(1, MONOMIAL_TO + 1):
        bases = BASES if w <= ALL_BASES_TO else ("monomial",)
        start = time.perf_counter()
        for basis in bases:
            for lam in partitions_of(w):
                texts = {expansion_digest(sym_to_json(
                    compute_expansion(lam, basis, method))) for method in ROUTES}
                if len(texts) != 1:
                    print(f"routes disagree on {basis} {lam}", file=sys.stderr)
                    return 1
                digests[reference_key(lam, basis)] = texts.pop()
        print(f"weight {w}: {len(bases)} bases agree "
              f"({time.perf_counter() - start:.1f} s)", file=sys.stderr)
    REFERENCE.write_text(json.dumps(
        {"routes": list(ROUTES), "digests": digests}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
