"""Command line surface: jpoly, verify and table subcommands.

jpoly computes one expansion of J_lam by a chosen construction route
and renders it as text, JSON or LaTeX.  verify runs the named check
suite and prints a machine-readable report.  table writes one JSON
array of result records for all partitions up to a weight, backed by a
content-addressed cache directory so reruns are byte-identical.

Every renderer lives here: text, JSON records, and the LaTeX of
expansions and of bordered determinant matrices in bracket shorthand.

Importing this module leaves out what only running a command uses: the
table cache imports hashlib and tempfile when it first runs, and table
--jobs N > 1, like verify --suite all on two or more usable CPUs, imports
pickle in macdet.fork_join, which forks children for all shares of the
work but the one this process computes; no process pool is ever loaded.
verify and divdiff stay top-level imports, so that any CLI
start caches their bytecode with the rest: from cached bytecode they cost
about 2 ms, while a process that writes no bytecode and compiles them
from source peaks about 2.5 MB higher.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from json.encoder import encode_basestring_ascii as _ascii
from pathlib import Path

from . import ENGINE_VERSION, fork_join, usable_cpus
from .macdonald import BASIS_TAG, EntryMatrix, compute_expansion
from .partitions import Partition, format_partition, partition, partitions_of, weight
from .qt import QtPoly, QtRat
from .symfunc import Cell, SymExpansion, sym_to_json
from .verify import (
    run_all,
    run_appendix_suite,
    run_cross_suite,
    run_eigen_suite,
    run_oracle_suite,
    summarize,
)

# The bases and methods the CLI names; compute_expansion serves every pair.
BASES = tuple(BASIS_TAG)
METHODS = ("determinant", "creation", "oracle")


# ---------------------------------------------------------------------------
# renderers

def render_text(f: SymExpansion) -> str:
    if set(f.terms) == {()}:
        coef = f.terms[()]
        return "1" if coef.is_one() else f"({coef})"
    return str(f)


def _latex_poly(poly: QtPoly) -> str:
    """The canonical text of poly with braced exponents and no '*'."""
    return re.sub(r"\^(\d+)", r"^{\1}", str(poly)).replace("*", " ")


def _latex_scalar(coef: QtRat) -> str:
    if coef.den.is_one():
        return _latex_poly(coef.num)
    return r"\frac{" + _latex_poly(coef.num) + "}{" + _latex_poly(coef.den) + "}"


_LATEX_BASIS = {
    "s-mod": lambda sub: f"S_{{{sub}}}[X^{{tq}}]",
    "s": lambda sub: f"s_{{{sub}}}",
    "m": lambda sub: f"m_{{{sub}}}",
}


def render_latex_expansion(f: SymExpansion) -> str:
    if set(f.terms) == {()}:
        coef = f.terms[()]
        return "1" if coef.is_one() else _latex_scalar(coef)
    if not f.terms:
        return "0"
    chunks = []
    for lam, coef in f.sorted_terms():
        label = _LATEX_BASIS[f.basis](format_partition(lam))
        if coef.is_one():
            piece = label
        else:
            piece = r"\left(" + _latex_scalar(coef) + r"\right)" + label
        chunks.append(piece)
    return " + ".join(chunks)


def _vector_cell_latex(pairs: Cell) -> str:
    pieces = [{1: "+", -1: "-"}.get(coef, f"{coef:+d}") + "[" + format_partition(alpha) + "]"
              for coef, alpha in pairs]
    return "".join(pieces).lstrip("+") or "0"


def latex_matrix(em: EntryMatrix) -> str:
    """Render a bordered matrix as a LaTeX array in bracket shorthand;
    the s and m headers name their alphabet X_w, w = |lam|."""
    alphabet = "" if em.basis == "s-mod" else f"[X_{{{weight(em.lam)}}}]"
    rows = [[_LATEX_BASIS[em.basis](format_partition(mu)) + alphabet for mu in em.columns]]
    rows += [[_vector_cell_latex(cell) for cell in row] for row in em.cells]
    body = "".join(" & ".join(row) + " \\\\\n" for row in rows)
    return r"\left|\begin{array}{" + "c" * len(em.columns) + "}\n" + body + r"\end{array}\right|"


def render_latex(lam: Partition, basis: str, method: str,
                 expansion: SymExpansion) -> str:
    """The determinant routes render their bordered matrices with the
    bracket shorthand; everything else renders the expansion itself."""
    if lam and method == "determinant":
        return latex_matrix(EntryMatrix.build(lam, BASIS_TAG[basis]))
    return render_latex_expansion(expansion)


def _record_head(lam: Partition, basis: str, method: str) -> dict:
    """The fields that name a record's task: the cache key hashes them and
    every record carries them."""
    return {"lambda": list(lam), "basis": basis, "method": method,
            "engine_version": ENGINE_VERSION}


def result_record(lam: Partition, basis: str, method: str,
                  expansion: SymExpansion, timing: float | None = None) -> dict:
    record = dict(_record_head(lam, basis, method), n=weight(lam),
                  expansion=sym_to_json(expansion))
    if timing is not None:
        record["timing"] = timing
    return record


def _json_ints(values: list[int], indent: str) -> str:
    """json.dumps(values, indent=2) for a list of ints nested at indent."""
    if not values:
        return "[]"
    return ("[\n" + ",\n".join(indent + "  " + int.__repr__(v) for v in values)
            + "\n" + indent + "]")


def record_json(record: dict) -> str:
    """json.dumps(record, indent=2, sort_keys=True) for a record that
    result_record writes, laid out from its fixed shape in one pass:
    strings go through json's ASCII escaper and numbers through repr, as
    json writes them.  json's indenting encoder is pure Python; this is
    the one writer of record text."""
    expansion = record["expansion"]
    terms = ",\n".join(
        f'      {{\n        "coeff_den": {_ascii(term["coeff_den"])},'
        f'\n        "coeff_num": {_ascii(term["coeff_num"])},'
        f'\n        "partition": {_json_ints(term["partition"], "        ")}\n      }}'
        for term in expansion["terms"])
    terms = f"[\n{terms}\n    ]" if terms else "[]"
    fields = [
        f'"basis": {_ascii(record["basis"])}',
        f'"engine_version": {_ascii(record["engine_version"])}',
        f'"expansion": {{\n    "basis": {_ascii(expansion["basis"])},'
        f'\n    "terms": {terms},'
        f'\n    "weight": {int.__repr__(expansion["weight"])}\n  }}',
        f'"lambda": {_json_ints(record["lambda"], "  ")}',
        f'"method": {_ascii(record["method"])}',
        f'"n": {int.__repr__(record["n"])}',
    ]
    if "timing" in record:
        fields.append(f'"timing": {float.__repr__(record["timing"])}')
    return "{\n  " + ",\n  ".join(fields) + "\n}"


# ---------------------------------------------------------------------------
# result cache

def _cache_root() -> str:
    return os.environ.get("MACDET_CACHE_DIR") or os.path.expanduser("~/.cache/macdet")


def cache_dir() -> Path:
    return Path(_cache_root())


_KEY_ENCODER = json.JSONEncoder(sort_keys=True)  # json.dumps(x, sort_keys=True) builds one


def record_key(lam: Partition, basis: str, method: str) -> str:
    import hashlib
    blob = _KEY_ENCODER.encode(_record_head(lam, basis, method))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# The keys of a timed result_record: the only records the cache serves.
_RECORD_KEYS = frozenset(("lambda", "basis", "method", "n", "expansion",
                          "engine_version", "timing"))
_EXPANSION_KEYS = frozenset(("basis", "weight", "terms"))
_TERM_KEYS = frozenset(("partition", "coeff_num", "coeff_den"))


def _is_record_for(record: object, lam: Partition, basis: str, method: str) -> bool:
    """Whether a parsed record has exactly the shape result_record writes
    for this task, in one walk of exact type tests (JSON true is not 1):
    the task's head, a finite timing of at least 0, and terms headed by
    distinct partitions of the weight."""
    if type(record) is not dict or record.keys() != _RECORD_KEYS:
        return False
    w, head, expansion = weight(lam), record["lambda"], record["expansion"]
    if not (type(head) is list and all(type(part) is int for part in head)
            and tuple(head) == lam and record["basis"] == basis
            and record["method"] == method and record["engine_version"] == ENGINE_VERSION
            and type(record["n"]) is int and record["n"] == w
            and type(record["timing"]) is float and 0 <= record["timing"] < math.inf
            and type(expansion) is dict and expansion.keys() == _EXPANSION_KEYS
            and expansion["basis"] == BASIS_TAG[basis] and type(expansion["weight"]) is int
            and expansion["weight"] == w and type(expansion["terms"]) is list
            and expansion["terms"]):
        return False
    unseen = set(partitions_of(w))
    for term in expansion["terms"]:
        parts = term.get("partition") if type(term) is dict else None
        if not (type(parts) is list and term.keys() == _TERM_KEYS
                and type(term["coeff_num"]) is str and type(term["coeff_den"]) is str
                and all(type(part) is int for part in parts)
                and (mu := tuple(parts)) in unseen):
            return False
        unseen.remove(mu)
    return True


def cached_record(task: tuple[Partition, str, str]) -> bytes:
    """The record for one (lam, basis, method) task as the bytes of
    json.dumps(record, indent=2, sort_keys=True), computed and stored on a
    miss.  A cache file is the sha256 hex digest of its body, a newline,
    then the body.  A stored body, timing included, is served byte for
    byte only when the digest matches, the body is ASCII with no
    backslash, the record has exactly the shape result_record writes for
    this task and engine version, and the body holds 28 + 10T quote bytes
    for its T terms; anything else is recomputed and overwritten.  The
    digest catches corruption, not a wrong record stored with its digest;
    a body whose values pass is served as stored.

    The count means no JSON object names a key twice: with no backslash
    each string token holds two '"' bytes and JSON has none outside them;
    the served shape holds 14 + 5T strings (7 + 3 + 3T keys, 4 + 2T string
    values, all else numbers); and a key named twice adds a string token
    that the parse drops, whatever the whitespace.  record_json writes no
    backslash, so only bodies with an escape are recomputed for the test."""
    import hashlib
    import tempfile
    lam, basis, method = task
    root = _cache_root()
    path = os.path.join(root, record_key(lam, basis, method) + ".json")
    try:
        with open(path, "rb") as handle:
            digest, _, body = handle.read().partition(b"\n")
        if (digest == hashlib.sha256(body).hexdigest().encode() and body.isascii()
                and b"\\" not in body):
            record = json.loads(body)
            if (_is_record_for(record, lam, basis, method) and body.count(b'"')
                    == 28 + 10 * len(record["expansion"]["terms"])):
                return body
    except (OSError, ValueError, RecursionError):
        pass
    start = time.perf_counter()
    expansion = compute_expansion(lam, basis, method)
    elapsed = round(time.perf_counter() - start, 6)
    body = record_json(result_record(lam, basis, method, expansion, elapsed)).encode()
    try:
        cache_dir().mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(hashlib.sha256(body).hexdigest().encode() + b"\n" + body)
            os.replace(tmp, path)
        except OSError:
            os.unlink(tmp)
            raise
    except OSError:
        pass
    return body


# ---------------------------------------------------------------------------
# subcommands

def cmd_jpoly(args: argparse.Namespace) -> int:
    lam = args.lam
    expansion = compute_expansion(lam, args.basis, args.method)
    if args.format == "text":
        print(render_text(expansion))
    elif args.format == "json":
        print(record_json(result_record(lam, args.basis, args.method, expansion)))
    else:
        print(render_latex(lam, args.basis, args.method, expansion))
    return 0


# Each suite's runner and the options it reads, which its report names.
_SUITES = {
    "eigen": (run_eigen_suite, ("max_weight",)),
    "appendix": (run_appendix_suite, ("seed", "samples")),
    "cross": (run_cross_suite, ("max_weight",)),
    "oracle": (run_oracle_suite, ("max_weight",)),
    "all": (run_all, ("max_weight", "seed", "samples")),
}


def cmd_verify(args: argparse.Namespace) -> int:
    runner, options = _SUITES[args.suite]
    chosen = {option: getattr(args, option) for option in options}
    report = {"suite": args.suite, **chosen, **summarize(runner(**chosen))}
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["passed"] else 1


def json_array(bodies: list[bytes]) -> bytes:
    """json.dumps(values, indent=2, sort_keys=True) + newline from each value's
    own such text, which nested gains two spaces after each newline."""
    return (b"[\n  " + b",\n  ".join(body.replace(b"\n", b"\n  ") for body in bodies)
            + b"\n]\n" if bodies else b"[]\n")


def cmd_table(args: argparse.Namespace) -> int:
    shapes = [lam for w in range(1, args.max_weight + 1)
              for lam in partitions_of(w)]
    tasks = [(lam, args.basis, args.method) for lam in shapes]
    workers = min(args.jobs, len(tasks), usable_cpus())
    # interleaved shares balance the weights, which grow along the tasks
    shares = fork_join(lambda share: [cached_record(task) for task in share],
                       [tasks[i::workers] for i in range(workers)])
    bodies = [shares[i % workers][i // workers] for i in range(len(tasks))]
    try:
        Path(args.out).write_bytes(json_array(bodies))
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def partition_argument(text: str) -> Partition:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid partition {text!r}: expected comma-separated integers")
    try:
        return partition(parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid partition {text!r}: {exc}")


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


positive_int = _int_at_least(1)
nonnegative_int = _int_at_least(0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macdet",
        description="Macdonald polynomials J_lam by determinantal and "
                    "creation-operator constructions, with verification "
                    "suites and cached tables.")
    sub = parser.add_subparsers(dest="command", required=True)

    jp = sub.add_parser("jpoly", help="compute one expansion of J_lam")
    jp.add_argument("--lambda", dest="lam", type=partition_argument,
                    required=True, metavar="PARTS",
                    help="comma-separated parts, e.g. 2,2,1; 0 is empty")
    jp.add_argument("--basis", choices=BASES, default="smod")
    jp.add_argument("--method", choices=METHODS, default="determinant")
    jp.add_argument("--format", choices=("json", "latex", "text"),
                    default="text")
    jp.set_defaults(func=cmd_jpoly)

    vf = sub.add_parser("verify", help="run a verification suite")
    vf.add_argument("--suite", choices=tuple(_SUITES), default="all")
    vf.add_argument("--max-weight", type=nonnegative_int, default=4,
                    dest="max_weight")
    vf.add_argument("--seed", type=int, default=0)
    vf.add_argument("--samples", type=positive_int, default=100,
                    help="sample budget per randomized appendix check")
    vf.set_defaults(func=cmd_verify)

    tb = sub.add_parser("table", help="write cached result records")
    tb.add_argument("--max-weight", type=nonnegative_int, required=True,
                    dest="max_weight")
    tb.add_argument("--basis", choices=BASES, required=True)
    tb.add_argument("--method", choices=METHODS, default="determinant")
    tb.add_argument("--out", required=True)
    tb.add_argument("--jobs", type=positive_int, default=1,
                    help="worker processes for record computation, at "
                         "most one per record and one per usable CPU")
    tb.set_defaults(func=cmd_table)
    return parser


# The parser main reuses: built once per process, on first use, since
# building it costs about as much as a small request.
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and return its exit code; bad arguments exit 2.

    Every call in a process parses with one parser, built by
    build_parser() on the first call.  It is process setup, not a
    result cache: clear_caches() leaves it alone, and a call with it
    behaves as in a fresh process."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
