"""Outside-in tracing of macdet's layers.

The tracer wraps public functions of the program at every module
binding (``exact_div``, ``qt_gcd``, ``convert_basis`` and others are
imported by name into other modules) and wraps methods on their class.
Each call becomes a span: name, start, end, parent and request.  Spans
of the arithmetic kernels (``qt.*`` and ``multipoly.*``) are only
aggregated, because they number in the millions; all other spans are
kept in memory and written out when the run ends.  ``uninstall`` puts
every original object back.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# (module, attribute, span name).  An attribute the program no longer
# has is skipped, so the benchmark keeps working as the program changes.
SPANS = (
    ("qt", "QtPoly.__mul__", "qt.mul"),
    ("qt", "QtPoly.__rmul__", "qt.mul"),
    ("qt", "exact_div", "qt.exact_div"),
    ("qt", "qt_gcd", "qt.gcd"),
    ("symfunc", "ordered_expansion", "symfunc.ordered_expansion"),
    ("symfunc", "convert_basis", "symfunc.convert_basis"),
    ("symfunc", "realize_in_variables", "symfunc.realize"),
    ("symfunc", "realize_modified", "symfunc.realize"),
    ("multipoly", "MultiPoly.__mul__", "multipoly.mul"),
    ("multipoly", "MultiPoly.__rmul__", "multipoly.mul"),
    ("multipoly", "MultiPoly.divided_difference", "multipoly.divided_difference"),
    ("divdiff", "raw_macdonald_op", "divdiff.raw_op"),
    ("divdiff", "raw_creation_op", "divdiff.raw_op"),
    ("divdiff", "dd_scalar_product", "divdiff.scalar_product"),
    ("macdonald", "EntryMatrix.build", "macdonald.cells"),
    ("macdonald", "monomial_cell", "macdonald.cells"),
    ("macdonald", "EntryMatrix.poly", "macdonald.assemble"),
    ("macdonald", "entry", "macdonald.assemble"),
    ("macdonald", "monomial_entry", "macdonald.assemble"),
    ("macdonald", "c_lambda", "macdonald.scale"),
    ("macdonald", "v_lambda", "macdonald.scale"),
    ("macdonald", "u_lambda", "macdonald.scale"),
    ("macdonald", "jpoly_modified_schur", "macdonald.jpoly_det"),
    ("macdonald", "jpoly_schur", "macdonald.jpoly_det"),
    ("macdonald", "jpoly_monomial", "macdonald.jpoly_det"),
    ("macdonald", "creation_step", "macdonald.creation_step"),
    ("macdonald", "dual_transport", "macdonald.dual_transport"),
    ("macdonald", "macdonald_op_action", "macdonald.op_action"),
    ("oracle", "orthogonal_basis", "oracle.orthogonal_basis"),
    ("oracle", "inner_product", "oracle.inner_product"),
    ("cli", "compute_expansion", "cli.compute_expansion"),
    ("cli", "render_text", "cli.render"),
    ("cli", "render_latex", "cli.render"),
    ("cli", "result_record", "cli.render"),
    ("cli", "cached_record", "cli.cached_record"),
    ("verify", "run_eigen_suite", "verify.eigen"),
    ("verify", "run_appendix_suite", "verify.appendix"),
    ("verify", "run_cross_suite", "verify.cross"),
    ("verify", "run_oracle_suite", "verify.oracle"),
)

KERNELS = frozenset(("qt.mul", "qt.exact_div", "qt.gcd",
                     "multipoly.mul", "multipoly.divided_difference"))

# The determinant solve is what is left of a jpoly_* span once these
# descendants are taken out; nested jpoly_* spans keep their own solve.
SOLVE_ROOT = "macdonald.jpoly_det"
SOLVE_EXCLUDES = frozenset(("macdonald.cells", "macdonald.assemble",
                            "macdonald.scale", "macdonald.dual_transport",
                            SOLVE_ROOT))


class _Frame:
    __slots__ = ("span_id", "name", "child", "excluded")

    def __init__(self, span_id: int, name: str):
        self.span_id = span_id
        self.name = name
        self.child = 0.0
        self.excluded = 0.0


class Tracer:
    def __init__(self):
        self.stack: list[_Frame] = []
        self.active: Counter = Counter()
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.max_terms = 0
        self.solve_s = 0.0
        self.spans: list[tuple] = []
        self.request = -1
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, name: str) -> _Frame:
        self._next_id += 1
        frame = _Frame(self._next_id, name)
        self.stack.append(frame)
        self.active[name] += 1
        return frame

    def _close(self, frame: _Frame, start: float, end: float) -> None:
        name = frame.name
        stack = self.stack
        stack.pop()
        dur = end - start
        self.calls[name] += 1
        self.active[name] -= 1
        if not self.active[name]:
            self.total_s[name] += dur
        self.self_s[name] += dur - frame.child
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child += dur
        if name == SOLVE_ROOT:
            self.solve_s += dur - frame.excluded
        if name in SOLVE_EXCLUDES:
            for outer in reversed(stack):
                if outer.name == SOLVE_ROOT:
                    outer.excluded += dur
                    break
                if outer.name in SOLVE_EXCLUDES:
                    break
        if name not in KERNELS:
            self.spans.append((frame.span_id,
                               parent.span_id if parent is not None else 0,
                               self.request, name, start, end))

    def wrap(self, name: str, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            frame = tracer._open(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, start, perf_counter())
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- counters at the layer boundaries ---------------------------------

    def _observers(self, modules: dict) -> dict:
        qt = modules["qt"]
        poly_type = qt.QtPoly
        counts = self.counts

        def after_mul(args, result):
            a, b = args
            nb = len(b.terms) if isinstance(b, poly_type) else 1
            counts["qt.mul.term_products"] += len(a.terms) * nb
            if isinstance(result, poly_type):
                size = max(len(a.terms), nb, len(result.terms))
                if size > self.max_terms:
                    self.max_terms = size

        def after_div(args, result):
            if result is not None:
                counts["qt.exact_div.hits"] += 1

        def before_gcd(args):
            if any(isinstance(p, poly_type) and p.is_monomial() for p in args):
                counts["qt.gcd.monomial_calls"] += 1

        def after_gcd(args, result):
            if result.is_one():
                counts["qt.gcd.trivial"] += 1

        observers = {
            "qt.mul": (None, after_mul),
            "qt.exact_div": (None, after_div),
            "qt.gcd": (before_gcd, after_gcd),
        }
        cli = modules.get("cli")
        if cli is not None and hasattr(cli, "cache_dir") and hasattr(cli, "record_key"):
            def before_cached(args):
                lam, basis, method = args[0]
                path = Path(cli.cache_dir()) / (cli.record_key(lam, basis, method) + ".json")
                counts["cli.disk_cache.lookups"] += 1
                if path.exists():
                    counts["cli.disk_cache.hits"] += 1

            observers["cli.cached_record"] = (before_cached, None)
        return observers

    # -- installing and removing the wrappers -----------------------------

    def install(self, modules: list) -> None:
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        observers = self._observers(by_name)
        for module_name, attr, span in SPANS:
            module = by_name.get(module_name)
            if module is None:
                continue
            before, after = observers.get(span, (None, None))
            if "." in attr:
                self._wrap_method(module, attr, span, before, after)
            else:
                self._wrap_function(modules, module, attr, span, before, after)

    def _wrap_method(self, module, attr, span, before, after) -> None:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name, None)
        if cls is None or meth not in vars(cls):
            return
        raw = vars(cls)[meth]
        if isinstance(raw, classmethod):
            patched = classmethod(self.wrap(span, raw.__func__, before, after))
        else:
            patched = self.wrap(span, raw, before, after)
        self._patches.append((cls, meth, raw))
        setattr(cls, meth, patched)

    def _wrap_function(self, modules, module, attr, span, before, after) -> None:
        original = vars(module).get(attr)
        if original is None:
            return
        patched = self.wrap(span, original, before, after)
        for owner in modules:
            for key, value in list(vars(owner).items()):
                if value is original:
                    self._patches.append((owner, key, original))
                    setattr(owner, key, patched)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- results ------------------------------------------------------------

    def layer_table(self) -> dict:
        """Calls, inclusive and self seconds of every span name seen."""
        return {name: {"calls": self.calls[name],
                       "total_s": self.total_s[name],
                       "self_s": self.self_s[name]}
                for name in sorted(self.calls)}
