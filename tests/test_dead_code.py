"""Static guards over the package source: every module-level definition
and every method of a module-level class has a use somewhere, every
private definition a use inside the package, every public function,
class and method a use inside the package outside its own definition
(clear_caches and QtPoly.subs_t_eq_q excepted), no invariant rests on an
assert statement, every verify check has the one generator form, the
CLI and the verify suites reach the routes only through
macdonald.compute_expansion, gcd_cofactors is the one entry point of
the bivariate GCD, the determinant solve has one packed row sum, the
integer basis tables are applied to packed sums only in symfunc,
packed digits are decoded only where a term dict is read and no cache
is keyed on a whole expansion, macdet.fork_join is the one place
that forks, with no process pool imported, and no dominance interval is
filtered from the whole weight's partitions."""

import ast
from pathlib import Path

import macdet

PACKAGE = Path(macdet.__file__).parent
ROOT = PACKAGE.parents[1]


def _definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(name, node) of each module-level function, class and assigned
    name; for an assignment the node is the target Name."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.id, t) for t in targets if isinstance(t, ast.Name)]
    return found


def _methods(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(Class.method, node) of each non-dunder method of each
    module-level class."""
    return [(f"{node.name}.{item.name}", item)
            for node in tree.body if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (item.name.startswith("__") and item.name.endswith("__"))]


def _references(trees: list[ast.Module]) -> dict[str, list[ast.AST]]:
    """Every Name and Attribute node of the given trees, by name."""
    refs: dict[str, list[ast.AST]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append(node)
    return refs


def test_every_module_level_definition_is_referenced():
    sources = [path for folder in ("src", "tests", "bench")
               for path in sorted((ROOT / folder).rglob("*.py"))]
    trees = {path: ast.parse(path.read_text()) for path in sources}
    refs = _references(list(trees.values()))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in _definitions(trees[path]):
            if name.startswith("__") and name.endswith("__"):
                continue
            if not [ref for ref in refs.get(name, ()) if ref is not node]:
                unused.append(f"{path.stem}.{name}")
        unused += [f"{path.stem}.{label}" for label, node in _methods(trees[path])
                   if node.name not in refs]
    assert unused == []


def test_every_private_definition_is_used_by_the_package():
    """A private helper must have a use in src/ itself: a test alone
    cannot keep it alive."""
    trees = {path: ast.parse(path.read_text()) for path in sorted((ROOT / "src").rglob("*.py"))}
    refs = _references(list(trees.values()))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in _definitions(trees[path]):
            if not name.startswith("_") or (name.startswith("__") and name.endswith("__")):
                continue
            if not [ref for ref in refs.get(name, ()) if ref is not node]:
                unused.append(f"{path.stem}.{name}")
    assert unused == []


# Public names that only callers outside the package use, each kept for
# its reason: clear_caches is how tests and the benchmark empty every cache
# to run cold, which no route, suite or CLI path does; subs_t_eq_q is the
# q = t specialization of acceptance criterion 10, which a test could not
# write without re-implementing it on the term dict.
NAMED_ONLY_OUTSIDE = ("__init__.clear_caches", "qt.QtPoly.subs_t_eq_q")


def test_every_public_definition_is_named_by_the_package():
    """A public module-level function or class, or a public method of a
    module-level class, must be named in src/macdet outside its own
    definition: neither a test nor a call from its own body, such as a
    method's call of a namesake on another type, keeps it alive."""
    trees = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    refs = _references(list(trees.values()))
    unused = []
    for path, tree in trees.items():
        for label, node in _definitions(tree) + _methods(tree):
            if isinstance(node, ast.Name) or node.name.startswith("_"):
                continue
            inside = {id(sub) for sub in ast.walk(node)}
            if not [ref for ref in refs.get(node.name, ()) if id(ref) not in inside]:
                unused.append(f"{path.stem}.{label}")
    assert unused == list(NAMED_ONLY_OUTSIDE)


def test_package_holds_no_assert_statement():
    """python -O strips assert statements, so no invariant of the
    package may rest on one."""
    found = [f"{path.stem}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_check_results_come_only_from_the_tally():
    """Every check is a generator of outcomes that verify._tally turns
    into its CheckResult: nothing else builds one, and nothing records
    into one."""
    made, recorded = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {id(node): f"{path.stem}.{top.name}" for top in tree.body
                 if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for node in ast.walk(top)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            site = owner.get(id(node), f"{path.stem}:{node.lineno}")
            if name == "CheckResult":
                made.append(site)
            elif name == "record" and isinstance(func, ast.Attribute):
                recorded.append(site)
    assert made == ["verify._tally"]
    assert recorded == []


ROUTE_ENTRIES = frozenset(("jpoly_determinant", "jpoly_via_creation",
                           "dual_transport", "integral_form"))


def test_cli_and_verify_reach_routes_only_through_compute_expansion():
    """cli and verify import no route entry point and nothing from the
    oracle module, so what jpoly serves and what the suites check come
    from the one route table."""
    found = []
    for stem in ("cli", "verify"):
        for node in ast.walk(ast.parse((PACKAGE / f"{stem}.py").read_text())):
            if isinstance(node, ast.ImportFrom):
                module = "." * node.level + (node.module or "")
                found += [f"{stem}: {module} import {alias.name}" for alias in node.names
                          if module in (".oracle", "macdet.oracle") or alias.name == "oracle"
                          or alias.name in ROUTE_ENTRIES]
            elif isinstance(node, ast.Import):
                found += [f"{stem}: import {alias.name}" for alias in node.names
                          if alias.name == "macdet.oracle"]
    assert found == []


GCD_FUNCTIONS = frozenset(("gcd_cofactors", "monomial_gcd", "_t_gcd", "_t_gcd_heu",
                           "_b_gcd_heu"))


def test_gcd_cofactors_is_the_one_gcd_entry_point():
    """No function in src/ beside these has gcd in its name, and the
    bivariate heuristic is called only from gcd_cofactors, so every
    reduction of a fraction or a MultiPoly passes through it."""
    named, callers = set(), []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text())
        for top in ast.walk(tree):
            if not isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if "gcd" in top.name:
                named.add(top.name)
            callers += [top.name for node in ast.walk(top) if isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name) and node.func.id == "_b_gcd_heu"]
    assert named == GCD_FUNCTIONS
    assert callers == ["gcd_cofactors"]


def _calls_by_function(name: str) -> list[str]:
    """Module.function, or Module.Class.method, of each call in src/ to a
    callable of this name, by plain name or attribute."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = [(f"{path.stem}.{top.name}", top) for top in tree.body
                  if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef))]
        scopes += [(f"{path.stem}.{top.name}.{item.name}", item) for top in tree.body
                   if isinstance(top, ast.ClassDef) for item in top.body
                   if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for label, scope in scopes:
            found += [label for node in ast.walk(scope) if isinstance(node, ast.Call)
                      and (getattr(node.func, "id", None) == name
                           or getattr(node.func, "attr", None) == name)]
    return found


def test_packed_duality_has_one_path():
    """Duality on packed sums is PackedPoly.swap_qt under dual_transport,
    and a packed Schur or monomial sum is made only by a conversion step:
    relayout runs only there, a PackedPoly is built only by the creation
    route, the swap, the step and the Gram-Schmidt overlaps, which are
    pairing sums rather than Schur or monomial sums, and macdonald
    imports neither relayout nor the s -> m table."""
    assert set(_calls_by_function("relayout")) == {"symfunc._convert_step"}
    assert set(_calls_by_function("PackedPoly")) == {
        "macdonald.creation_step", "macdonald.jpoly_via_creation",
        "oracle.orthogonal_basis", "qt.PackedPoly.swap_qt", "symfunc._convert_step"}
    imported = {alias.name for node in ast.walk(ast.parse((PACKAGE / "macdonald.py").read_text()))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not imported & {"relayout", "_s_to_m"}


def test_bordered_expansion_has_one_packed_row_sum():
    """The determinant solve sums each row on one packed integer and
    divides it with dense_divide; it calls no term-dict accumulator, so no
    term-dict row loop runs beside the packed one as a size switch or a
    fallback."""
    solve = "macdonald.bordered_expansion"
    assert solve in _calls_by_function("pack")
    assert solve in _calls_by_function("dense_divide")
    assert solve not in _calls_by_function("add_scaled")
    assert solve not in _calls_by_function("add_product")


def test_dominance_intervals_are_not_filtered_from_the_whole_weight():
    """The upset and the downset are cut by dominance as they are built,
    so neither enumerates every partition of the weight; they and
    partitions_of share one generator."""
    intervals = {"partitions.dominance_upset", "partitions.dominance_downset"}
    assert not intervals & set(_calls_by_function("partitions_of"))
    assert set(_calls_by_function("_dominating")) == intervals | {"partitions.partitions_of"}


INTEGER_TABLES = frozenset(("_s_to_h", "_h_to_s", "_s_to_m", "_m_to_s", "_p_to_h", "_m_to_p"))


def test_integer_tables_stay_in_symfunc():
    """Outside symfunc no module imports or names an integer basis table,
    except that macdonald.monomial_cell sums Schur cells by m -> s; the
    creation step hands its h-mod sums to convert_basis, so every packed
    sum goes through a table in symfunc._convert_step alone."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "symfunc":
            continue
        tree = ast.parse(path.read_text())
        owner = {id(node): f"{path.stem}.{top.name}" for top in tree.body
                 if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                 for node in ast.walk(top)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                found |= {(f"{path.stem} import", alias.name) for alias in node.names
                          if alias.name in INTEGER_TABLES}
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in INTEGER_TABLES:
                found.add((owner.get(id(node), path.stem), name))
    assert found == {("macdonald import", "_m_to_s"), ("macdonald.monomial_cell", "_m_to_s")}
    assert "macdonald.creation_step" in _calls_by_function("convert_basis")


def _cached(node: ast.AST) -> bool:
    """Whether a function definition is decorated with lru_cache or
    cache, called or not, by plain name or attribute."""
    heads = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return any((getattr(d, "id", None) or getattr(d, "attr", None)) in ("lru_cache", "cache")
               for d in heads)


def test_decode_only_where_terms_are_read_and_cache_no_expansion():
    """unpack runs only on the first read of a PackedPoly's terms, so no
    route decodes a packed integer that it formed itself; and no cached
    function takes a SymExpansion, whose key would hash every
    coefficient and decode each packed one."""
    assert _calls_by_function("unpack") == ["qt.PackedPoly.__getattr__"]
    keyed = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _cached(node):
                args = node.args
                keyed += [f"{path.stem}.{node.name}({arg.arg})"
                          for arg in args.posonlyargs + args.args + args.kwonlyargs
                          if arg.annotation is not None
                          and "SymExpansion" in ast.unparse(arg.annotation)]
    assert keyed == []


def test_fork_join_is_the_one_parallel_path():
    """os.fork is called only inside macdet.fork_join, and no module of
    the package imports concurrent.futures or multiprocessing, so table
    --jobs and verify --suite all split their work one way."""
    assert _calls_by_function("fork") == ["__init__.fork_join"]
    pools = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            pools += [f"{path.stem}: {name}" for name in names
                      if name.split(".")[0] in ("concurrent", "multiprocessing")]
    assert pools == []
