"""Check-suite plumbing: bookkeeping, reproducibility, small-weight runs."""

import json
import multiprocessing
from time import perf_counter

import pytest

from macdet import clear_caches, macdonald, verify
from macdet.cli import main
from macdet.symfunc import SymExpansion
from macdet.verify import (
    _box_partitions,
    _compositions,
    _tally,
    run_appendix_suite,
    run_cross_suite,
    run_eigen_suite,
    run_oracle_suite,
    summarize,
)


def _run_all_on(monkeypatch, cpus):
    """run_all as on a host with cpus usable CPUs; no worker outlives it."""
    monkeypatch.setattr(verify, "usable_cpus", lambda: cpus)
    try:
        return verify.run_all(max_weight=4, seed=3, samples=2)
    finally:
        assert multiprocessing.active_children() == []


def test_check_result_bookkeeping():
    assert _tally("demo", True, iter([])).passed
    check = _tally("demo", True, iter([(True, "first"), (False, "second"), (False, "third")]))
    assert check.instances == 3
    assert check.failures == 2
    assert check.detail == "second"
    assert not check.passed


def test_summarize_shape():
    good = _tally("good", False, iter([(True, "")]))
    bad = _tally("bad", True, iter([(False, "ctx")]))
    report = summarize([good, bad])
    assert report["passed"] is False
    assert [c["name"] for c in report["checks"]] == ["good", "bad"]
    assert report["checks"][0] == {
        "name": "good", "instances": 1, "failures": 0,
        "sampled": False, "detail": "",
    }
    assert report["checks"][1]["detail"] == "ctx"
    assert summarize([good])["passed"] is True


def test_eigen_suite_small_weights():
    results = run_eigen_suite(max_weight=3)
    assert [r.name for r in results] == [
        "eigen-first-operator", "eigen-higher-operators"]
    assert all(r.passed for r in results)
    assert all(r.instances > 0 for r in results)


def test_eigen_suite_weight_8():
    clear_caches()
    start = perf_counter()
    results = run_eigen_suite(max_weight=8)
    elapsed = perf_counter() - start
    failing = [r.name + ": " + r.detail for r in results if not r.passed]
    assert failing == []
    assert [r.instances for r in results] == [67, 14]
    assert elapsed < 10.0, f"eigen sweep took {elapsed:.1f}s"


def test_oracle_suite_small_weights():
    results = run_oracle_suite(max_weight=3)
    assert [r.name for r in results] == [
        "modified-determinant-vs-oracle",
        "creation-vs-oracle",
        "schur-determinant-vs-oracle",
        "monomial-determinant-vs-oracle",
    ]
    # one instance per partition of weight <= 3
    assert all(r.instances == 7 for r in results)
    assert all(r.passed for r in results)


def test_cross_suite_small_weights():
    results = run_cross_suite(max_weight=3)
    assert [r.name for r in results] == [
        "schur-routes-agree",
        "creation-matches-determinant",
        "monomial-matches-schur-conversion",
        "symbolic-vs-raw-macdonald",
        "symbolic-vs-raw-creation",
    ]
    assert all(r.passed for r in results)


def test_cross_suite_weight_8():
    clear_caches()
    start = perf_counter()
    results = run_cross_suite(max_weight=8)
    elapsed = perf_counter() - start
    failing = [r.name + ": " + r.detail for r in results if not r.passed]
    assert failing == []
    assert [r.instances for r in results] == [67, 67, 67, 33, 6]
    assert elapsed < 60.0, f"cross sweep took {elapsed:.1f}s"


def test_planted_wrong_route_fails_its_checks_from_the_first_planted_shape(monkeypatch):
    """Negative control: a monomial determinant that is wrong on two
    shapes fails exactly the oracle and cross checks that read it, twice
    each, and names the first planted shape."""
    planted = {(2,), (2, 1)}
    real = macdonald.jpoly_determinant

    def wrong_on_planted(lam, basis):
        got = real(lam, basis)
        return -got if basis == "m" and lam in planted else got

    monkeypatch.setattr(macdonald, "jpoly_determinant", wrong_on_planted)
    for results, broken in (
            (run_oracle_suite(max_weight=3), "monomial-determinant-vs-oracle"),
            (run_cross_suite(max_weight=3), "monomial-matches-schur-conversion")):
        by_name = {r.name: r for r in results}
        assert (by_name[broken].instances, by_name[broken].failures) == (7, 2)
        assert by_name[broken].detail == "lam=(2,)"
        assert [r.name for r in results if not r.passed] == [broken]


def test_wrong_oracle_fails_every_oracle_check_once(monkeypatch):
    """Negative control for the oracle side: with m_(1,1) added to the
    reference of (2,), each oracle check fails once, the direct checks at
    (2,) and the checks against its s-mod form, which comes by duality
    from the conjugate, at (1, 1)."""
    real = macdonald.integral_form

    def wrong_on_two(lam):
        got = real(lam)
        return got + SymExpansion.single("m", (1, 1)) if lam == (2,) else got

    clear_caches()
    monkeypatch.setattr(macdonald, "integral_form", wrong_on_two)
    results = run_oracle_suite(max_weight=2)
    clear_caches()
    assert {r.name: (r.failures, r.detail) for r in results} == {
        "modified-determinant-vs-oracle": (1, "lam=(1, 1)"),
        "creation-vs-oracle": (1, "lam=(1, 1)"),
        "schur-determinant-vs-oracle": (1, "lam=(2,)"),
        "monomial-determinant-vs-oracle": (1, "lam=(2,)"),
    }


def test_check_that_raises_is_reported_as_a_failure(monkeypatch, capsys):
    """A negated s-mod solve of (1, 1) makes the Schur determinant of (2,)
    raise in its duality transport: that instance is one failure named by
    its exception, and the report still prints, with exit code 1."""
    real = macdonald.jpoly_determinant

    def negated_on_one_one(lam, basis):
        got = real(lam, basis)
        return -got if (lam, basis) == ((1, 1), "s-mod") else got

    clear_caches()
    monkeypatch.setattr(macdonald, "jpoly_determinant", negated_on_one_one)
    code = main(["verify", "--suite", "oracle", "--max-weight", "2"])
    clear_caches()
    report = json.loads(capsys.readouterr().out)
    checks = {check["name"]: check for check in report["checks"]}
    assert code == 1 and report["passed"] is False
    schur = checks["schur-determinant-vs-oracle"]
    assert schur["failures"] == 1
    assert schur["detail"].startswith("ArithmeticError: duality")
    assert checks["modified-determinant-vs-oracle"]["detail"] == "lam=(1, 1)"
    assert checks["monomial-determinant-vs-oracle"]["failures"] == 0


def test_split_run_equals_the_in_process_run(monkeypatch):
    clear_caches()
    split = _run_all_on(monkeypatch, 2)
    # the worker filled the oracle cache, not this process
    assert verify._oracle.cache_info().currsize == 0
    assert _run_all_on(monkeypatch, 1) == split
    assert verify._oracle.cache_info().currsize > 0
    assert all(r.passed for r in split)


# A monkeypatch reaches the worker only through fork: a spawned or
# forkserver worker imports macdet afresh, without the planted fault.
needs_fork = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                                reason="the worker inherits the planted fault only by fork")


def _planted(exc_type):
    def raising(mu, k, n):
        raise exc_type(f"planted at mu={mu} k={k} n={n}")
    return raising


@needs_fork
def test_split_run_reports_a_failing_unseeded_check_as_in_process(monkeypatch):
    monkeypatch.setattr(verify, "macdonald_op_action", _planted(ArithmeticError))
    split = [r for r in _run_all_on(monkeypatch, 2) if not r.passed]
    assert [r for r in _run_all_on(monkeypatch, 1) if not r.passed] == split
    assert [(r.name, r.failures, r.detail) for r in split] == [
        ("eigen-first-operator", 1, "ArithmeticError: planted at mu=() k=1 n=1"),
        ("eigen-higher-operators", 1, "ArithmeticError: planted at mu=(1, 1) k=2 n=2"),
        ("symbolic-vs-raw-macdonald", 1, "ArithmeticError: planted at mu=() k=1 n=2"),
    ]


@needs_fork
def test_split_run_raises_what_the_in_process_run_raises(monkeypatch):
    monkeypatch.setattr(verify, "macdonald_op_action", _planted(RuntimeError))
    for cpus in (2, 1):
        with pytest.raises(RuntimeError, match="planted at mu=\\(\\) k=1 n=1"):
            _run_all_on(monkeypatch, cpus)


def test_appendix_suite_reduced_budget():
    results = run_appendix_suite(seed=11, samples=6)
    names = [r.name for r in results]
    assert len(names) == len(set(names))
    assert len(results) == 20
    failing = [r.name for r in results if not r.passed]
    assert failing == []
    for r in results:
        if r.sampled:
            assert r.instances >= 6, r.name


def test_appendix_suite_reproducible():
    first = summarize(run_appendix_suite(seed=4, samples=5))
    second = summarize(run_appendix_suite(seed=4, samples=5))
    assert first == second


def test_oracle_equivalence_weight_8():
    clear_caches()
    start = perf_counter()
    results = run_oracle_suite(max_weight=8)
    elapsed = perf_counter() - start
    failing = [r.name + ": " + r.detail for r in results if not r.passed]
    assert failing == []
    assert all(r.instances == 67 for r in results)
    assert elapsed < 120.0, f"oracle sweep took {elapsed:.1f}s"


def _box_partitions_by_recursion(parts, cap):
    out = []

    def rec(prefix, prev):
        if len(prefix) == parts:
            out.append(tuple(prefix))
            return
        for v in range(min(prev, cap), -1, -1):
            rec(prefix + [v], v)

    rec([], cap)
    return out


def _compositions_by_recursion(total, parts):
    if parts == 0:
        return [()] if total == 0 else []
    return [(head,) + tail for head in range(total + 1)
            for tail in _compositions_by_recursion(total - head, parts - 1)]


def test_box_partitions_and_compositions_keep_their_order():
    for parts in range(6):
        for cap in range(5):
            assert _box_partitions(parts, cap) == _box_partitions_by_recursion(parts, cap)
        for total in range(7):
            assert _compositions(total, parts) == _compositions_by_recursion(total, parts)
