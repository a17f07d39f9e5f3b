"""Command line surface: dispatch, rendering, exit codes, caching."""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import macdet
from macdet.cli import BASES, METHODS, compute_expansion, main, partition_argument
from macdet import clear_caches, cli
from macdet.macdonald import dual_transport, jpoly_determinant, jpoly_via_creation
from macdet.partitions import conjugate, partitions_of
from macdet.qt import QT_ONE, Q, QtPoly, QtRat, T
from macdet.symfunc import SymExpansion, convert_basis, sym_to_json
from macdet.verify import _tally

from conftest import rand_poly


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_partition_argument_parsing():
    assert partition_argument("2,2,1") == (2, 2, 1)
    assert partition_argument("0") == ()
    assert partition_argument("3,0") == (3,)
    with pytest.raises(Exception):
        partition_argument("1,2")
    with pytest.raises(Exception):
        partition_argument("x")


def test_main_reuses_one_parser_and_prints_what_a_fresh_process_prints(capsys):
    src = str(Path(macdet.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    jpoly = ("jpoly", "--lambda", "2,1", "--basis", "schur", "--format", "json")
    bad = ("jpoly", "--lambda", "1,2")
    verify = ("verify", "--suite", "eigen", "--max-weight", "2")
    fresh = {}
    parsers = set()
    for argv in (jpoly, bad, verify, jpoly):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        parsers.add(id(cli._parser))
        if argv not in fresh:
            done = subprocess.run([sys.executable, "-m", "macdet.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=120)
            fresh[argv] = (done.returncode, done.stdout, done.stderr)
        assert (code, out, err) == fresh[argv], argv
    assert fresh[bad][0] == 2 and fresh[bad][2].startswith("usage: macdet jpoly")
    assert all(not fresh[argv][2] for argv in (jpoly, verify))
    assert len(parsers) == 1 and cli._parser is not None


# Modules that only running commands load (the table cache's hashlib and
# tempfile, the process pool of table --jobs N > 1 and of verify --suite
# all on two usable CPUs), and dataclasses, which pulls in inspect and
# ast and which no module of the package needs.
DEFERRED_MODULES = frozenset((
    "concurrent.futures", "multiprocessing", "pickle", "socket", "logging",
    "hashlib", "tempfile", "dataclasses", "inspect"))


def test_cli_import_loads_no_module_that_only_the_table_command_uses():
    # site may preload modules, so count only those the import adds
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import macdet.cli\n"
            "macdet.cli.build_parser()\n"
            "print('\\n'.join(sorted(set(sys.modules) - before)))\n")
    src = str(Path(macdet.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120, check=True)
    loaded = set(done.stdout.split())
    assert {"macdet.cli", "macdet.macdonald", "argparse"} <= loaded
    assert sorted(loaded & DEFERRED_MODULES) == []


def test_build_parser_parses_every_subcommand():
    parser = cli.build_parser()
    assert parser is not cli.build_parser()
    args = parser.parse_args(["jpoly", "--lambda", "2,1"])
    assert (args.func, args.lam, args.basis, args.method, args.format) == (
        cli.cmd_jpoly, (2, 1), "smod", "determinant", "text")
    args = parser.parse_args(["verify"])
    assert (args.func, args.suite, args.max_weight, args.seed, args.samples) == (
        cli.cmd_verify, "all", 4, 0, 100)
    args = parser.parse_args(["table", "--max-weight", "3", "--basis", "monomial",
                              "--out", "t.json", "--method", "creation", "--jobs", "2"])
    assert (args.func, args.max_weight, args.basis, args.out, args.method, args.jobs) == (
        cli.cmd_table, 3, "monomial", "t.json", "creation", 2)


def test_jpoly_text_single_box(capsys):
    code, out = run_cli(capsys, "jpoly", "--lambda", "1", "--basis",
                        "monomial", "--method", "oracle", "--format", "text")
    assert code == 0
    assert out.strip() == "(1 - t)*m[1]"


def test_jpoly_empty_partition(capsys):
    for method in ("determinant", "creation", "oracle"):
        code, out = run_cli(capsys, "jpoly", "--lambda", "0",
                            "--method", method)
        assert code == 0
        assert out.strip() == "1"


def test_jpoly_json_round_trip(capsys):
    code, out = run_cli(capsys, "jpoly", "--lambda", "2,1", "--basis",
                        "schur", "--method", "creation", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["lambda"] == [2, 1]
    assert record["basis"] == "schur"
    assert record["method"] == "creation"
    assert record["n"] == 3
    assert record["expansion"] == sym_to_json(jpoly_determinant((2, 1), "s"))


def test_jpoly_latex_modified_matrix(capsys):
    code, out = run_cli(capsys, "jpoly", "--lambda", "2,2,1", "--basis",
                        "smod", "--method", "determinant",
                        "--format", "latex")
    assert code == 0
    header = out.splitlines()[1]
    assert header.count("&") == 4
    assert "S_{2,2,1}[X^{tq}]" in header
    assert "[3,1,1]" in out


def test_jpoly_latex_schur_matrix(capsys):
    code, out = run_cli(capsys, "jpoly", "--lambda", "2,1", "--basis",
                        "schur", "--method", "determinant",
                        "--format", "latex")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == r"s_{2,1}[X_{3}] & s_{1,1,1}[X_{3}] \\"
    assert lines[2].split(" & ")[0] == "-[0,3]"


def test_jpoly_latex_expansion(capsys):
    code, out = run_cli(capsys, "jpoly", "--lambda", "1,1", "--basis",
                        "schur", "--method", "oracle", "--format", "latex")
    assert code == 0
    assert out.strip() == r"\left(1 - t - t^{2} + t^{3}\right)s_{1,1}"


def test_jpoly_invalid_partition_exits_2(capsys):
    for bad in ("1,2", "x", "-1"):
        with pytest.raises(SystemExit) as err:
            main(["jpoly", "--lambda", bad])
        assert err.value.code == 2
    capsys.readouterr()


def test_every_method_serves_every_basis():
    lam = (2, 1)
    for basis in ("smod", "schur", "monomial"):
        results = {method: compute_expansion(lam, basis, method)
                   for method in ("determinant", "creation", "oracle")}
        assert results["creation"] == results["determinant"]
        assert results["oracle"] == results["determinant"]
    assert compute_expansion(lam, "smod", "oracle") == jpoly_determinant(lam, "s-mod")


def test_compute_expansion_rejects_unknown_basis_and_method():
    for method in ("determinant", "creation", "oracle"):
        for lam in [(), (2, 1)]:
            for basis in ("bogus", "s-mod", "m"):
                with pytest.raises(ValueError, match="unknown basis"):
                    compute_expansion(lam, basis, method)
    with pytest.raises(ValueError, match="unknown method"):
        compute_expansion((2, 1), "smod", "bogus")


def test_verify_eigen_report(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "eigen",
                        "--max-weight", "2")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["suite"] == "eigen"
    assert {c["name"] for c in report["checks"]} == {
        "eigen-first-operator", "eigen-higher-operators"}


def test_verify_reports_name_only_the_options_their_suite_reads(capsys):
    read = {"eigen": ["max_weight"], "cross": ["max_weight"], "oracle": ["max_weight"],
            "appendix": ["seed", "samples"], "all": ["max_weight", "seed", "samples"]}
    for suite, options in read.items():
        code, out = run_cli(capsys, "verify", "--suite", suite, "--max-weight", "1",
                            "--seed", "3", "--samples", "1")
        assert code == 0
        report = json.loads(out)
        assert sorted(report) == sorted(["checks", "passed", "suite", *options]), suite
        assert report.get("max_weight", 1) == 1 and report.get("seed", 3) == 3
        assert report.get("samples", 1) == 1


def test_verify_runners_get_exactly_the_options_their_reports_name(capsys, monkeypatch):
    calls = {}
    for suite, (_, options) in list(cli._SUITES.items()):
        def runner(suite=suite, **kwargs):
            calls[suite] = kwargs
            return []
        monkeypatch.setitem(cli._SUITES, suite, (runner, options))
    for suite in cli._SUITES:
        code, out = run_cli(capsys, "verify", "--suite", suite, "--max-weight", "2",
                            "--seed", "5", "--samples", "3")
        assert code == 0
        report = json.loads(out)
        named = {key: report[key] for key in report if key not in ("checks", "passed", "suite")}
        assert calls[suite] == named, suite
    assert set(calls) == {"eigen", "appendix", "cross", "oracle", "all"}
    assert calls["all"] == {"max_weight": 2, "seed": 5, "samples": 3}


def test_verify_appendix_deterministic(capsys):
    argv = ("verify", "--suite", "appendix", "--seed", "7", "--samples", "3")
    code_a, out_a = run_cli(capsys, *argv)
    code_b, out_b = run_cli(capsys, *argv)
    assert code_a == code_b == 0
    assert out_a == out_b


# sha256 of the stdout of `verify --suite all --max-weight 5 --samples 10`,
# a report that names --samples, and of its sorted-key JSON "checks" array,
# pinned from the code without the operator-calculus caches, so neither
# those caches nor a warm process may change the report
VERIFY_ALL_SHA256 = "4aade76adc623e54ddaf99a09e83c74937be8af702b15beaea55ea03cc155646"
VERIFY_ALL_CHECKS_SHA256 = "a3ce9c2e7a0717b59f02b017912ac40957f9177000b4ce30d51bfd776b37f0bc"


def test_verify_all_report_same_cold_and_warm(capsys):
    argv = ("verify", "--suite", "all", "--max-weight", "5", "--samples", "10")
    clear_caches()
    code_cold, cold = run_cli(capsys, *argv)
    code_warm, warm = run_cli(capsys, *argv)
    assert code_cold == code_warm == 0
    assert cold == warm
    report = json.loads(cold)
    assert sorted(report) == ["checks", "max_weight", "passed", "samples", "seed", "suite"]
    checks = json.dumps(report["checks"], sort_keys=True)
    assert hashlib.sha256(checks.encode()).hexdigest() == VERIFY_ALL_CHECKS_SHA256
    assert hashlib.sha256(cold.encode()).hexdigest() == VERIFY_ALL_SHA256


# sha256 of the stdout of `jpoly` concatenated over every shape of weight
# 0..4 (partitions_of order), basis, method and format, in that nesting;
# pinned from the code with two remainder sequences and no MultiPoly.relabel
JPOLY_ROUTES_SHA256 = "6117d5d718f97d94b5a5161b88a321f850f5056dde97db04e98442b9da4fe9c9"


def test_jpoly_every_route_renders_as_pinned(capsys):
    chunks = []
    for w in range(5):
        for lam in partitions_of(w):
            for basis in BASES:
                for method in METHODS:
                    for fmt in ("json", "latex", "text"):
                        code, out = run_cli(capsys, "jpoly", "--lambda",
                                            ",".join(map(str, lam)) or "0", "--basis", basis,
                                            "--method", method, "--format", fmt)
                        assert code == 0
                        chunks.append(out)
    assert hashlib.sha256("".join(chunks).encode()).hexdigest() == JPOLY_ROUTES_SHA256


def test_latex_poly_is_the_canonical_text_in_latex_form():
    cases = [
        (QtPoly({(0, 0): 3, (1, 10): 1, (12, 0): -1}), "3 + q t^{10} - q^{12}"),
        (QtPoly({(2, 11): -12, (13, 0): 25}), "-12 q^{2} t^{11} + 25 q^{13}"),
        (QtPoly({(0, 1): -1, (0, 0): 1}), "1 - t"),
        (QtPoly({(2, 1): -1, (1, 0): 10}), "10 q - q^{2} t"),
        (QtPoly.const(1), "1"),
        (QtPoly.const(-1), "-1"),
        (QtPoly(), "0"),
    ]
    for poly, latex in cases:
        assert cli._latex_poly(poly) == latex, str(poly)


def test_verify_failure_exits_nonzero(capsys, monkeypatch):
    broken = _tally("demo", True, iter([(False, "lam=(9,)")]))
    monkeypatch.setitem(cli._SUITES, "eigen", (lambda max_weight: [broken], ("max_weight",)))
    code, out = run_cli(capsys, "verify", "--suite", "eigen")
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    assert report["checks"][0]["detail"] == "lam=(9,)"


def test_verify_rejects_runs_that_check_nothing(capsys):
    for argv in (["--suite", "appendix", "--samples", "0"],
                 ["--suite", "appendix", "--samples", "-2"],
                 ["--suite", "oracle", "--max-weight", "-3"],
                 ["--suite", "all", "--max-weight", "-1"]):
        with pytest.raises(SystemExit) as err:
            main(["verify", *argv])
        assert err.value.code == 2
        assert argv[2] in capsys.readouterr().err


def test_table_enumeration_and_idempotence(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MACDET_CACHE_DIR", str(tmp_path / "cache"))
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    code, _ = run_cli(capsys, "table", "--max-weight", "2", "--basis",
                      "monomial", "--out", str(out_a))
    assert code == 0
    code, _ = run_cli(capsys, "table", "--max-weight", "2", "--basis",
                      "monomial", "--out", str(out_b))
    assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    records = json.loads(out_a.read_text())
    assert [r["lambda"] for r in records] == [[1], [2], [1, 1]]
    for record in records:
        assert record["basis"] == "monomial"
        assert record["method"] == "determinant"
        assert "timing" in record
        assert record["expansion"] == sym_to_json(compute_expansion(
            tuple(record["lambda"]), "monomial", "determinant"))


def test_table_unwritable_path_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MACDET_CACHE_DIR", str(tmp_path / "cache"))
    code = main(["table", "--max-weight", "1", "--basis", "smod",
                 "--out", str(tmp_path / "missing" / "t.json")])
    assert code == 3
    assert "cannot write" in capsys.readouterr().err


def test_table_parallel_matches_sequential(tmp_path, monkeypatch, capsys):
    def strip_timing(path):
        records = json.loads(path.read_text())
        for record in records:
            record.pop("timing")
        return records

    monkeypatch.setenv("MACDET_CACHE_DIR", str(tmp_path / "cache-seq"))
    out_seq = tmp_path / "seq.json"
    assert main(["table", "--max-weight", "2", "--basis", "schur",
                 "--out", str(out_seq)]) == 0
    monkeypatch.setenv("MACDET_CACHE_DIR", str(tmp_path / "cache-par"))
    out_par = tmp_path / "par.json"
    assert main(["table", "--max-weight", "2", "--basis", "schur",
                 "--out", str(out_par), "--jobs", "2"]) == 0
    capsys.readouterr()
    assert strip_timing(out_seq) == strip_timing(out_par)


def test_table_rejects_nonpositive_jobs(tmp_path, capsys):
    for bad in ("0", "-1", "x"):
        with pytest.raises(SystemExit) as err:
            main(["table", "--max-weight", "1", "--basis", "smod",
                  "--out", str(tmp_path / "t.json"), "--jobs", bad])
        assert err.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "t.json").exists()


def test_table_rejects_negative_max_weight(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["table", "--max-weight", "-1", "--basis", "smod",
              "--out", str(tmp_path / "t.json")])
    assert err.value.code == 2
    assert "--max-weight" in capsys.readouterr().err
    assert not (tmp_path / "t.json").exists()


def _inline_pool(monkeypatch, tmp_path, cpus):
    """Make cpus the usable CPU count and put a spy in place of
    cli.fork_join that records the share count of each split and runs
    every share in this process, so no child is ever forked.  Returns
    the record."""
    requested = []

    def inline_fork_join(fn, shares):
        if len(shares) > 1:
            requested.append(len(shares))
        return [fn(share) for share in shares]

    monkeypatch.setattr(cli, "fork_join", inline_fork_join)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setenv("MACDET_CACHE_DIR", str(tmp_path / "cache"))
    return requested


def test_table_pool_never_exceeds_task_count(tmp_path, monkeypatch, capsys):
    requested = _inline_pool(monkeypatch, tmp_path, cpus=8)
    out = tmp_path / "t.json"
    assert main(["table", "--max-weight", "2", "--basis", "smod",
                 "--out", str(out), "--jobs", "64"]) == 0
    assert requested == [3]
    assert len(json.loads(out.read_text())) == 3
    assert main(["table", "--max-weight", "1", "--basis", "smod",
                 "--out", str(out), "--jobs", "64"]) == 0
    assert requested == [3]
    capsys.readouterr()


def test_table_pool_never_exceeds_usable_cpus(tmp_path, monkeypatch, capsys):
    requested = _inline_pool(monkeypatch, tmp_path, cpus=2)
    out = tmp_path / "t.json"
    argv = ["table", "--max-weight", "3", "--basis", "smod", "--out", str(out), "--jobs", "1000"]
    assert main(argv) == 0
    assert requested == [2]
    assert len(json.loads(out.read_text())) == 6
    # without sched_getaffinity the count comes from os.cpu_count, and
    # an unknown count means one share: no split at all
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert main(argv) == 0
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert main(argv) == 0
    assert requested == [2, 4]
    capsys.readouterr()


def test_table_jobs_in_a_fresh_process_matches_a_warm_rerun(tmp_path, monkeypatch, capsys):
    # Other tests import pickle into this process, so only a fresh
    # process runs the imports that the table command defers.
    cache = tmp_path / "cache"
    argv = ["table", "--max-weight", "3", "--basis", "monomial", "--method", "creation"]
    src = str(Path(macdet.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "MACDET_CACHE_DIR": str(cache)}
    fresh = tmp_path / "fresh.json"
    done = subprocess.run([sys.executable, "-m", "macdet.cli", *argv, "--out", str(fresh),
                           "--jobs", "2"], env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    monkeypatch.setenv("MACDET_CACHE_DIR", str(cache))
    warm = tmp_path / "warm.json"
    assert main([*argv, "--out", str(warm), "--jobs", "1"]) == 0
    capsys.readouterr()
    # the warm rerun serves every record, stored timing included, from the cache
    assert warm.read_bytes() == fresh.read_bytes()
    records = json.loads(fresh.read_text())
    assert [tuple(r["lambda"]) for r in records] == [lam for w in (1, 2, 3)
                                                      for lam in partitions_of(w)]
    for record in records:
        assert record["expansion"] == sym_to_json(compute_expansion(
            tuple(record["lambda"]), "monomial", "creation"))
    assert len(list(cache.iterdir())) == len(records)


def test_verify_all_in_a_fresh_optimized_process_prints_what_run_cli_prints(capsys):
    # a fresh process under -O imports the pickle that run_all defers
    # and, on two usable CPUs, forks its child
    argv = ("verify", "--suite", "all", "--max-weight", "3", "--samples", "2")
    src = str(Path(macdet.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-O", "-m", "macdet.cli", *argv],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    code, out = run_cli(capsys, *argv)
    assert (done.returncode, done.stdout, done.stderr) == (code, out, "")
    assert code == 0


def cached_body(path):
    """The body stored in a cache file, after checking its digest line."""
    digest, body = path.read_bytes().split(b"\n", 1)
    assert digest == hashlib.sha256(body).hexdigest().encode()
    return body


def plant(path, body):
    """Store body in a cache file behind its own valid digest line."""
    path.write_bytes(hashlib.sha256(body).hexdigest().encode() + b"\n" + body)


def test_cached_record_recomputes_record_for_another_task(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("MACDET_CACHE_DIR", str(cache))
    task = ((2,), "monomial", "determinant")
    path = cache / (cli.record_key(*task) + ".json")
    cache.mkdir()
    planted = cli.result_record((1, 1), "monomial", "determinant",
                                compute_expansion((1, 1), "monomial",
                                                  "determinant"), 0.0)
    path.write_text(json.dumps(planted))
    body = cli.cached_record(task)
    record = json.loads(body)
    assert record["lambda"] == [2]
    assert record["expansion"] == sym_to_json(compute_expansion(*task))
    assert cached_body(path) == body
    assert cli.cached_record(task) == body
    assert [p.name for p in cache.iterdir()] == [path.name]


def test_cached_record_recomputes_record_with_a_tampered_body(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("MACDET_CACHE_DIR", str(cache))
    task = ((2,), "monomial", "determinant")
    expected = compute_expansion(*task)
    path = cache / (cli.record_key(*task) + ".json")
    record = json.loads(cli.cached_record(task))
    assert record["expansion"] == sym_to_json(expected)
    digest = path.read_bytes().split(b"\n", 1)[0]
    emptied = dict(record, expansion=dict(record["expansion"], terms=[]))
    body = json.dumps(emptied, indent=2, sort_keys=True).encode()
    # The header names the task, but the body no longer matches its digest,
    # and a file in the digest-free layout has no digest at all.
    for planted in (digest + b"\n" + body, body):
        path.write_bytes(planted)
        served = cli.cached_record(task)
        assert json.loads(served)["expansion"]["terms"]
        assert json.loads(served)["expansion"] == sym_to_json(expected)
        assert cached_body(path) == served
        assert cli.cached_record(task) == served


def test_cached_record_recomputes_malformed_records_with_valid_digests(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("MACDET_CACHE_DIR", str(cache))
    task = ((2,), "monomial", "determinant")
    expected = compute_expansion(*task)
    path = cache / (cli.record_key(*task) + ".json")
    good = json.loads(cli.cached_record(task))
    header = {k: good[k] for k in ("lambda", "basis", "method", "engine_version")}
    other = sym_to_json(jpoly_determinant((3, 3, 2, 1), "s-mod"))
    term = good["expansion"]["terms"][0]

    def with_terms(terms):
        return dict(good, expansion=dict(good["expansion"], terms=terms))

    variants = [
        header,
        dict(good, n=7),
        dict(good, n=7, expansion=other),
        dict(good, expansion=other),
        {k: v for k, v in good.items() if k != "timing"},
        {k: v for k, v in good.items() if k != "n"},
        dict(good, extra=1),
        dict(good, timing=-1.0),
        dict(good, timing="0.5"),
        dict(good, timing=1),
        dict(good, timing=True),
        dict(good, expansion=None),
        dict(good, expansion=[]),
        dict(good, expansion=dict(good["expansion"], basis="s")),
        dict(good, expansion=dict(good["expansion"], weight=3)),
        dict(good, expansion=dict(good["expansion"], terms=[])),
        dict(good, expansion=dict(good["expansion"], terms={})),
        dict(good, expansion={k: v for k, v in good["expansion"].items() if k != "terms"}),
        dict(good, expansion=dict(good["expansion"], extra=1)),
        with_terms([1]),
        with_terms([{}]),
        with_terms([dict(term, partition=[3])]),
        with_terms([dict(term, partition=[0, 2])]),
        with_terms([dict(term, partition=[True, True])]),
        with_terms([dict(term, coeff_num=1)]),
        with_terms([term, dict(term, coeff_den=1.0)]),
    ]
    # at shape (1), JSON true and 1.0 pass an == test against 1
    one = ((1,), "monomial", "determinant")
    good_one = json.loads(cli.cached_record(one))
    variants_one = [
        dict(good_one, n=True),
        dict(good_one, n=1.0),
        dict(good_one, **{"lambda": [True]}),
        dict(good_one, expansion=dict(good_one["expansion"], weight=True)),
    ]
    for task, planted_records in ((task, variants), (one, variants_one)):
        expected = compute_expansion(*task)
        path = cache / (cli.record_key(*task) + ".json")
        for planted in planted_records:
            plant(path, json.dumps(planted, indent=2, sort_keys=True).encode())
            served = cli.cached_record(task)
            record = json.loads(served)
            assert record.keys() == good.keys(), planted
            assert record["expansion"] == sym_to_json(expected), planted
            assert isinstance(record["timing"], float) and record["timing"] >= 0
            # == takes true for 1; the JSON text does not
            recomputed = cli.result_record(*task, expected, record["timing"])
            assert served == json.dumps(recomputed, indent=2, sort_keys=True).encode()
            assert cached_body(path) == served, planted
            assert cli.cached_record(task) == served


def test_cached_record_recomputes_a_deeply_nested_body(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("MACDET_CACHE_DIR", str(cache))
    task = ((2,), "monomial", "determinant")
    path = cache / (cli.record_key(*task) + ".json")
    good = json.loads(cli.cached_record(task))
    # json.loads raises RecursionError, not ValueError, on this body
    plant(path, b"[" * 200_000)
    served = cli.cached_record(task)
    record = json.loads(served)
    assert record["expansion"] == sym_to_json(compute_expansion(*task))
    assert record.keys() == good.keys()
    assert cached_body(path) == served


def test_cached_record_recomputes_a_repeated_partition(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("MACDET_CACHE_DIR", str(cache))
    task = ((2,), "monomial", "determinant")
    path = cache / (cli.record_key(*task) + ".json")
    good = json.loads(cli.cached_record(task))
    first, second = good["expansion"]["terms"]
    # every term is well formed alone; together two name one partition
    for terms in ([first, first], [first, dict(second, partition=first["partition"])],
                  [first, second, second]):
        planted = dict(good, expansion=dict(good["expansion"], terms=terms))
        plant(path, json.dumps(planted, indent=2, sort_keys=True).encode())
        served = cli.cached_record(task)
        assert json.loads(served)["expansion"] == good["expansion"], terms
        assert json.loads(served)["expansion"] == sym_to_json(compute_expansion(*task))
        assert cached_body(path) == served


def test_cached_record_recomputes_an_infinite_timing(tmp_path, monkeypatch, capsys):
    cache = tmp_path / "cache"
    monkeypatch.setenv("MACDET_CACHE_DIR", str(cache))
    task = ((2,), "monomial", "determinant")
    path = cache / (cli.record_key(*task) + ".json")
    good = json.loads(cli.cached_record(task))
    # json writes Infinity and reads it back as float('inf'), which is >= 0
    body = json.dumps(dict(good, timing=float("inf")), indent=2, sort_keys=True).encode()
    plant(path, body)
    served = cli.cached_record(task)
    record = json.loads(served)
    assert type(record["timing"]) is float and math.isfinite(record["timing"])
    assert record["expansion"] == sym_to_json(compute_expansion(*task))
    assert b"Infinity" not in path.read_bytes()
    assert cached_body(path) == served
    plant(path, body)
    out = tmp_path / "t.json"
    assert main(["table", "--max-weight", "2", "--basis", "monomial", "--out", str(out)]) == 0
    capsys.readouterr()

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    records = json.loads(out.read_text(), parse_constant=reject)
    assert all(math.isfinite(record["timing"]) for record in records)


def one_reading(pairs):
    """A json object_pairs_hook that fails on a key named twice."""
    if len({key for key, _ in pairs}) != len(pairs):
        raise ValueError(f"repeated key in {pairs}")
    return dict(pairs)


def ambiguous_bodies(good):
    """Three bodies of the record whose text is good, each passing every
    check of the parsed record: a top-level key named twice, a term key
    named twice, each first with a wrong value that a last-wins reader
    drops, and a non-ASCII character in a coefficient string."""
    top = good.replace(b'{\n  "basis"', b'{\n  "n": 7,\n  "basis"', 1)
    term = good.replace(b'"coeff_num": "', b'"coeff_num": "0",\n        "coeff_num": "', 1)
    wide = good.replace(b'"coeff_num": "', '"coeff_num": "−'.encode(), 1)
    bodies = {"repeated top-level key": top, "repeated term key": term, "non-ASCII": wide}
    for body in bodies.values():
        assert body != good and json.loads(body)["expansion"]["basis"] == "m"
    return bodies


@pytest.mark.parametrize("name", ["repeated top-level key", "repeated term key", "non-ASCII"])
def test_cached_record_recomputes_bodies_with_two_readings_or_non_ascii(
        name, tmp_path, monkeypatch, capsys):
    cache = tmp_path / "cache"
    monkeypatch.setenv("MACDET_CACHE_DIR", str(cache))
    task = ((2,), "monomial", "determinant")
    path = cache / (cli.record_key(*task) + ".json")
    out = tmp_path / "t.json"
    good = cli.cached_record(task)
    body = ambiguous_bodies(good)[name]
    plant(path, body)
    served = cli.cached_record(task)
    assert served != body and served.isascii()
    record = json.loads(served, object_pairs_hook=one_reading)
    assert record["n"] == 2 and record["expansion"] == json.loads(good)["expansion"]
    assert cached_body(path) == served
    plant(path, body)
    assert main(["table", "--max-weight", "2", "--basis", "monomial", "--out", str(out)]) == 0
    capsys.readouterr()
    text = out.read_bytes()
    assert body.replace(b"\n", b"\n  ") not in text
    assert cached_body(path).replace(b"\n", b"\n  ") in text
    assert text.isascii()
    json.loads(text, object_pairs_hook=one_reading)


def test_repeated_key_is_recomputed_under_optimize(tmp_path):
    code = "\n".join([
        "import hashlib, json, sys",
        "from macdet import cli",
        "print(sys.flags.optimize)",
        "task = ((2,), 'monomial', 'determinant')",
        "path = cli.cache_dir() / (cli.record_key(*task) + '.json')",
        "good = cli.cached_record(task)",
        "body = good.replace(b'{\\n  \"basis\"', b'{\\n  \"n\": 7,\\n  \"basis\"', 1)",
        "print(body != good)",
        "path.write_bytes(hashlib.sha256(body).hexdigest().encode() + b'\\n' + body)",
        "served = cli.cached_record(task)",
        "print(served != body and json.loads(served)['n'] == 2)",
        "print(path.read_bytes().endswith(b'\\n' + served))",
    ])
    src = str(Path(macdet.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "MACDET_CACHE_DIR": str(tmp_path / "cache")}
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "True", "True", "True"]


def test_table_output_is_canonical_json_and_reruns_byte_for_byte(
        tmp_path, monkeypatch, capsys):
    for basis in BASES:
        for method in METHODS:
            for jobs in ("1", "2"):
                monkeypatch.setenv("MACDET_CACHE_DIR", str(tmp_path / f"{basis}-{method}-{jobs}"))
                runs = []
                for name in ("cold.json", "warm.json"):
                    out = tmp_path / name
                    assert main(["table", "--max-weight", "3", "--basis", basis,
                                 "--method", method, "--out", str(out), "--jobs", jobs]) == 0
                    runs.append(out.read_bytes())
                cold, warm = runs
                records = json.loads(cold)
                assert len(records) == 6
                assert cold.decode() == json.dumps(records, indent=2, sort_keys=True) + "\n"
                assert warm == cold, (basis, method, jobs)
    assert main(["table", "--max-weight", "0", "--basis", "smod",
                 "--out", str(tmp_path / "empty.json")]) == 0
    assert (tmp_path / "empty.json").read_bytes() == b"[]\n"
    capsys.readouterr()


def test_json_array_nests_each_value_text_as_json_dumps_does():
    rng = random.Random(29)
    letters = ['a', 'Z', ' ', '"', '\\', '\n', '\t', '/', 'é', '−', '\U0001f600']

    def text():
        return "".join(rng.choice(letters) for _ in range(rng.randint(0, 6)))

    def value(depth):
        kind = rng.randint(0, 7 if depth < 4 else 4)
        if kind == 0:
            return rng.choice([None, True, False])
        if kind == 1:
            return rng.randint(-10**20, 10**20)
        if kind == 2:
            return rng.choice([0.0, -0.0, 1e-300, 1e300, rng.uniform(-1e6, 1e6)])
        if kind in (3, 4):
            return text()
        if kind == 5:
            return [value(depth + 1) for _ in range(rng.randint(0, 3))]
        return {text(): value(depth + 1) for _ in range(rng.randint(0, 3))}

    shapes = {"empty list": False, "empty dict": False, "nested": False}
    for _ in range(300):
        values = [value(1) if rng.random() < 0.7 else value(0)
                  for _ in range(rng.randint(0, 5))]
        bodies = [json.dumps(v, indent=2, sort_keys=True).encode() for v in values]
        expected = json.dumps(values, indent=2, sort_keys=True) + "\n"
        assert cli.json_array(bodies) == expected.encode(), values
        shapes["empty list"] |= "[]" in expected
        shapes["empty dict"] |= "{}" in expected
        shapes["nested"] |= "\n      " in expected
    assert all(shapes.values()), shapes


def test_result_record_counts_variables_from_the_shape():
    record = cli.result_record((3, 1), "smod", "creation",
                               compute_expansion((3, 1), "smod", "creation"))
    assert record["n"] == 4 and "timing" not in record


def test_record_json_writes_what_json_dumps_writes():
    """Records of every basis and method, long partitions, timings, and
    coefficients of every sign and exponent form: the one record writer
    gives json.dumps(record, indent=2, sort_keys=True) to the byte."""
    rng = random.Random(4141)
    forms = [QT_ONE, -QT_ONE, QtPoly.const(2), QtPoly.const(-17), Q, -T, Q**2 * T**11,
             QtPoly({(10, 1): -3}), QT_ONE - Q * T,
             QtPoly({(0, 0): -1, (1, 0): 2, (0, 3): -12, (4, 4): 1})]

    def coefficient():
        num = rng.choice(forms) if rng.random() < 0.5 else rand_poly(rng, 12, 6, 10**6, True)
        den = rng.choice(forms[:2] + [QT_ONE - Q] + [rand_poly(rng, 3, 3, 9, True)])
        return QtRat(num, den)

    def shape(total):
        parts = []
        while total:
            part = rng.randint(1, min(total, rng.choice((1, 3, 12))))
            parts.append(part)
            total -= part
        return tuple(sorted(parts, reverse=True))

    seen = set()
    for basis in BASES:
        for method in METHODS:
            for timing in (None, 0.0, 1e-06, 123.456789, rng.random()):
                for w in (0, 1, 5, 24):
                    lam = shape(w)
                    terms = {} if rng.random() < 0.1 else {
                        shape(w): coefficient() for _ in range(rng.randint(1, 4))}
                    expansion = SymExpansion(cli.BASIS_TAG[basis], w, terms)
                    record = cli.result_record(lam, basis, method, expansion, timing)
                    expected = json.dumps(record, indent=2, sort_keys=True)
                    assert cli.record_json(record) == expected, record
                    seen.add((len(lam) > 10, not terms, timing is None))
    assert len(seen) >= 5, seen


def _term_dict_record(lam, basis):
    """The record of J_lam by creation as the term-dict route composed
    it: the s-mod expansion of lam or lam' decoded into plain QtPolys,
    dual_transport, convert_basis and sym_to_json."""
    source = jpoly_via_creation(lam if basis == "smod" else conjugate(lam))
    expansion = SymExpansion("s-mod", source.weight,
                             {mu: QtRat(QtPoly(c.num.terms)) for mu, c in source.terms.items()})
    if basis != "smod":
        expansion = dual_transport(expansion, lam)
    if basis == "monomial":
        expansion = convert_basis(expansion, "m")
    return {"lambda": list(lam), "basis": basis, "method": "creation",
            "engine_version": macdet.ENGINE_VERSION, "n": sum(lam),
            "expansion": sym_to_json(expansion)}


def test_cold_creation_records_match_the_term_dict_route_through_weight_9(tmp_path, monkeypatch):
    monkeypatch.setenv("MACDET_CACHE_DIR", str(tmp_path / "cache"))
    clear_caches()
    bodies = {basis: [cli.cached_record((lam, basis, "creation"))
                      for w in range(10) for lam in partitions_of(w)] for basis in BASES}
    for basis, served in bodies.items():
        shapes = [lam for w in range(10) for lam in partitions_of(w)]
        for lam, body in zip(shapes, served):
            timing = json.loads(body)["timing"]
            expected = dict(_term_dict_record(lam, basis), timing=timing)
            assert body == json.dumps(expected, indent=2, sort_keys=True).encode(), (basis, lam)
    clear_caches()


def test_cold_monomial_creation_table_through_weight_10_budget(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MACDET_CACHE_DIR", str(tmp_path / "cache"))
    clear_caches()
    start = time.perf_counter()
    assert main(["table", "--max-weight", "10", "--basis", "monomial", "--method", "creation",
                 "--jobs", "1", "--out", str(tmp_path / "table.json")]) == 0
    elapsed = time.perf_counter() - start
    clear_caches()
    assert len(json.loads((tmp_path / "table.json").read_text())) == 138
    assert elapsed < 6.0, f"cold monomial creation table through weight 10 took {elapsed:.1f}s"
    capsys.readouterr()


# sha256 of the stdout of `verify --suite appendix --samples 20` for seeds
# 0 and 7, a report that names --seed and --samples but no --max-weight,
# since the suite reads only those two, and of its sorted-key JSON "checks"
# array, unchanged since the code with a separate creation and Macdonald
# route check and a local entry builder in creation-row-reduction
APPENDIX_SHA256 = {
    0: "c56e50d8bc0e391dc25fc252e590474cd4930d758b52d51c2950424db7f2761d",
    7: "97ef98c51ac8c86e314aec8d8e2100b7e8a026f95086a70f6ea8d371ddcd03b3",
}
APPENDIX_CHECKS_SHA256 = {
    0: "0693f4168da1a1ad1fd333a573e9561b0fbfb31deb3dca97404a5fa5f0fbad6f",
    7: "5d0d427556bd056d10057f96b390b8a0d1a71a6c0a0894a596ba27b08b8eba37",
}


@pytest.mark.parametrize("seed", sorted(APPENDIX_SHA256))
def test_verify_appendix_report_is_pinned(capsys, seed):
    clear_caches()
    code, out = run_cli(capsys, "verify", "--suite", "appendix",
                        "--seed", str(seed), "--samples", "20")
    assert code == 0
    report = json.loads(out)
    assert sorted(report) == ["checks", "passed", "samples", "seed", "suite"]
    assert report["samples"] == 20
    checks = json.dumps(report["checks"], sort_keys=True)
    assert hashlib.sha256(checks.encode()).hexdigest() == APPENDIX_CHECKS_SHA256[seed]
    assert hashlib.sha256(out.encode()).hexdigest() == APPENDIX_SHA256[seed]
