"""macdet benchmark: one run of one workload.

    python3 bench/run.py --workload jpoly-det --seed 1 --seconds 16 --trace 0

Imports macdet from this checkout's src/ and drives it in-process
through its public surface (``macdet.cli.main``), as one closed-loop
client that waits for each answer before issuing the next command.
Work comes in passes: a pass is a fixed amount of work drawn from the
seed, and a run makes as many passes as ``--seconds`` plans for (see
PASS_S).  Every command is timed in reference seconds: its wall time
scaled by the host speed that a calibration loop measures around and
during it (see speed.py).  Every output is checked outside the timed
region, against reference digests (``bench/reference.json``) for
expansions, byte identity for warm table reruns, and the ``passed``
field for verify reports.

Workloads:
  jpoly-det       one-shot ``jpoly --method determinant``, every shape of
                  weights 4-5 in every basis per pass, cold caches
  jpoly-oracle    one-shot ``jpoly --method oracle``, one request of
                  weight 4 and three of weight 5 per pass, cold caches
  table-creation  ``table --method creation --basis monomial
                  --max-weight 8`` into a fresh cache directory (cold)
  verify-all      ``verify --suite all --max-weight 5 --samples 10`` from
                  cold caches, with verify's default seed

Three warm reruns end passes spread over the run: the whole ``jpoly``
pool as one batch, five ``table`` commands against the filled cache, or
the ``verify`` command with the caches it filled.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` the run first measures
untraced passes, then traced passes, and reports per-layer metrics per
traced pass together with the tracing overhead.  A result file with the
run's metadata and request list goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

from program import (
    ROOT,
    ColdStart,
    ProgramMissing,
    expansion_digest,
    find_caches,
    load_macdet,
    reference_key,
)
from speed import Stopwatch
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
RESULTS = BENCH / "results"
WORK = BENCH / "work"
REFERENCE = BENCH / "reference.json"

# Work sizes: (regular, --tiny).
JPOLY_WEIGHTS = {False: (4, 5), True: (1, 2, 3)}
ORACLE_DRAWS = {False: ((4, 1), (5, 3)), True: ((2, 1), (3, 3))}
TABLE_MAX_WEIGHT = {False: 8, True: 3}
VERIFY_MAX_WEIGHT = {False: 5, True: 3}
VERIFY_SAMPLES = {False: 10, True: 2}
TABLE_JOBS = 2
TABLE_WARM_RERUNS = 5
WARM_RERUNS = 3
SETUP_REPEATS = 11
TAIL_BEYOND = 10

# About the wall seconds one cold pass takes, calibration included, on
# the host the benchmark was defined on (Python 3.11, 2 vCPUs).  A run
# makes round(--seconds / PASS_S) passes, at least one, so the same
# arguments give the same number of samples on every commit: a
# percentile then reads the same rank however fast the code or the host
# runs.  At --seconds 16 that is 5, 3, 4 and 1 passes.
PASS_S = {"jpoly-det": 3.2, "jpoly-oracle": 5.5, "table-creation": 3.7,
          "verify-all": 11.0}
# No pass starts after this many seconds, so that a run still ends within
# its time limit when the code has become several times slower.
PASS_LIMIT_S = 100.0


class PassResult:
    """One pass: the latency of each cold request, their sum, and the
    seconds of each warm rerun that followed them."""

    def __init__(self, latencies: list[float], requests: int, warm_s: list[float]):
        self.latencies = latencies
        self.wall_s = sum(latencies)
        self.requests = requests
        self.warm_s = warm_s


class Session:
    """State shared by one run: the program, its caches, the reference
    digests, and the tally of attempted and failed requests."""

    def __init__(self, modules: list, reference: dict, tiny: bool):
        self.modules = modules
        self.cli = next(m for m in modules if m.__name__ == "macdet.cli")
        self.cold = ColdStart(find_caches(modules))
        self.reference = reference
        self.tiny = tiny
        self.attempted = 0
        self.failures: list[str] = []
        self.issued = 0
        self.tracer: Tracer | None = None
        # Raw wall seconds of every command and the calibration loop
        # times around them, for the result file.
        self.wall_s = 0.0
        self.loop_s: list[float] = []

    def invoke(self, argv: list[str]) -> tuple[int, str, float]:
        """Run one CLI command in-process; return its exit code, its
        standard output (the traceback if it raised) and its time in
        reference seconds (see speed.py)."""
        self.issued += 1
        if self.tracer is not None:
            self.tracer.request = self.issued
        buf = io.StringIO()
        try:
            with Stopwatch() as watch, contextlib.redirect_stdout(buf):
                code = self.cli.main(argv)
            out = buf.getvalue()
        except SystemExit as exc:
            code, out = (exc.code if isinstance(exc.code, int) else 1), buf.getvalue()
        except Exception:
            code, out = -1, traceback.format_exc(limit=3)
        self.wall_s += watch.wall_s
        self.loop_s += watch.loops
        return code, out, watch.reference_s

    def fail_exit(self, what: str, code: int, out: str) -> None:
        self.failures.append(f"{what}: exit code {code}" + (f"\n{out}" if code == -1 else ""))

    def check_expansion(self, what: str, lam: tuple, basis: str, expansion: dict) -> bool:
        want = self.reference.get(reference_key(lam, basis))
        if want is None:
            self.failures.append(f"{what}: no reference digest")
            return False
        if expansion_digest(expansion) != want:
            self.failures.append(f"{what}: expansion differs from the reference")
            return False
        return True


class JpolyWorkload:
    """One-shot ``jpoly`` requests with every cache cleared before each,
    as in a fresh ``macdet jpoly`` process."""

    trace_warm = False

    def __init__(self, session: Session, method: str, seed: int):
        from macdet.cli import BASES
        from macdet.partitions import partitions_of
        self.session = session
        self.method = method
        self.rng = random.Random(seed)
        weights = JPOLY_WEIGHTS[session.tiny]
        self.pool = {w: [(lam, basis) for basis in BASES for lam in partitions_of(w)]
                     for w in weights}
        self.plan: list[list] = []

    def describe(self) -> dict:
        if self.method == "determinant":
            draw = "every (shape, basis) of the pool per pass, in seeded order"
        else:
            draw = ", ".join(f"{n} of weight {w}" for w, n in ORACLE_DRAWS[self.session.tiny])
            draw += " per pass, seeded draws without replacement"
        return {"command": f"jpoly --method {self.method} --format json",
                "weights": sorted(self.pool), "draw": draw, "request": "jpoly call"}

    def _draw(self) -> list:
        if self.method == "determinant":
            requests = [r for w in sorted(self.pool) for r in self.pool[w]]
        else:
            requests = [r for w, n in ORACLE_DRAWS[self.session.tiny]
                        for r in self.rng.sample(self.pool[w], n)]
        self.rng.shuffle(requests)
        self.plan.append([[list(lam), basis] for lam, basis in requests])
        return requests

    def _request(self, lam: tuple, basis: str, cold: bool) -> float:
        s = self.session
        if cold:
            s.cold()
        argv = ["jpoly", "--lambda", ",".join(map(str, lam)) or "0",
                "--basis", basis, "--method", self.method, "--format", "json"]
        code, out, elapsed = s.invoke(argv)
        s.attempted += 1
        what = f"jpoly {lam} {basis} {self.method}"
        if code != 0:
            s.fail_exit(what, code, out)
            return elapsed
        try:
            record = json.loads(out)
        except json.JSONDecodeError:
            s.failures.append(f"{what}: output is not JSON")
            return elapsed
        if (record.get("lambda"), record.get("basis"), record.get("method")) != \
                (list(lam), basis, self.method):
            s.failures.append(f"{what}: record names another request")
        else:
            s.check_expansion(what, lam, basis, record.get("expansion"))
        return elapsed

    def run_pass(self, warm: int) -> PassResult:
        """The drawn requests, each cold; then ``warm`` times the whole
        pool as one batch, with caches cleared before the batch and kept
        across its requests, as in one process that serves many."""
        requests = self._draw()
        latencies = [self._request(lam, b, cold=True) for lam, b in requests]
        warm_s = []
        for _ in range(warm):
            # In pool order, so the batch is the same work for every seed.
            self.session.cold()
            warm_s.append(sum(self._request(lam, b, cold=False)
                              for w in sorted(self.pool) for lam, b in self.pool[w]))
        return PassResult(latencies, len(requests), warm_s)


class TableWorkload:
    """``table`` into a fresh cache directory; on a warm pass, then the
    same command TABLE_WARM_RERUNS times against the filled cache, whose
    output must be byte-identical."""

    # The warm commands are the disk-cache path that the cli.cached_record
    # and cli.disk_cache metrics measure, so traced passes keep them.
    trace_warm = True

    def __init__(self, session: Session, jobs: int):
        from macdet.partitions import partitions_of
        self.session = session
        self.jobs = jobs
        self.max_weight = TABLE_MAX_WEIGHT[session.tiny]
        self.shapes = [lam for w in range(1, self.max_weight + 1)
                       for lam in partitions_of(w)]
        self.plan: list[list] = []

    def describe(self) -> dict:
        return {"command": " ".join(self._argv("OUT", self.jobs)), "jobs": self.jobs,
                "warm_jobs": 1,
                "records": len(self.shapes), "request": "table record",
                "cache": "fresh MACDET_CACHE_DIR under bench/work per pass"}

    def _argv(self, out: str, jobs: int) -> list[str]:
        return ["table", "--method", "creation", "--basis", "monomial",
                "--max-weight", str(self.max_weight), "--jobs", str(jobs),
                "--out", out]

    def _check(self, text: str) -> int:
        s = self.session
        try:
            records = json.loads(text)
        except json.JSONDecodeError:
            s.failures.append("table: output is not JSON")
            return len(self.shapes)
        if len(records) != len(self.shapes):
            s.failures.append(f"table: {len(records)} records, want {len(self.shapes)}")
            return len(self.shapes)
        bad = 0
        for lam, record in zip(self.shapes, records):
            what = f"table record {lam}"
            if (record.get("lambda"), record.get("basis"), record.get("method")) != \
                    (list(lam), "monomial", "creation"):
                s.failures.append(f"{what}: record names another request")
                bad += 1
            elif not s.check_expansion(what, lam, "monomial", record.get("expansion")):
                bad += 1
        return bad

    def run_pass(self, warm: int) -> PassResult:
        s = self.session
        WORK.mkdir(parents=True, exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix="table-", dir=WORK))
        previous = os.environ.get("MACDET_CACHE_DIR")
        os.environ["MACDET_CACHE_DIR"] = str(work / "cache")
        warm_times = []
        try:
            s.cold()
            code, out, cold_s = s.invoke(self._argv(str(work / "cold.json"), self.jobs))
            s.attempted += len(self.shapes)
            if code != 0:
                s.fail_exit("table cold", code, out)
                return PassResult([cold_s], len(self.shapes), [])
            cold_text = (work / "cold.json").read_text()
            self._check(cold_text)
            # Warm reruns compute nothing, so they run in-process: worker
            # start-up would only add noise to the disk-cache path.
            for _ in range(TABLE_WARM_RERUNS * warm):
                s.cold()
                code, out, warm_s = s.invoke(self._argv(str(work / "warm.json"), 1))
                s.attempted += len(self.shapes)
                warm_times.append(warm_s)
                if code != 0:
                    s.fail_exit("table warm", code, out)
                elif (work / "warm.json").read_text() != cold_text:
                    s.failures.append("table: warm rerun is not byte-identical")
        finally:
            if previous is None:
                os.environ.pop("MACDET_CACHE_DIR", None)
            else:
                os.environ["MACDET_CACHE_DIR"] = previous
            shutil.rmtree(work, ignore_errors=True)
            self.plan.append([list(lam) for lam in self.shapes])
        return PassResult([cold_s], len(self.shapes), warm_times)


class VerifyWorkload:
    """``verify --suite all`` from cold caches; a request is one check
    instance.

    The command keeps verify's default seed.  The sampled appendix checks
    cost from 2 s to 5 s depending on which instances a seed draws, so a
    benchmark seed passed through would measure the draw, not the code."""

    trace_warm = False

    def __init__(self, session: Session):
        self.session = session
        self.argv = ["verify", "--suite", "all",
                     "--max-weight", str(VERIFY_MAX_WEIGHT[session.tiny]),
                     "--samples", str(VERIFY_SAMPLES[session.tiny])]
        self.plan: list[list] = []

    def describe(self) -> dict:
        return {"command": " ".join(self.argv), "request": "verify check instance"}

    def _verify(self) -> tuple[float, int]:
        s = self.session
        code, out, elapsed = s.invoke(self.argv)
        try:
            report = json.loads(out)
            checks = report["checks"]
            instances = sum(c["instances"] for c in checks)
        except (json.JSONDecodeError, KeyError, TypeError):
            s.attempted += 1
            s.fail_exit("verify (no report)", code, out)
            return elapsed, 1
        s.attempted += instances
        failed = [c for c in checks if c["failures"]]
        for check in failed:
            s.failures.extend([f"verify {check['name']}: {check['detail']}"] * check["failures"])
        if code != 0 or report.get("passed") is not True:
            if not failed:
                s.failures.append(f"verify: exit code {code}, passed={report.get('passed')}")
        return elapsed, instances

    def run_pass(self, warm: int) -> PassResult:
        """The command from cold caches; then ``warm`` times again with
        the caches it filled."""
        self.session.cold()
        elapsed, instances = self._verify()
        self.plan.append(list(self.argv))
        return PassResult([elapsed], instances, [self._verify()[0] for _ in range(warm)])


def make_workload(name: str, session: Session, seed: int, jobs: int):
    if name == "jpoly-det":
        return JpolyWorkload(session, "determinant", seed)
    if name == "jpoly-oracle":
        return JpolyWorkload(session, "oracle", seed)
    if name == "table-creation":
        return TableWorkload(session, jobs)
    return VerifyWorkload(session)


WORKLOADS = ("jpoly-det", "jpoly-oracle", "table-creation", "verify-all")


# ---------------------------------------------------------------------------
# measurement

def pass_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_S[workload]))


def run_passes(workload, count: int, warm: bool = True) -> list[PassResult]:
    """``count`` passes; fewer only once PASS_LIMIT_S have gone by.  With
    ``warm``, WARM_RERUNS warm reruns end passes spread evenly over the
    run, so that warm samples see the same host states as cold ones."""
    warm_at = Counter(i * (count - 1) // (WARM_RERUNS - 1)
                      for i in range(WARM_RERUNS if warm else 0))
    passes: list[PassResult] = []
    start = perf_counter()
    while len(passes) < count and (not passes or perf_counter() - start < PASS_LIMIT_S):
        passes.append(workload.run_pass(warm_at[len(passes)]))
    return passes


def measure_setup() -> tuple[list[float], list[float]]:
    """Reference seconds that fresh interpreters spend importing
    macdet.cli and building its parser, as each measures them with the
    calibration loop around the import, and the wall time of each whole
    interpreter run.  One untimed start first compiles the bytecode."""
    code = ("import sys\n"
            "sys.path[:0] = ['src', 'bench']\n"
            "import speed\n"
            "speed.calibrate()\n"
            "with speed.Stopwatch() as watch:\n"
            "    import macdet.cli\n"
            "    macdet.cli.build_parser()\n"
            "print(watch.reference_s)\n")
    cmd = [sys.executable, "-E", "-s", "-c", code]
    inner, outer = [], []
    for i in range(SETUP_REPEATS + 1):
        start = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, check=True, timeout=120,
                              capture_output=True, text=True)
        if i:
            outer.append(perf_counter() - start)
            inner.append(float(proc.stdout))
    return inner, outer


def tail(passes: list[PassResult]) -> tuple[float, str]:
    """The highest-ranked latency with TAIL_BEYOND samples beyond it, and
    which sample that is.  With too few samples for that percentile to
    lie above the median, the median over passes of each pass's slowest
    request, because the maximum of so few samples reads the noisiest."""
    ordered = sorted(x for p in passes for x in p.latencies)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return statistics.median(max(p.latencies) for p in passes), "median of pass maxima"
    return ordered[n - TAIL_BEYOND - 1], f"p{100.0 * (n - TAIL_BEYOND) / n:.1f}"


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(passes: list[PassResult],
               setup: tuple[list[float], list[float]]) -> tuple[dict, dict]:
    latencies = [x for p in passes for x in p.latencies]
    tail_s, tail_sample = tail(passes)
    # The median of each pass's median: a pass holds each drawn request
    # once, so the pooled median would fall between the repeated samples
    # of two shapes and read the extreme sample of one of them.
    p50 = statistics.median(statistics.median(p.latencies) for p in passes)
    # Empty only when every warm pass failed, which the result reports.
    warm = [x for p in passes for x in p.warm_s] or [0.0]
    values = {
        "setup_s": (statistics.median(setup[0]), "s"),
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "rerun_wall_s": (statistics.median(warm), "s"),
        "throughput_rps": (sum(p.requests for p in passes) / sum(p.wall_s for p in passes), "1/s"),
        "latency_p50_s": (p50, "s"),
        "latency_tail_s": (tail_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    detail = {"time_unit": "reference seconds (speed.py)",
              "passes": len(passes), "latency_samples": len(latencies),
              "tail_sample": tail_sample, "setup_import_s": setup[0],
              "setup_interpreter_wall_s": setup[1],
              "pass_wall_s": [p.wall_s for p in passes],
              "pass_warm_s": [p.warm_s for p in passes],
              "latencies_s": [p.latencies for p in passes]}
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, detail


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, cold: ColdStart, traced: int, overhead: float) -> dict:
    calls, total, counts = tracer.calls, tracer.total_s, tracer.counts

    def per_pass(value: float) -> float:
        return value / traced

    values: dict[str, tuple[float, str]] = {}
    for name in ("qt.mul", "qt.exact_div", "qt.gcd", "symfunc.ordered_expansion",
                 "symfunc.convert_basis", "symfunc.realize", "multipoly.mul",
                 "multipoly.divided_difference", "divdiff.raw_op",
                 "divdiff.scalar_product", "macdonald.creation_step",
                 "macdonald.dual_transport", "macdonald.op_action",
                 "oracle.inner_product"):
        values[f"{name}.calls"] = (per_pass(calls[name]), "count")
        values[f"{name}.s"] = (per_pass(total[name]), "s")
    for name in ("macdonald.cells", "macdonald.assemble", "macdonald.scale",
                 "oracle.orthogonal_basis", "cli.compute_expansion", "cli.render",
                 "verify.eigen", "verify.appendix", "verify.cross", "verify.oracle"):
        values[f"{name}.s"] = (per_pass(total[name]), "s")
    values.update({
        "qt.mul.term_products": (per_pass(counts["qt.mul.term_products"]), "count"),
        "qt.mul.max_terms": (tracer.max_terms, "count"),
        "qt.exact_div.hit_ratio": (_ratio(counts["qt.exact_div.hits"], calls["qt.exact_div"]), "ratio"),
        "qt.gcd.trivial_ratio": (_ratio(counts["qt.gcd.trivial"], calls["qt.gcd"]), "ratio"),
        "qt.gcd.monomial_calls": (per_pass(counts["qt.gcd.monomial_calls"]), "count"),
        "macdonald.solve.s": (per_pass(tracer.solve_s), "s"),
        "cli.cached_record.self_s": (per_pass(tracer.self_s["cli.cached_record"]), "s"),
        "cli.disk_cache.hit_ratio": (_ratio(counts["cli.disk_cache.hits"],
                                            counts["cli.disk_cache.lookups"]), "ratio"),
        "cache.lru.hits": (per_pass(cold.hits), "count"),
        "cache.lru.misses": (per_pass(cold.misses), "count"),
        "cache.lru.hit_ratio": (_ratio(cold.hits, cold.hits + cold.misses), "ratio"),
        "trace.overhead": (overhead, "ratio"),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(values.items())}


def traced_run(session: Session, workload, name: str, seconds: float,
               spans_path: Path) -> tuple[dict, dict]:
    """Untraced passes planned for a third of the time, then traced
    passes for the rest."""
    untraced = run_passes(workload, pass_count(name, seconds / 3), workload.trace_warm)
    tracer = Tracer()
    tracer.install(session.modules)
    session.tracer = tracer
    try:
        session.cold()
        session.cold.reset_counts()
        traced = run_passes(workload, pass_count(name, seconds * 2 / 3), workload.trace_warm)
        session.cold.harvest()
    finally:
        session.tracer = None
        tracer.uninstall()
    overhead = (statistics.fmean(p.wall_s for p in traced)
                / statistics.fmean(p.wall_s for p in untraced))
    metrics = per_layer(tracer, session.cold, len(traced), overhead)
    with spans_path.open("w") as out:
        out.write(json.dumps({"fields": ["id", "parent", "request", "name", "start", "end"]}) + "\n")
        for span in tracer.spans:
            out.write(json.dumps(span) + "\n")
    detail = {"untraced_passes": len(untraced), "traced_passes": len(traced),
              "untraced_wall_s": [p.wall_s for p in untraced],
              "traced_wall_s": [p.wall_s for p in traced],
              "layers": tracer.layer_table(), "spans_file": spans_path.name}
    return metrics, detail


# ---------------------------------------------------------------------------
# metadata and entry point

def git_sha() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref = text[5:]
            path = ROOT / ".git" / ref
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return text
    except OSError:
        return None


def source_digest() -> str:
    """sha256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one macdet benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes: weights <= 3")
    args = parser.parse_args(argv)

    try:
        modules = load_macdet()
        reference = json.loads(REFERENCE.read_text())["digests"]
    except (ProgramMissing, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: cannot load the program or its reference digests: {exc}",
              file=sys.stderr)
        return 2

    session = Session(modules, reference, args.tiny)
    nproc = os.cpu_count() or 1
    # Spans cannot follow work into pool workers, so a traced table runs
    # its records in-process.
    jobs = 1 if args.trace else min(TABLE_JOBS, nproc)
    workload = make_workload(args.workload, session, args.seed, jobs)
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")

    if args.trace:
        metrics, detail = traced_run(session, workload, args.workload, args.seconds,
                                     RESULTS / f"{stem}-spans.jsonl")
    else:
        setup = measure_setup()
        passes = run_passes(workload, pass_count(args.workload, args.seconds))
        metrics, detail = end_to_end(passes, setup)

    failed = len(session.failures)
    result = {"correct": failed == 0, "attempted": session.attempted,
              "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "python": platform.python_version(),
        "nproc": nproc, "table_jobs": jobs, "git_sha": git_sha(),
        "source_sha256": source_digest(), "workload_detail": workload.describe(),
        "failed_ratio": failed / max(session.attempted, 1),
        "failures": session.failures[:50], "detail": detail,
        "command_wall_s": session.wall_s,
        "calibration_loop_s": {"median": statistics.median(session.loop_s or [0.0]),
                               "min": min(session.loop_s, default=0.0),
                               "max": max(session.loop_s, default=0.0)},
        "requests": workload.plan, "result": result,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for name, metric in metrics.items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}",
              file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
