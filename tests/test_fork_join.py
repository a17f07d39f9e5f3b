"""macdet.fork_join: results in share order, exceptions raised where the
caller can catch them, and no child process left behind."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import macdet
from macdet import fork_join

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="fork_join forks only where os.fork exists")


@pytest.fixture(autouse=True)
def bounded():
    """Turn a fork_join that never returns into a failure after 60 s."""
    def expire(signum, frame):
        raise TimeoutError("fork_join did not return")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _finish_late(marker: Path):
    """A share that ends, writing marker, after its siblings have failed."""
    time.sleep(0.3)
    marker.write_text("done")
    return "late"


@needs_fork
@pytest.mark.parametrize("count", [1, 2, 3])
def test_results_come_back_in_share_order(count):
    shares = [10 * i for i in range(count)]
    results = fork_join(lambda share: (share + 1, os.getpid()), shares)
    assert [value for value, _ in results] == [share + 1 for share in shares]
    pids = [pid for _, pid in results]
    # the first share runs here, every other one in a child of its own
    assert pids[0] == os.getpid()
    assert len(set(pids)) == count
    _assert_no_child_left()


@needs_fork
def test_a_result_larger_than_a_pipe_holds_comes_back_whole():
    big = 1 << 20
    assert fork_join(lambda size: b"x" * size, [1, big]) == [b"x", b"x" * big]
    _assert_no_child_left()


@needs_fork
def test_a_childs_exception_is_raised_after_every_child_exits(tmp_path):
    marker = tmp_path / "late"

    def fn(share):
        if share == "bad":
            raise ValueError("bad share")
        return _finish_late(marker) if share == "late" else share

    with pytest.raises(ValueError, match="^bad share$"):
        fork_join(fn, ["here", "bad", "late"])
    assert marker.read_text() == "done"
    _assert_no_child_left()


@needs_fork
def test_an_exception_in_the_parents_share_still_reaps_every_child(tmp_path):
    marker = tmp_path / "late"

    def fn(share):
        if share == "bad":
            raise KeyError("parent share")
        return _finish_late(marker)

    with pytest.raises(KeyError, match="parent share"):
        fork_join(fn, ["bad", "late", "late"])
    assert marker.read_text() == "done"
    _assert_no_child_left()


@needs_fork
def test_a_child_that_exits_without_a_result_raises_a_clean_error():
    def fn(share):
        if share:
            os._exit(3)
        return share

    with pytest.raises(ChildProcessError, match="exited with status 3$"):
        fork_join(fn, [0, 1])
    _assert_no_child_left()


def test_one_share_or_no_fork_runs_in_this_process(monkeypatch):
    def no_fork():
        raise AssertionError("fork_join forked")

    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    assert fork_join(lambda share: (share, os.getpid()), ["only"]) == [("only", os.getpid())]
    assert fork_join(len, []) == []
    monkeypatch.delattr(os, "fork", raising=False)
    assert fork_join(lambda share: (share, os.getpid()), [1, 2]) == [
        (1, os.getpid()), (2, os.getpid())]
    _assert_no_child_left()


@needs_fork
def test_a_fresh_process_imports_pickle_only_to_split():
    # site may preload modules, so count only those fork_join adds
    code = ("import sys\n"
            "import macdet\n"
            "before = set(sys.modules)\n"
            "macdet.fork_join(str, [int(sys.argv[1])] * int(sys.argv[1]))\n"
            "print('pickle' in set(sys.modules) - before)\n")
    src = str(Path(macdet.__file__).resolve().parents[1])
    for count, loaded in (("1", "False"), ("2", "True")):
        done = subprocess.run([sys.executable, "-c", code, count],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=60, check=True)
        assert done.stdout.split() == [loaded]
