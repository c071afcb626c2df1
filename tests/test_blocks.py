"""Per-block checks: the worker pool of `suites._map_blocks` and the
in-process path give the same results and the same report bytes."""

import hashlib
import multiprocessing
import os
import subprocess
import sys
import time

import pytest

import klrcalc as K
from klrcalc import suites
from klrcalc.cli import main
from test_golden import GOLDEN, RUNS, canonical_stdout


def usable_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    # runs of every size take the pool when the CPUs allow it
    monkeypatch.setattr(suites, "POOL_MIN_WORK", 0)


def test_map_blocks_pool_keeps_input_order(monkeypatch):
    usable_cpus(monkeypatch, 2)
    assert suites._map_blocks(pow, [(2, k) for k in range(5)]) == [1, 2, 4, 8, 16]
    # the calls really ran in other processes
    pids = suites._map_blocks(os.getpid, [(), ()])
    assert len(pids) == 2 and os.getpid() not in pids


def test_map_blocks_raises_worker_errors(monkeypatch):
    usable_cpus(monkeypatch, 2)
    # a usage error raised in a worker reaches the CLI, which exits 2
    with pytest.raises(ValueError):
        suites._map_blocks(int, [("1",), ("x",)])


def mark_then_sleep(path, k):
    """Leave a marker for call k, then fail at once (k = 0) or take 0.2 s."""
    open(os.path.join(path, str(k)), "w").close()
    if k == 0:
        raise ValueError("first call fails")
    time.sleep(0.2)


def test_map_blocks_cancels_pending_calls_on_error(monkeypatch, tmp_path):
    usable_cpus(monkeypatch, 2)
    calls = [(str(tmp_path), k) for k in range(20)]
    with pytest.raises(ValueError):
        suites._map_blocks(mark_then_sleep, calls)
    # the calls still queued when the error arrived never started
    assert "0" in os.listdir(tmp_path)
    assert len(os.listdir(tmp_path)) < len(calls)


def test_map_blocks_runs_from_a_script_without_main_guard():
    script = (
        "import os\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from klrcalc import suites\n"
        "suites.POOL_MIN_WORK = 0\n"
        "print(suites._map_blocks(pow, [(2, k) for k in range(5)]))\n")
    src = os.path.dirname(os.path.dirname(suites.__file__))
    done = subprocess.run([sys.executable, "-"], input=script, text=True,
                          capture_output=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert (done.returncode, done.stdout) == (0, "[1, 2, 4, 8, 16]\n"), done.stderr


def pool_min_work():
    return suites.POOL_MIN_WORK


def test_map_blocks_workers_are_forked(monkeypatch):
    usable_cpus(monkeypatch, 2)
    # a spawned worker would import suites afresh and read the module's value
    assert suites._map_blocks(pool_min_work, [(), ()]) == [0, 0]


def test_map_blocks_one_cpu_starts_no_process(monkeypatch):
    usable_cpus(monkeypatch, 1)

    def refuse(*args):
        raise AssertionError("a pool was made with one usable CPU")

    monkeypatch.setattr(multiprocessing, "get_context", refuse)
    assert suites._map_blocks(pow, [(2, k) for k in range(5)]) == [1, 2, 4, 8, 16]
    assert suites._map_blocks(os.getpid, [(), ()]) == [os.getpid()] * 2


def test_map_blocks_small_work_starts_no_process(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def refuse(*args):
        raise AssertionError("a pool was made for work below POOL_MIN_WORK")

    monkeypatch.setattr(multiprocessing, "get_context", refuse)
    work = suites.POOL_MIN_WORK - 1
    assert suites._map_blocks(os.getpid, [(), ()], work) == [os.getpid()] * 2


def test_block_work_counts_truncated_bases():
    q = K.cycle(3)
    for n, bound in ((2, 2), (3, 1), (3, 0)):
        roots = K.all_roots(q, n)
        ctx = K.KLR(q, n)
        assert suites._block_work(n, bound, roots) == sum(
            len(ctx.enumerate_basis(root, bound)[0]) for root in roots)
    # `verify klr-relations --n 2` runs here; the n = 4 sweeps stay pooled
    assert suites._block_work(2, 2, K.all_roots(q, 2)) < suites.POOL_MIN_WORK
    assert suites._block_work(4, 1, K.all_roots(q, 4)) >= suites.POOL_MIN_WORK


BOTH_PATHS = {
    "klr-relations-cycle3": RUNS["klr-relations-cycle3"],
    "alt-presentation-Q": RUNS["alt-presentation-Q"],
    "signed-relations-cycle3": RUNS["signed-relations-cycle3"],
    "clifford-n3": ["verify", "clifford", "--n", "3"],
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", sorted(BOTH_PATHS))
def test_pool_and_in_process_reports_match(name, fmt, monkeypatch, capsys):
    argv = BOTH_PATHS[name] + ["--format", fmt]
    digests = []
    for cpus in (1, 2):
        usable_cpus(monkeypatch, cpus)
        assert main(argv) == 0
        text = canonical_stdout(argv, fmt, capsys.readouterr().out)
        digests.append(hashlib.sha256(text.encode()).hexdigest())
    # digests, not the reports, so that a failure prints no long diff
    assert digests[0] == digests[1]
    if (name, fmt) in GOLDEN:
        assert digests[0] == GOLDEN[(name, fmt)]
