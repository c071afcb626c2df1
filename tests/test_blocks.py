"""Per-block checks: the worker pool of `suites._map_blocks` and the
in-process path give the same results and the same report bytes."""

import hashlib
import multiprocessing
import os

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
