"""Per-block checks: the worker pool of `suites._map_blocks` and the
in-process path give the same results and the same report bytes."""

import gc
import hashlib
import inspect
import io
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import textwrap
import time
import tracemalloc
import weakref

import pytest

import klrcalc as K
from klrcalc import alternating, perms, signop, suites
from klrcalc.cli import main
from test_golden import GOLDEN, RUNS
from test_signop import decode_reversed


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


def test_map_blocks_without_sched_getaffinity(monkeypatch, capsys):
    # macOS has no sched_getaffinity: the CPUs of the machine are counted
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(suites, "POOL_MIN_WORK", 0)
    pids = suites._map_blocks(os.getpid, [(), ()])
    assert len(pids) == 2 and os.getpid() not in pids
    assert main(["verify", "alt-presentation", "--n", "2"]) == 0
    assert "all checks passed" in capsys.readouterr().out


def test_map_blocks_without_fork_runs_here(monkeypatch, capsys):
    usable_cpus(monkeypatch, 2)

    def no_fork(method=None):
        # what multiprocessing raises where fork does not exist (Windows)
        raise ValueError(f"cannot find context for {method!r}")

    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    assert suites._map_blocks(os.getpid, [(), ()]) == [os.getpid()] * 2
    # a verify run passes instead of exiting 2 as if it were a usage error
    assert main(["verify", "alt-presentation", "--n", "2"]) == 0
    assert "all checks passed" in capsys.readouterr().out


def proc_stat(pid):
    """(state, parent pid) of a process, from /proc; None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except OSError:
        return None
    # the fields after the command name, which may hold spaces
    state, ppid = stat[stat.rindex(")") + 2:].split()[:2]
    return state, int(ppid)


def is_running(pid):
    stat = proc_stat(pid)
    return stat is not None and stat[0] != "Z"


def live_children(pid):
    stats = {int(entry): proc_stat(entry)
             for entry in os.listdir("/proc") if entry.isdigit()}
    return [child for child, stat in stats.items()
            if stat is not None and stat[1] == pid and stat[0] != "Z"]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_pool_workers_die_with_their_caller():
    script = (
        "import os\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from klrcalc.cli import main\n"
        "main(['verify', 'klr-relations', '--n', '4', '--bound', '1'])\n")
    src = os.path.dirname(os.path.dirname(suites.__file__))
    run = subprocess.Popen([sys.executable, "-c", script],
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                           env={**os.environ, "PYTHONPATH": src})
    workers = []
    try:
        deadline = time.monotonic() + 30
        while len(workers) < 2 and run.poll() is None and time.monotonic() < deadline:
            time.sleep(0.02)
            workers = live_children(run.pid)
        assert len(workers) == 2, (workers, run.poll())
        run.kill()
        run.wait(timeout=10)
        deadline = time.monotonic() + 5
        while any(map(is_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not any(map(is_running, workers))
    finally:
        run.kill()
        run.wait(timeout=10)
        for pid in filter(is_running, workers):
            os.kill(pid, signal.SIGKILL)


def test_block_work_counts_truncated_bases():
    q = K.cycle(3)
    for n, bound in ((2, 2), (3, 1), (3, 0)):
        roots = K.all_roots(q, n)
        ctx = K.KLR(q, n)
        assert suites._block_work(n, bound, roots) == sum(
            len(ctx.enumerate_basis(root, bound)) for root in roots)
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
        digests.append(hashlib.sha256(
            capsys.readouterr().out.encode()).hexdigest())
    # digests, not the reports, so that a failure prints no long diff
    assert digests[0] == digests[1]
    if (name, fmt) in GOLDEN:
        assert digests[0] == GOLDEN[(name, fmt)]


# A seeded fault: the relation table's rhs loses its braid correction, so
# every braid instance with i_r = i_{r+2} and an arrow between i_r and
# i_{r+1} fails.  Forked workers inherit the patch.
FAILING_RUNS = {
    "alt-presentation": ["verify", "alt-presentation", "--n", "3",
                         "--bound", "1"],
    "signed-relations": ["verify", "signed-relations", "--quiver", "cycle(3)",
                         "--n", "3", "--bound", "1"],
    # six blocks fail their braid rows; both fuzz lines pass
    "klr-relations": ["verify", "klr-relations", "--n", "3", "--bound", "0",
                      "--fuzz", "5"],
}

# sha256 of the raw stdout
FAILING_GOLDEN = {
    ("alt-presentation", "text"):
        "eac79c6bbc7ab9d4610ca0d80c388e77cd4e0067125404d07b19621c3e80e29a",
    ("alt-presentation", "json"):
        "10001273936cb080d9a216053af6fd14efb646cbeb8144ffa59506cdd7855aec",
    ("signed-relations", "text"):
        "2a416ca2293b8e8c0e638c8036c2be7bee9dfb6bdc4134e34a714c420cdb6a07",
    ("signed-relations", "json"):
        "aa75c8536ffa182696eb779ad3ee4a1f35eba687faa67ec7548dacc516f1dafd",
    ("klr-relations", "text"):
        "e18501666fd8e43eeb728666be3ef8512fa0c017102774d63727255e4123f9d3",
    ("klr-relations", "json"):
        "bb236d97962454500378a43cef0b9c3149856a04fe3617c6a497c297cb7ec049",
}


def drop_braid_correction(monkeypatch):
    correction = K.algebra._correction
    monkeypatch.setattr(K.algebra, "_correction",
                        lambda kind, *args: [] if kind == "braid"
                        else correction(kind, *args))


@pytest.mark.parametrize("pooled", [False, True], ids=["in-process", "pool"])
@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", sorted(FAILING_RUNS))
def test_failing_presentation_report(name, fmt, pooled, monkeypatch, capsys):
    drop_braid_correction(monkeypatch)
    if pooled:
        usable_cpus(monkeypatch, 2)
    else:
        monkeypatch.setattr(suites, "POOL_MIN_WORK", 10**9)
    assert main(FAILING_RUNS[name] + ["--format", fmt]) == 1
    out = capsys.readouterr().out
    assert "FAILURES PRESENT" in out if fmt == "text" else '"fail"' in out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        FAILING_GOLDEN[(name, fmt)]


# A seeded fault in the word-set action: each value of `KLR.act_words` comes
# out with its terms of three-letter words negated, on both tags.  Express
# coverage runs its words through `act_words`, so its rows of the longest
# word fail; the relation rows run their programs through `KLR._run_steps`
# and pass.  sha256 of the raw stdout of `verify alt-presentation --n 3
# --bound 1`.
EXPRESS_FAILING_GOLDEN = {
    "text": "53361e0e171cc96da5637afc07bf5ae6de4e515168946610563af2c6ca9aa0a7",
    "json": "4a28fe4069a1bf15aa2ca8d8164900b45abb81b3db49edaf04e021e68fcd9c73",
}


def negate_three_letter_products(monkeypatch):
    act_words = K.KLR.act_words

    def negated(self, words, xs):
        for values in act_words(self, words, xs):
            yield [K.Element(self, {m: self.dom.neg(c) if perms.length(m.w) == 3
                                    else c for m, c in x.terms.items()})
                   for x in values]

    monkeypatch.setattr(K.KLR, "act_words", negated)


@pytest.mark.parametrize("pooled", [False, True], ids=["in-process", "pool"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_failing_express_report(fmt, pooled, monkeypatch, capsys):
    negate_three_letter_products(monkeypatch)
    if pooled:
        usable_cpus(monkeypatch, 2)
    else:
        monkeypatch.setattr(suites, "POOL_MIN_WORK", 10**9)
    argv = ["verify", "alt-presentation", "--n", "3", "--bound", "1"]
    assert main(argv + ["--format", fmt]) == 1
    out = capsys.readouterr().out
    if fmt == "text":
        assert ("FAIL [2*a[0]+a[1]] express(alt basis element) "
                "(72 instances, 12 failing)") in out
    assert hashlib.sha256(out.encode()).hexdigest() == EXPRESS_FAILING_GOLDEN[fmt]


# the degree row of y_r that a suite's presentation checks, if it has one
DEGREE_ROW = {"alt-presentation": "deg Y_r = 2",
              "signed-relations": "deg2 y'_r = (2,-)"}


@pytest.mark.parametrize("suite, argv, row", [
    ("alt-presentation", ["--bound", "1"], "express(alt basis element)"),
    ("clifford", [], "centrality (y[1])"),
    ("alt-presentation", ["--bound", "0"], "deg Y_r = 2"),
    ("signed-relations", ["--bound", "1"], "deg2 y'_r = (2,-)")])
def test_suites_that_catch_a_reversed_y_landing_index(suite, argv, row,
                                                      monkeypatch, capsys):
    # a seeded fault: y_t psi_w e(i) lands on y_{n+1-t}.  Every relation row
    # holds under it, so klr-relations sees it only in its strategy fuzz;
    # the presentations catch it in their degree rows of y_r, which compare
    # y_r acting on the block unit with y_r built from monomials, and alt
    # at bound 1 in its express rows too
    init = K.KLR.__init__

    def reversed_landing(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._unit_e = self._unit_e[::-1]

    monkeypatch.setattr(K.KLR, "__init__", reversed_landing)
    monkeypatch.setattr(suites, "POOL_MIN_WORK", 10**9)
    assert main(["verify", suite, "--n", "3", *argv]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("FAIL ")]
    degree = DEGREE_ROW.get(suite)
    assert sum(row in line for line in failed) == 6
    if degree is not None:
        assert sum(degree in line for line in failed) == 6
    assert all(row in line or (degree is not None and degree in line)
               for line in failed)


@pytest.mark.parametrize("suite, argv, row, count", [
    ("klr-relations", ["--bound", "1"], "sum_i e(i) acts as identity", 10),
    ("alt-presentation", ["--bound", "1"], "express(alt basis element)", 6),
    ("clifford", [], "odd_is_eps_even", 6),
    ("alt-presentation", ["--bound", "0"], "deg Y_r = 2", 6),
    ("signed-relations", ["--bound", "1"], "deg2 y'_r = (2,-)", 6)])
def test_suites_that_catch_a_reversed_key_decoding(suite, argv, row, count,
                                                   monkeypatch, capsys):
    # a seeded fault: `KLR._decode` reads the exponent fields in reverse.
    # The relation rows compare packed terms and decode only a failing
    # row's diff, so they miss it; the presentations' degree rows of y_r
    # compare the decoded y_r 1 with y_r built from monomials, and clifford
    # fails because eps times a plane's even row lands on another plane
    decode_reversed(monkeypatch)
    monkeypatch.setattr(suites, "POOL_MIN_WORK", 10**9)
    assert main(["verify", suite, "--n", "3", *argv]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("FAIL ")]
    assert sum(row in line for line in failed) == count


def test_express_coverage_reads_the_odd_kinds(monkeypatch, capsys):
    # a seeded fault: Y_r is read as even.  Express coverage counts each
    # word's parity from ALT_ODD once, for its passing and its failing
    # rows, so its rows of an odd number of y letters fail with the relation
    # rows that read Y_r
    monkeypatch.setattr(alternating, "ALT_ODD", frozenset({"psi"}))
    monkeypatch.setattr(suites, "POOL_MIN_WORK", 10**9)
    assert main(["verify", "alt-presentation", "--n", "3", "--bound", "1"]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("FAIL ")]
    assert len(failed) == 20
    assert sum("express(alt basis element)" in line for line in failed) == 6


@pytest.mark.parametrize("quiver", ["cycle(3)", "path(3)"])
@pytest.mark.parametrize("suite", ["alt-presentation", "signed-relations"])
def test_presentations_read_the_opposite_orientation(suite, quiver, monkeypatch,
                                                     capsys):
    # a seeded fault: the G' copy reads G's arrows.  Both presentations
    # evaluate the G' tag part of every word, so the rows that read an
    # arrow (psi^2 and braid) fail, and no other row does
    monkeypatch.setattr(K.KLR, "arrow", lambda self, tag, u, v:
                        self.quiver.has_edge(u, v))
    monkeypatch.setattr(suites, "POOL_MIN_WORK", 10**9)
    argv = ["verify", suite, "--quiver", quiver, "--n", "3", "--bound", "1"]
    assert main(argv + ["--format", "json"]) == 1
    failed = {row["relation"]
              for row in instance_rows(json.loads(capsys.readouterr().out))
              if row["status"] == "fail"}
    names = alternating.ALT_NAMES if suite == "alt-presentation" \
        else alternating.SIGNED_NAMES
    assert failed and failed <= {names["psi psi"], names["braid"]}


@pytest.mark.parametrize("quiver", ["cycle(3)", "path(3)"])
def test_sweep_reads_the_quiver_not_the_engine(quiver, monkeypatch, capsys):
    # a seeded fault: the engine reads both copies reversed.  Its products
    # are those of the opposite quiver, so the fuzz still passes; the sweep's
    # corrections read the quiver's arrows, so its psi^2 and braid rows fail
    arrow = K.KLR.arrow
    monkeypatch.setattr(K.KLR, "arrow", lambda self, tag, u, v:
                        arrow(self, tag, v, u))
    monkeypatch.setattr(suites, "POOL_MIN_WORK", 10**9)
    argv = ["verify", "klr-relations", "--quiver", quiver, "--n", "3",
            "--bound", "1", "--fuzz", "20", "--format", "json"]
    assert main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    failed = {row["relation"] for row in report["instances"]
              if row["status"] == "fail"}
    assert failed == {suites.SWEEP_NAMES["psi psi"], suites.SWEEP_NAMES["braid"]}
    assert all(res["status"] == "pass" for res in report["fuzz"].values())


# Seeded faults in the rewrite core's signs: each product is rebuilt from
# its source with one sign token replaced.  (method, old, new, the lines
# starting FAIL or "  failing" that klr-relations, alt-presentation and
# signed-relations print on cycle(3) at n = 3)
CORE_SIGN_FAULTS = {
    # read as psi_r psi_{r-1} psi_r e(j) = psi_{r-1} psi_r psi_{r-1} e(j) - beta e(j)
    "braid": ("_psi_stem", "dom.from_int(beta)", "dom.from_int(-beta)",
              (31, 7, 10)),
    # read as y_c psi_c e(j) = psi_c y_{c+1} e(j) + delta e(j), and y_{c+1}
    # psi_c e(j) = psi_c y_c e(j) - delta e(j)
    "delta": ("_y_stem", "dom.from_int(s - t)", "dom.from_int(t - s)",
              (37, 31, 51)),
}


# The idempotent letter keeps the terms off its face instead of those on it.
# Every relation word's trailing e(i) is left out on a base supported on
# e(i), so only the idempotents inside a word see it.
IDEMPOTENT_FAULT = ("_run_steps", "faces[k & _STEM] == g", "faces[k & _STEM] != g",
                    (21, 98, 183))


def seed_core_fault(monkeypatch, name, old, new):
    """Rebuild `KLR.name` from its source with `old` replaced by `new`."""
    source = textwrap.dedent(inspect.getsource(getattr(K.KLR, name)))
    assert source.count(old) == 1
    namespace = dict(vars(K.algebra))
    exec(source.replace(old, new), namespace)
    # a context binds its products into its steps when it is built
    monkeypatch.setattr(K.KLR, name, namespace[name])


def relation_suite_fail_lines(monkeypatch, capsys) -> tuple:
    """The lines starting `FAIL` or `  failing` of klr-relations,
    alt-presentation and signed-relations on cycle(3) at n = 3, each of
    which must exit 1, and of clifford, which checks no relation and must
    exit 0."""
    monkeypatch.setattr(suites, "POOL_MIN_WORK", 10**9)
    counts = []
    for suite, argv in [("klr-relations", ["--bound", "1", "--fuzz", "20"]),
                        ("alt-presentation", ["--bound", "1"]),
                        ("signed-relations", ["--bound", "1"]),
                        ("clifford", [])]:
        rc = main(["verify", suite, "--quiver", "cycle(3)", "--n", "3", *argv])
        counts.append(sum(line.startswith(("FAIL", "  failing"))
                          for line in capsys.readouterr().out.splitlines()))
        assert rc == (suite != "clifford"), suite
    return tuple(counts)


@pytest.mark.parametrize("fault", sorted(CORE_SIGN_FAULTS))
def test_suites_that_catch_a_core_sign_fault(fault, monkeypatch, capsys):
    # the three relation suites fail; clifford, which checks no relation,
    # is the known escape
    name, old, new, want = CORE_SIGN_FAULTS[fault]
    seed_core_fault(monkeypatch, name, old, new)
    assert relation_suite_fail_lines(monkeypatch, capsys) == want + (0,)


def test_suites_that_catch_an_idempotent_fault(monkeypatch, capsys):
    # the relation rows run idempotent letters inside their words (e(i) y_r,
    # e(s_r i) psi_r), so the three relation suites fail; clifford escapes
    name, old, new, want = IDEMPOTENT_FAULT
    seed_core_fault(monkeypatch, name, old, new)
    assert relation_suite_fail_lines(monkeypatch, capsys) == want + (0,)


def instance_rows(obj):
    """Every instance row (a dict with a "status") nested in `obj`."""
    if isinstance(obj, dict):
        if "status" in obj:
            yield obj
        else:
            for value in obj.values():
                yield from instance_rows(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from instance_rows(value)


TALLY_LINE = re.compile(r"^(?:PASS|FAIL) \[(\S+)\] (.+) "
                        r"\((\d+) instances, (\d+) failing\)$", re.M)
FAILING_LINE = re.compile(r"^  failing instance: (.+)$", re.M)


def test_text_blocks_ship_tallies_not_passing_rows(monkeypatch, capsys):
    # text and JSON are built from one tally: in both formats a block hands
    # back its counts and its failing rows, never a passing row, and the
    # JSON's relations and failing rows are the text's tally lines and
    # failing instances, in the text's order
    drop_braid_correction(monkeypatch)
    usable_cpus(monkeypatch, 2)
    shipped = []
    map_blocks = suites._map_blocks

    def recording(*args):
        shipped.append(map_blocks(*args))
        return shipped[-1]

    monkeypatch.setattr(suites, "_map_blocks", recording)
    argv = ["verify", "alt-presentation", "--n", "3", "--bound", "2"]
    assert main(argv) == 1
    text = capsys.readouterr().out
    assert main(argv + ["--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    text_rows, json_rows = (list(instance_rows(res)) for res in shipped)
    assert text_rows == json_rows
    assert json.loads(json.dumps(json_rows)) == report["failing"]
    assert all(row["status"] == "fail" for row in report["failing"])

    tallies = [(block, rel, int(total), int(bad))
               for block, rel, total, bad in TALLY_LINE.findall(text)]
    assert tallies == [(r["block"], r["relation"], r["instances"], r["failing"])
                       for r in report["relations"]]
    assert [json.loads(row) for row in FAILING_LINE.findall(text)] == \
        report["failing"]
    assert sum(bad for _, _, _, bad in tallies) == len(report["failing"]) > 0
    assert sum(total for _, _, total, _ in tallies) > len(report["failing"])


def _emit_report(report, fmt="text"):
    """The text `suites.write_report` writes."""
    buf = io.StringIO()
    suites.write_report(report, fmt, buf)
    return buf.getvalue()


def test_write_report_matches_its_docstring():
    for report in (suites.run_signed_relations(K.cycle(3), 2),
                   suites.run_alt_presentation(K.cycle(3), 2),
                   suites.run_klr_relations(K.cycle(3), 2, bound=1, fuzz=5)):
        assert _emit_report(report) == "\n".join(report.text_lines) + "\n"
        assert _emit_report(report, "json") == json.dumps(
            report.payload, sort_keys=True, indent=2) + "\n"


def test_presentations_list_no_alternating_basis(monkeypatch):
    def refuse(*args):
        raise AssertionError("the alternating basis was listed")

    monkeypatch.setattr(alternating, "alt_basis", refuse)
    monkeypatch.setattr(K.KLR, "enumerate_basis", refuse)
    monkeypatch.setattr(suites, "POOL_MIN_WORK", 10**9)
    for run in (suites.run_alt_presentation, suites.run_signed_relations):
        report = run(K.cycle(3), 3, bound=2)
        assert report.ok and report.text_lines[-1] == "all checks passed"


@pytest.mark.parametrize("run", [suites.run_klr_relations,
                                 suites.run_alt_presentation,
                                 suites.run_signed_relations, suites.run_clifford])
def test_suites_refuse_a_negative_bound(run):
    # a negative bound truncates to no basis at all: refused, not a vacuous
    # pass, and not first read as a work estimate
    for bound in (-1, -4):
        with pytest.raises(K.ShapeError, match="bound must be >= 0"):
            run(K.cycle(3), 3, bound=bound)


def _tallied_block_passes(check):
    def run(q, root):
        counts, fails, _ = suites._on_own_context(
            suites._tally_block, q, 3, None, None, root, check, 3)
        return counts and not fails
    return run


def _clifford_block_passes(q, root):
    return suites._on_own_context(signop.clifford_axioms_check, q, 3, None,
                                  None, root, None, 3)[0]


@pytest.mark.parametrize("run", [_tallied_block_passes(suites._alt_block),
                                 _tallied_block_passes(
                                     alternating.verify_signed_relations),
                                 _clifford_block_passes],
                         ids=["alt", "signed", "clifford"])
def test_largest_block_memory(run):
    # n = 3 at bound 3: the streamed basis keeps the block's Python
    # allocations below 1 MiB, where listing it took 1.2 and 1.1 MiB; and
    # clifford builds only the parts it samples, where building b +- sgn b
    # for every basis monomial took 1.4 MiB
    q = K.cycle(3)
    root = max(K.all_roots(q, 3), key=lambda r: len(K.KLR(q, 3).block_seqs(r)))
    tracemalloc.start()
    try:
        passed = run(q, root)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert passed
    assert peak < 2**20, f"peak {peak / 2**20:.3f} MiB"


@pytest.mark.parametrize("check", [
    lambda ctx, root: suites._sweep_block(ctx, root, 1),
    lambda ctx, root: list(suites._alt_block(ctx, root, 1)[0]),
    lambda ctx, root: alternating.verify_signed_relations(ctx, root, 1),
    lambda ctx, root: signop.clifford_axioms_check(ctx, root, None, 1, 0, 20),
], ids=["sweep", "alt", "signed", "clifford"])
def test_finished_block_frees_its_context(check):
    # with the cyclic collector off, a context is freed when its last
    # reference goes: nothing it keeps refers back to it
    q = K.cycle(3)
    root = K.make_root(q, {0: 1, 1: 1, 2: 1})
    gc.disable()
    try:
        ctx = suites.make_context(q, 3)
        check(ctx, root)
        ref = weakref.ref(ctx)
        del ctx
        assert ref() is None
    finally:
        gc.enable()
