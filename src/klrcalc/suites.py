"""
Verification suites: relation sweeps, seeded fuzzing, dimension tables, and
deterministic report emission.

Every suite is a pure function of its parameters and seed; reports render
byte-identically for identical inputs, so text output is golden-file safe.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field

from . import alternating, signop
from .algebra import TAG_MAIN, Element, KLR, Mono, relation_instances
from .quiver import (Quiver, Root, all_roots, all_seqs, default_reversal,
                     root_of_seq, root_tau_classes, validate_reversal)


@dataclass
class Report:
    ok: bool
    payload: dict
    text_lines: list = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1


# Pieces of report text joined per write.  One write per piece, about a
# million JSON pieces for `alt-presentation --n 4 --bound 2`, cost that run
# about 1 s of wall time on a 2-CPU host with unbuffered stdout.
WRITE_BATCH = 4096


def write_report(report: Report, fmt: str, out) -> None:
    """Write a Report deterministically to the text stream `out`, every
    line ending in a newline.  JSON is encoded as `json.dump(payload,
    sort_keys=True, indent=2)` would; the text is written in batches of its
    pieces, so a large report's text is never held whole."""
    if fmt == "json":
        pieces = itertools.chain(json.JSONEncoder(sort_keys=True, indent=2)
                                 .iterencode(report.payload), ["\n"])
    else:
        pieces = (f"{line}\n" for line in report.text_lines)
    # no piece is empty, so an empty batch is the end of the text
    while batch := "".join(itertools.islice(pieces, WRITE_BATCH)):
        out.write(batch)


def make_context(quiver: Quiver, n: int, domain=None, tau_mapping=None) -> KLR:
    """Build a computation context, resolving the reversal map: an explicit
    mapping wins, else the family default if the quiver carries one."""
    if tau_mapping is not None:
        tau = validate_reversal(quiver, tau_mapping)
    else:
        tau = default_reversal(quiver)
    return KLR(quiver, n, domain, tau)


# Block work (see `_block_work`) below which the blocks are checked in the
# calling process.  The forked pool starts in about 15 ms but still costs
# more than it saves on small runs: on a 2-CPU host it lost at 648
# (klr-relations --n 3 --bound 1), tied at 1,200 (alt-presentation --n 4
# --bound 0) and won from 1,620 (klr-relations --n 3).
POOL_MIN_WORK = 1_500


def _block_work(n: int, bound: int, roots) -> int:
    """Sum over the blocks of n! C(bound + n, n) |I^beta|, the size of their
    bases truncated at |a| <= bound, counted without listing them.  A
    negative bound counts none: the block's check refuses it."""
    per_seq = math.factorial(n) * math.comb(max(bound + n, 0), n)
    return sum(per_seq * math.factorial(n)
               // math.prod(math.factorial(m) for _, m in root.items)
               for root in roots)


def _map_blocks(fn, args, work: int = POOL_MIN_WORK) -> list:
    """[fn(*a) for a in args], in input order.

    Blocks are independent (their idempotents are central), so with two or
    more usable CPUs and an estimated `work` (see `_block_work`) of at least
    POOL_MIN_WORK, the default, the calls run in a pool of worker processes,
    one per CPU; otherwise, and where processes cannot be forked (Windows),
    they run here and no process is started.  An exception raised by a call
    is raised again in the caller once the calls not yet started are
    cancelled; a worker that dies raises BrokenProcessPool instead of
    hanging the pool.

    The workers are forked: they start as copies of this process, with
    klrcalc imported and its pages shared copy-on-write, so they import
    nothing and replay no `__main__`.  That is safe here because
    - no thread exists at fork time: with a fork context the executor
      starts all its workers before its manager thread, and klrcalc starts
      no thread here (each worker starts one, see `_die_with_parent`);
    - no report line is printed twice: stdio is flushed before each fork;
    - no clean-up of this process runs in a worker: workers leave through
      `os._exit`, so no `finally` block or atexit handler runs there;
    - no engine memo is shared: every block builds its own context (see
      `_on_own_context`); the one memo inherited is `perms`' module-level
      caches of pure functions, shared copy-on-write;
    - no worker outlives this process for long: see `_die_with_parent`.
    """
    args = list(args)
    # macOS has no sched_getaffinity: count the machine's CPUs there
    workers = min(len(args), len(os.sched_getaffinity(0))
                  if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    if workers < 2 or work < POOL_MIN_WORK:
        return [fn(*a) for a in args]
    # imported only here: importing them slows every start-up
    import multiprocessing
    if "fork" not in multiprocessing.get_all_start_methods():
        return [fn(*a) for a in args]
    from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                               initializer=_die_with_parent,
                               initargs=(os.getpid(),))
    try:
        futures = [pool.submit(fn, *a) for a in args]
        return [f.result() for f in futures]
    finally:
        pool.shutdown(cancel_futures=True)


def _die_with_parent(parent: int) -> None:
    """Pool worker initializer: a daemon thread ends this worker within a
    quarter second of the process `parent` ending, seen as the worker's
    parent pid changing when it is re-parented.  So a killed run leaves no
    worker computing and holding its stdout open.  The thread only sleeps
    and reads its parent pid; `threading` is loaded already by the pool."""
    import threading
    import time

    def watch():
        while os.getppid() == parent:
            time.sleep(0.25)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _on_own_context(check, quiver: Quiver, n: int, domain, tau_mapping,
                    root: Root, *args):
    """check(ctx, root, *args) on a context built for this block alone, so
    that its memo tables are freed once the block's rows exist."""
    return check(make_context(quiver, n, domain, tau_mapping), root, *args)


# --- seeded random elements ----------------------------------------------------


def random_mono(ctx: KLR, rng: random.Random, seqs, tags=(TAG_MAIN,)) -> Mono:
    w = list(range(ctx.n))
    rng.shuffle(w)
    a = [0] * ctx.n
    for _ in range(rng.randint(0, 2)):
        a[rng.randrange(ctx.n)] += 1
    return Mono(rng.choice(tags), tuple(w), tuple(a), rng.choice(seqs))


def random_element(ctx: KLR, rng: random.Random, seqs=None, tags=(TAG_MAIN,),
                   max_terms: int = 3) -> Element:
    if seqs is None:
        seqs = all_seqs(ctx.quiver, ctx.n)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        c = rng.choice([-2, -1, 1, 2, 3])
        m = random_mono(ctx, rng, seqs, tags)
        terms[m] = ctx.dom.add(terms.get(m, ctx.dom.from_int(0)), ctx.dom.from_int(c))
    return ctx.elem(terms)


# --- the relation sweep for the defining presentation ---------------------------


SWEEP_NAMES = {
    "y e": "y_r e(i) = e(i) y_r",
    "psi e": "psi_r e(i) = e(s_r i) psi_r",
    "y y": "y_r y_s = y_s y_r",
    "psi y": "psi_r y_{r+1} = (y_r psi_r + delta)",
    "y psi": "y_{r+1} psi_r = (psi_r y_r + delta)",
    "psi y far": "psi_r y_s = y_s psi_r (s far)",
    "psi psi far": "psi_r psi_s = psi_s psi_r (far)",
    "psi psi": "psi_r^2 cases",
    "braid": "deformed braid cases",
}


def _sweep_block(ctx: KLR, root: Root, bound: int):
    """Apply both sides of every defining relation to every truncated basis
    monomial of the block; returns aggregated rows."""
    seqs = ctx.block_seqs(root)
    monos = ctx.enumerate_basis(root, bound)
    unit = ctx.unit(seqs)
    checked: dict = {}
    diffs: dict = {}

    def check(relation, diff):
        # diff: lhs - rhs, or None where the row holds
        checked[relation] = checked.get(relation, 0) + 1
        if diff is not None and relation not in diffs:
            from .exprs import element_to_json_obj
            diffs[relation] = element_to_json_obj(diff)

    def differ(lhs, rhs):
        return None if lhs == rhs else lhs - rhs

    def base(m):
        return Element(ctx, {m: ctx.dom.one})

    # idempotent relations on the block
    for i in seqs:
        for j in seqs:
            check("e(i)e(j) = delta e(i)",
                  differ(ctx.e(i) * ctx.e(j), ctx.e(i) if i == j else ctx.zero()))
    for x in map(base, monos):
        check("sum_i e(i) acts as identity", differ(unit * x, x))

    # every word of a basis monomial's label acts on the monomial itself,
    # which is its own e(i) for i its face; the rows that hold are tallied
    # by family, so only a failing row calls `check`
    held: dict = {}
    for family, _, _, _, diff in relation_instances(
            ((m, ctx.mono_face(m), base(m)) for m in monos), ctx.n):
        if diff is None:
            held[family] = held.get(family, 0) + 1
        else:
            check(SWEEP_NAMES[family], diff)
    for family, count in held.items():
        name = SWEEP_NAMES[family]
        checked[name] = checked.get(name, 0) + count
    names = ["e(i)e(j) = delta e(i)", "sum_i e(i) acts as identity",
             *SWEEP_NAMES.values()]
    return [{"relation": name, "block": str(root),
             "checked": checked.get(name, 0),
             "status": "fail" if name in diffs else "pass",
             "diff": diffs.get(name)} for name in names]


def run_klr_relations(quiver: Quiver, n: int, domain=None, bound: int = 2,
                      seed: int = 0, fuzz: int = 100, tau_mapping=None) -> Report:
    """The relation sweep on every block, then `fuzz` associativity triples
    and `fuzz` rewrite-strategy words."""
    ctx = make_context(quiver, n, domain, tau_mapping)
    roots = all_roots(quiver, n)
    rows = []
    for block_rows in _map_blocks(_on_own_context, [
            (_sweep_block, quiver, n, domain, tau_mapping, root, bound)
            for root in roots], _block_work(n, bound, roots)):
        rows.extend(block_rows)

    fuzzed = {}
    checked, failure = associativity_fuzz(ctx, fuzz, seed)
    fuzzed["associativity"] = {"checked": checked,
                               "status": "pass" if failure is None else "fail",
                               "witness": failure}
    checked, failure = strategy_fuzz(ctx, fuzz, seed + 1)
    fuzzed["rewrite_strategies"] = {"checked": checked,
                                    "status": "pass" if failure is None else "fail",
                                    "witness": failure}

    ok = all(r["status"] == "pass" for r in rows) and \
        all(v["status"] == "pass" for v in fuzzed.values())
    params = {"quiver": quiver.name, "n": n, "bound": bound,
              "field": ctx.dom.name, "fuzz_triples": fuzz, "fuzz_words": fuzz}
    payload = {"suite": "klr-relations", "params": params, "seed": seed,
               "instances": rows, "fuzz": fuzzed}
    lines = _text_header("klr-relations", params, seed)
    lines += _text_rows(rows)
    for name, res in fuzzed.items():
        lines.append(f"{res['status'].upper()} {name} ({res['checked']} checks)")
    lines.append(_verdict(ok))
    return Report(ok, payload, lines)


# --- fuzzing ---------------------------------------------------------------------


def associativity_fuzz(ctx: KLR, count: int, seed: int):
    """(xy)z = x(yz) on random triples; returns (checked, first failure)."""
    rng = random.Random(seed)
    seqs = all_seqs(ctx.quiver, ctx.n)
    for k in range(count):
        x = random_element(ctx, rng, seqs)
        y = random_element(ctx, rng, seqs)
        z = random_element(ctx, rng, seqs)
        if (x * y) * z != x * (y * z):
            return k + 1, f"triple #{k}"
    return count, None


def _tokens_element(ctx: KLR, tokens, block_seqs, rng) -> Element:
    """Evaluate a generator token word by random binary splitting.

    Generators are restricted to the block: left multiplication preserves
    blocks and the block idempotent is central, so the result against the
    block's idempotents is unchanged while intermediate products stay small.
    """
    if not tokens:
        return ctx.unit(block_seqs)
    if len(tokens) == 1:
        kind, r = tokens[0]
        if kind == "y":
            return ctx.y_element(r, block_seqs)
        return ctx.psi_element(r, block_seqs)
    k = rng.randint(1, len(tokens) - 1)
    left = _tokens_element(ctx, tokens[:k], block_seqs, rng)
    right = _tokens_element(ctx, tokens[k:], block_seqs, rng)
    return left * right


def strategy_fuzz(ctx: KLR, count: int, seed: int):
    """Two independently seeded rewrite orders agree on random words.

    Strategy A folds the word one generator at a time from the right;
    strategies B and C evaluate random binary split trees, multiplying the
    normalized halves.  All three must give the same normal form.
    """
    rng = random.Random(seed)
    rng_b = random.Random(seed + 101)
    rng_c = random.Random(seed + 202)
    seqs = all_seqs(ctx.quiver, ctx.n)
    for k in range(count):
        tokens = []
        for _ in range(rng.randint(0, 6)):
            if ctx.n >= 2 and rng.random() < 0.6:
                tokens.append(("psi", rng.randint(1, ctx.n - 1)))
            else:
                tokens.append(("y", rng.randint(1, ctx.n)))
        seq = rng.choice(seqs)
        block = ctx.block_seqs(root_of_seq(ctx.quiver, seq))
        a = ctx.word_element(tokens, seq)
        b = _tokens_element(ctx, tokens, block, rng_b) * ctx.e(seq)
        c = _tokens_element(ctx, tokens, block, rng_c) * ctx.e(seq)
        if not (a == b == c):
            return k + 1, f"word #{k}: {tokens} e({seq})"
    return count, None


# --- the remaining suites ---------------------------------------------------------


def _tally_block(ctx: KLR, root: Root, check, bound: int):
    """check(ctx, root, bound) -> (rows, notes), its rows tallied as they
    are produced: returns (counts, fails, notes), where counts maps (block,
    relation) to [instances, failing] and fails lists the failing rows in
    order.  No passing row is kept."""
    block = str(root)
    rows, notes = check(ctx, root, bound)
    counts: dict = {}
    fails = []
    for row in rows:
        row["block"] = block
        tally = counts.setdefault((block, row["relation"]), [0, 0])
        tally[0] += 1
        if row["status"] != "pass":
            tally[1] += 1
            fails.append(row)
    return counts, fails, notes


def _run_presentation(suite: str, theorem: str, check, quiver: Quiver, n: int,
                      domain, bound: int, seed: int, tau_mapping) -> Report:
    """Run check(ctx, root, bound) -> (rows, notes) on one block per class,
    each block on its own context, and report per (block, relation) its
    instance and failing counts, then every failing row.  A block hands back
    only these (see `_tally_block`); the text and the JSON read them."""
    ctx = make_context(quiver, n, domain, tau_mapping)
    if ctx.tau is None:
        raise ValueError("this suite needs a reversal map")
    roots = root_tau_classes(quiver, ctx.tau, n).reps
    counts: dict = {}
    fails = []
    notes = []
    for block_counts, block_fails, block_notes in _map_blocks(
            _on_own_context,
            [(_tally_block, quiver, n, domain, tau_mapping, root, check, bound)
             for root in roots],
            _block_work(n, bound, roots)):
        counts.update(block_counts)
        fails += block_fails
        for note in block_notes:
            if note not in notes:
                notes.append(note)
    ok = not fails
    params = {"quiver": quiver.name, "n": n, "bound": bound, "field": ctx.dom.name}
    relations = [{"block": block, "relation": rel, "instances": total,
                  "failing": bad, "status": "fail" if bad else "pass"}
                 for (block, rel), (total, bad) in sorted(counts.items())]
    payload = {"suite": suite, "theorem": theorem, "params": params,
               "seed": seed, "notes": notes, "relations": relations,
               "failing": fails}
    lines = _text_header(suite, params, seed, notes)
    lines += [f"{r['status'].upper()} [{r['block']}] {r['relation']} "
              f"({r['instances']} instances, {r['failing']} failing)" for r in relations]
    lines += [f"  failing instance: {json.dumps(inst, sort_keys=True, default=str)}"
              for inst in fails]
    lines.append(_verdict(ok))
    return Report(ok, payload, lines)


def _alt_block(ctx: KLR, root: Root, bound: int):
    rows, notes = alternating.verify_alt_presentation(ctx, root)
    return itertools.chain(
        rows, alternating.iter_express_coverage(ctx, root, bound)), notes


def run_alt_presentation(quiver: Quiver, n: int, domain=None, bound: int = 1,
                         seed: int = 0, tau_mapping=None) -> Report:
    return _run_presentation("alt-presentation", "alternating presentation",
                             _alt_block, quiver, n, domain, bound, seed, tau_mapping)


def run_signed_relations(quiver: Quiver, n: int, domain=None, bound: int = 1,
                         seed: int = 0, tau_mapping=None) -> Report:
    return _run_presentation("signed-relations", "signed presentation",
                             alternating.verify_signed_relations, quiver, n,
                             domain, bound, seed, tau_mapping)


def run_clifford(quiver: Quiver, n: int, domain=None, bound: int = 1,
                 seed: int = 0, max_pairs: int = 400, tau_mapping=None,
                 block: Root | None = None) -> Report:
    ctx = make_context(quiver, n, domain, tau_mapping)
    if ctx.tau is None:
        raise ValueError("this suite needs a reversal map")
    roots = ([block] if block is not None
             else root_tau_classes(quiver, ctx.tau, n).reps)
    all_ok = True
    blocks = {}
    lines_body = []
    for root, (ok, axioms, _) in zip(roots, _map_blocks(_on_own_context, [
            (signop.clifford_axioms_check, quiver, n, domain, tau_mapping,
             root, None, bound, seed, max_pairs) for root in roots],
            _block_work(n, bound, roots))):
        all_ok = all_ok and ok
        blocks[str(root)] = axioms
        for name, res in sorted(axioms.items()):
            wit = f" ({res['witness']})" if res["witness"] else ""
            lines_body.append(f"{res['status'].upper()} [{root}] {name}{wit}")
    payload = blocks[str(roots[0])] if block is not None else blocks
    params = {"quiver": quiver.name, "n": n, "bound": bound,
              "field": ctx.dom.name, "max_pairs": max_pairs}
    lines = _text_header("clifford", params, seed) + lines_body
    lines.append(_verdict(all_ok))
    return Report(all_ok, payload, lines)


def run_dims(quiver: Quiver, n: int, domain=None, bound: int = 3,
             seed: int = 0, tau_mapping=None) -> Report:
    ctx = make_context(quiver, n, domain, tau_mapping)
    if ctx.tau is None:
        raise ValueError("this suite needs a reversal map")
    window = alternating.dims_complete_window(ctx, bound)
    if window < 4:  # the first halving row compares degrees 2 and 4
        raise ValueError(f"bound {bound} leaves no halving row at n = {n}; "
                         f"use a bound of at least {2 + n * (n - 1) // 2}")
    full = alternating.full_dims_single(ctx, bound)
    alt = alternating.alternating_dims_single(ctx, bound)
    halving = []
    k = 1
    while 2 * k + 2 <= window:
        lo, hi = 2 * k, 2 * k + 2
        a = alt.get(lo, 0) + alt.get(hi, 0)
        f = full.get(lo, 0) + full.get(hi, 0)
        halving.append({"k": k, "alternating": a, "full": f,
                        "status": "pass" if 2 * a == f else "fail"})
        k += 1
    ok = all(h["status"] == "pass" for h in halving)
    params = {"quiver": quiver.name, "n": n, "bound": bound, "field": ctx.dom.name}
    payload = {"suite": "dims", "params": params, "seed": seed,
               "full": {str(d): c for d, c in full.items()},
               "alternating": {str(d): c for d, c in alt.items()},
               "complete_upto_degree": window, "halving": halving}
    lines = _text_header("dims", params, seed)
    lines.append("degree table (full / alternating), complete up to degree "
                 f"{window}:")
    for d in sorted(set(full) | set(alt)):
        lines.append(f"  deg {d}: {full.get(d, 0)} / {alt.get(d, 0)}")
    for h in halving:
        lines.append(f"{h['status'].upper()} halving k={h['k']}: "
                     f"2*{h['alternating']} == {h['full']}")
    lines.append(_verdict(ok))
    return Report(ok, payload, lines)


SUITES = {
    "klr-relations": run_klr_relations,
    "alt-presentation": run_alt_presentation,
    "signed-relations": run_signed_relations,
    "clifford": run_clifford,
    "dims": run_dims,
}


# --- text helpers -------------------------------------------------------------------


def _text_header(suite, params, seed, notes=()):
    lines = [f"suite: {suite}"]
    for k in sorted(params):
        lines.append(f"param {k} = {params[k]}")
    lines.append(f"seed: {seed}")
    for note in notes:
        lines.append(f"note: {note}")
    return lines


def _text_rows(rows):
    out = []
    for r in rows:
        out.append(f"{r['status'].upper()} [{r['block']}] {r['relation']} "
                   f"({r['checked']} checks)")
    return out


def _verdict(ok: bool) -> str:
    return "all checks passed" if ok else "FAILURES PRESENT"
