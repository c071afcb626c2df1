#!/usr/bin/env python3
"""Benchmark of klrcalc's CLI suites: time to verdict, peak memory, set-up.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]

Run it from the repository root; it uses the standard library only and
imports klrcalc from `src/`.  The workloads, their CLI arguments, reference
PASS-line counts and stdout digests are in perfbench/workloads.json.

One operation runs a workload's invocations one after another, each in a
fresh process (a single-process closed loop): the CLI user's cold caches are
paid every time.  Every invocation passes a correctness gate, or its
operation counts as failed.  With `--trace 0` the run reports the median
`wall_s` over at least three operations, the largest `peak_rss_mb` of any
process (both from `os.wait4` of each child) and the median `setup_s`,
the time from spawn until the suite function is entered.  With `--trace 1`
it runs one plain and one traced operation and reports the per-layer
metrics of the traced one (see tracer.py).  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  `--workload
all` runs every workload in turn and ends with one table.

Exit codes: 0 every operation passed its gate, 1 some failed, 2 the
benchmark cannot run here (no klrcalc sources, bad arguments).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
WORKLOADS = os.path.join(HERE, "workloads.json")
MIN_OPS = 3
SETUP_PROBES = 9
# every run must end within 180 s; invocations still running at this point
# are killed and their operation counts as failed
RUN_DEADLINE_S = 170.0


class Unavailable(Exception):
    """The benchmark cannot run here, or a metric could not be measured."""


def load_config(root: str) -> tuple:
    """(workloads.json contents, BENCHMARK.json contents) for `root`."""
    if not os.path.isfile(os.path.join(root, "src", "klrcalc", "cli.py")):
        raise Unavailable(f"no klrcalc sources under {os.path.join(root, 'src')}")
    try:
        with open(WORKLOADS) as fh:
            workloads = json.load(fh)
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
    except (OSError, ValueError) as exc:
        raise Unavailable(str(exc)) from exc
    return workloads, bench


def environment() -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform()}


def loadavg() -> str:
    with open("/proc/loadavg") as fh:
        return fh.read().strip()


def cpu_probe() -> float:
    """Seconds a fixed pure-Python loop takes now.  On a shared host the
    speed of a core drifts by up to 2x within minutes while the load
    average of this system stays flat; this shows the drift."""
    t0 = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return time.perf_counter() - t0


class Runner:
    """Spawns the children of one benchmark run and owns their files."""

    def __init__(self, root: str, seed: int, check_digest: bool, deadline: float):
        self.seed = seed
        self.check_digest = check_digest
        self.deadline = deadline
        self.work = os.path.join(root, ".bench_build", "perfbench")
        os.makedirs(self.work, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        PYTHONHASHSEED=str(seed % 2**32))
        self._ids = itertools.count()

    def invoke(self, mode: str, args: list) -> dict:
        """One child process; returns its measurements and stdout."""
        path = os.path.join(self.work, f"{os.getpid()}-{next(self._ids)}")
        cmd = [sys.executable, CHILD, mode, path, "--", *args,
               "--seed", str(self.seed)]
        remaining = self.deadline - time.monotonic()
        t0 = time.monotonic_ns()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=self.env)
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(max(remaining, 0.0), kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.monotonic_ns()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            proc.stdout.close()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        try:
            with open(path) as fh:
                entered = json.load(fh)["entered_ns"]
            os.remove(path)
        except (OSError, ValueError, KeyError):
            entered = None
        return {"rc": proc.returncode, "stdout": out,
                "timed_out": killed.is_set(),
                "wall_s": (t1 - t0) / 1e9,
                "setup_s": None if entered is None else (entered - t0) / 1e9,
                "peak_rss_mb": usage.ru_maxrss / 1024,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "spans": path + ".spans" if mode == "trace" else None}

    def operation(self, spec: dict, mode: str) -> dict:
        """Run every invocation of the workload once, in order."""
        invs = [self.invoke(mode, inv["argv"]) for inv in spec["invocations"]]
        problems = []
        if mode != "probe":
            for inv, res in zip(spec["invocations"], invs):
                problems += [f"{inv['argv'][1]}: {p}"
                             for p in gate(inv, res, self.check_digest)]
        setups = [r["setup_s"] for r in invs]
        return {"invocations": invs, "problems": problems,
                "wall_s": sum(r["wall_s"] for r in invs),
                "setup_s": None if None in setups else sum(setups),
                "peak_rss_mb": max(r["peak_rss_mb"] for r in invs),
                "cpu_s": sum(r["cpu_s"] for r in invs)}

    def cleanup(self) -> None:
        for name in os.listdir(self.work):
            if name.startswith(f"{os.getpid()}-"):
                os.remove(os.path.join(self.work, name))


def gate(inv: dict, res: dict, check_digest: bool) -> list:
    """Why this invocation's output is not the recorded verdict (empty if
    it is): rc 0, last line `all checks passed`, no FAIL line, the recorded
    nonzero PASS count and, at the reference seed, the recorded digest."""
    if res["timed_out"]:
        return ["killed at the run deadline"]
    text = res["stdout"].decode("utf-8", "replace")
    lines = text.splitlines()
    problems = []
    if res["rc"] != 0:
        problems.append(f"rc {res['rc']}")
    if not lines or lines[-1] != "all checks passed":
        problems.append(f"last line {lines[-1] if lines else ''!r}")
    fails = sum(line.startswith("FAIL") for line in lines)
    if fails:
        problems.append(f"{fails} FAIL lines")
    passes = sum(line.startswith("PASS") for line in lines)
    if passes != inv["pass_lines"] or passes == 0:
        problems.append(f"{passes} PASS lines, recorded {inv['pass_lines']}")
    if check_digest:
        digest = hashlib.sha256(res["stdout"]).hexdigest()
        if digest != inv["stdout_sha256"]:
            problems.append(f"stdout sha256 {digest}")
    return problems


def warm_up(runner: Runner, spec: dict) -> None:
    """Untimed small invocations, so bytecode caches exist before timing."""
    for argv in spec["warmup"]:
        res = runner.invoke("run", argv)
        if res["rc"] != 0:
            print(f"warning: warm-up {' '.join(argv)} exited {res['rc']}",
                  file=sys.stderr)


def measure(runner: Runner, spec: dict, seconds: float) -> tuple:
    """Untraced closed loop: (ops, end-to-end metrics, sample counts)."""
    probes = [runner.operation(spec, "probe")["setup_s"] for _ in range(SETUP_PROBES)]
    ops = []
    start = time.monotonic()
    while time.monotonic() < runner.deadline:
        ops.append(runner.operation(spec, "run"))
        if any(inv["timed_out"] for inv in ops[-1]["invocations"]):
            break
        elapsed = time.monotonic() - start
        per_op = statistics.median(op["wall_s"] for op in ops)
        if len(ops) >= MIN_OPS and elapsed + per_op > seconds:
            break
    setups = [s for s in probes + [op["setup_s"] for op in ops] if s is not None]
    metrics = {"wall_s": statistics.median(op["wall_s"] for op in ops),
               "peak_rss_mb": max(op["peak_rss_mb"] for op in ops),
               "setup_s": statistics.median(setups) if setups else None}
    return ops, metrics, {"wall_s": len(ops), "peak_rss_mb": len(ops),
                          "setup_s": len(setups)}


def trace(runner: Runner, spec: dict) -> tuple:
    """One plain and one traced operation: (ops, per-layer metrics)."""
    import tracer
    plain = runner.operation(spec, "run")
    traced = runner.operation(spec, "trace")
    metrics = {"process.cpu_s": plain["cpu_s"],
               "trace_overhead_s": traced["wall_s"] - plain["wall_s"]}
    for inv in traced["invocations"]:
        if not os.path.exists(inv["spans"]):
            continue
        summary = tracer.summarize(inv["spans"])
        for key, value in summary.pop("counters").items():
            metrics[key] = metrics.get(key, 0) + value
        for name, stat in summary.items():
            for key, value in ((f"{name}.calls", stat["calls"]),
                               (f"{name}.self_s", stat["self_ns"] / 1e9)):
                metrics[key] = metrics.get(key, 0) + value
    return [plain, traced], metrics


def check_pattern(expect: dict, metrics: dict) -> list:
    """Mismatches against the workload's expected trace pattern, where each
    expectation is "0" (never called) or ">N"."""
    bad = []
    for key, rule in expect.items():
        value = metrics.get(key, 0)
        ok = value == 0 if rule == "0" else value > int(rule[1:])
        if not ok:
            bad.append(f"{key} = {value}, expected {rule}")
    return bad


def run_workload(root: str, name: str, spec: dict, config: dict, bench: dict,
                 seed: int, seconds: float, traced: bool) -> dict:
    """Run one workload and print its report; returns the result object."""
    runner = Runner(root, seed, seed == config["reference_seed"],
                    time.monotonic() + RUN_DEADLINE_S)
    env = environment()
    env["loadavg_before"] = loadavg()
    env["cpu_probe_s_before"] = cpu_probe()
    try:
        warm_up(runner, spec)
        if traced:
            ops, values = trace(runner, spec)
            wanted = bench["per_layer"]
            samples = {}
        else:
            ops, values, samples = measure(runner, spec, seconds)
            wanted = bench["end_to_end"]
    finally:
        runner.cleanup()
    env["loadavg_after"] = loadavg()
    env["cpu_probe_s_after"] = cpu_probe()

    failed = [op for op in ops if op["problems"]]
    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        if value is None and not traced:
            raise Unavailable(f"{m['name']} not measured: "
                              + "; ".join(failed[0]["problems"] if failed else []))
        if value is None:
            print(f"warning: {m['name']} is not recorded by this code; reported as 0")
        metrics[m["name"]] = {"value": value or 0, "unit": m["unit"]}

    print(f"workload {name}  seed {seed}  trace {int(traced)}  "
          f"python {env['python']}  nproc {env['nproc']}")
    print(f"loadavg before {env['loadavg_before']}  after {env['loadavg_after']}")
    print(f"cpu probe before {env['cpu_probe_s_before']:.3f} s  "
          f"after {env['cpu_probe_s_after']:.3f} s")
    for k, op in enumerate(ops, 1):
        setup = "-" if op["setup_s"] is None else f"{op['setup_s']:.3f} s"
        verdict = "; ".join(op["problems"]) or "ok"
        print(f"op {k}: wall {op['wall_s']:.3f} s  rss {op['peak_rss_mb']:.1f} MB  "
              f"setup {setup}  cpu {op['cpu_s']:.2f} s  {verdict}")
    for key, m in metrics.items():
        count = f"  (n={samples[key]})" if key in samples else ""
        print(f"{key:<48} {m['value']:>14.6g} {m['unit']}{count}")
    print(f"ops {len(ops)}  failed_ops {len(failed)}")
    if spec.get("known_failure"):
        print(f"known failure: {spec['known_failure']}")
    if traced:
        for miss in check_pattern(spec.get("trace_expect", {}), values):
            print(f"trace pattern mismatch: {miss}")
    print(json.dumps({"workload": name, "seed": seed, "environment": env,
                      "samples": samples,
                      "ops": [{k: op[k] for k in ("wall_s", "setup_s", "peak_rss_mb",
                                                  "cpu_s", "problems")}
                              for op in ops]}, sort_keys=True))
    return {"correct": not failed, "attempted": len(ops), "failed": len(failed),
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    try:
        config, bench = load_config(root)
    except Unavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    specs = config["workloads"]
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    names = list(specs) if args.workload == "all" else [args.workload]
    if any(n not in specs for n in names):
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(specs)} or all", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        results = {n: run_workload(root, n, specs[n], config, bench, args.seed,
                                   seconds, bool(args.trace)) for n in names}
    except Unavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) > 1:
        keys = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
        print(f"{'metric':<48}" + "".join(f"{n:>16}" for n in names))
        for key in keys:
            unit = results[names[0]]["metrics"][key]["unit"]
            print(f"{key + ' [' + unit + ']':<48}" + "".join(
                f"{results[n]['metrics'][key]['value']:>16.6g}" for n in names))
        for key in ("attempted", "failed"):
            label = "ops" if key == "attempted" else "failed_ops"
            print(f"{label:<48}" + "".join(f"{results[n][key]:>16}" for n in names))
        print(json.dumps(results))
    else:
        print(json.dumps(results[names[0]]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
