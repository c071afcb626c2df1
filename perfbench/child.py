"""Run one klrcalc CLI invocation as `python -m klrcalc.cli ARGS` would,
and record when the suite function is entered.

    python perfbench/child.py MODE RESULT_PATH -- ARGS...

MODE is `run` (plain), `probe` (exit with code 0 as soon as the suite
function is entered) or `trace` (also record spans, see tracer.py).  When
the process ends, RESULT_PATH receives {"entered_ns": monotonic ns at suite
entry, or null}; in trace mode the spans go to RESULT_PATH + ".spans".
"""

from __future__ import annotations

import json
import runpy
import sys
import time


class SuiteEntered(BaseException):
    """Raised in probe mode; not an Exception, so the CLI cannot catch it."""


def main() -> None:
    mode, result_path, sep = sys.argv[1:4]
    if mode not in ("run", "probe", "trace") or sep != "--":
        sys.exit("usage: child.py run|probe|trace RESULT_PATH -- ARGS...")
    cli_args = sys.argv[4:]

    import klrcalc.exprs  # noqa: F401  (imported by the CLI; traced too)
    import klrcalc.suites as suites
    rec = None
    if mode == "trace":
        import tracer
        rec = tracer.Recorder()
        tracer.install(rec)

    entered = []

    def at_entry(fn):
        def entry(*args, **kwargs):
            if not entered:
                entered.append(time.monotonic_ns())
            if mode == "probe":
                raise SuiteEntered
            return fn(*args, **kwargs)
        return entry

    # the CLI reaches every suite through this table (and run_dims by name)
    hooked = {id(fn): at_entry(fn) for fn in suites.SUITES.values()}
    for key, fn in list(suites.SUITES.items()):
        suites.SUITES[key] = hooked[id(fn)]
    suites.run_dims = hooked.get(id(suites.run_dims), suites.run_dims)

    sys.argv = ["klrcalc.cli"] + cli_args
    code = 0
    try:
        runpy.run_module("klrcalc.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    except SuiteEntered:
        pass
    finally:
        if rec is not None:
            rec.dump(result_path + ".spans")
        with open(result_path, "w") as fh:
            json.dump({"entered_ns": entered[0] if entered else None}, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
