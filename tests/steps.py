"""A log of the letter actions that the engine's step loop runs for its
callers, shared by the tests that pin how many letters a check acts."""

from klrcalc.algebra import KLR


def log_steps(monkeypatch) -> list:
    """Patch `KLR._run_steps` to log every step it runs for a caller, as
    ("e", face), ("y", s) or ("psi", r), and return the log.  The runs that
    the rewrite core makes inside its own products, on memo misses, are
    not logged: they are not letters of the caller's words."""
    log, depth, run = [], [0], KLR._run_steps

    def logged(self, steps, base):
        if not depth[0]:
            for table, _, g, _ in steps:
                log.append(("e", g) if table is None else
                           ("y" if table is self._y_cache else "psi", g >> 32))
        depth[0] += 1
        try:
            return run(self, steps, base)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(KLR, "_run_steps", logged)
    return log
