"""Line reach of src/pracsim: the statements inside its functions that a set
of real callers never executes, and with --tests those tier-1 never executes.

The callers are the CLI and the benchmark:

    simulate  every kind at n_rh 32 on the desk topology, with and without
              attacker = dos
    replay    the manifest of the first of those runs
    analyze   --mech prac and prfm at --nrh 64; attack-theory; storage
    perfbench one batch of each workload at seed 1 (simulate_fullsize is a
              full-size simulate)

A statement is a line that holds code of a function, a lambda or a
comprehension; module and class bodies, and the comprehensions they hold,
run on import and are left out. A function never called shows its `def`
line among the misses. The source must not change while the probe runs.
The stdlib tracer (sys.settrace) slows the callers to about 4 min on a
2-vCPU machine, and tier-1 to about 20 min, under which criterion 4 fails
its own 60 s time budget; its lines are traced all the same. The test suite
does not collect this script (its name does not start with `test_`):

    python tests/reach_probe.py [--tests]

It prints, per caller set and per module, each missed line range with the
source of its first line. Code that only tests reach is in the callers'
list and not in tier-1's.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "pracsim"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def statements(path: Path) -> set:
    """Lines holding code of a function, lambda or comprehension in `path`."""
    def walk(code, in_function):
        # module and class bodies are not optimized code, and they run their
        # comprehensions on import
        counted = bool(code.co_flags & inspect.CO_OPTIMIZED) and (
            in_function or code.co_name not in COMPREHENSIONS)
        if counted:
            yield from (line for _, _, line in code.co_lines() if line)
        for const in code.co_consts:
            if inspect.iscode(const):
                yield from walk(const, counted)
    return set(walk(compile(path.read_text(), str(path), "exec"), False))


class Reach:
    """Lines executed in the package's files while `tracing` is on."""

    def __init__(self):
        self.hits = {str(p): set() for p in PKG.glob("*.py")}

    def _call(self, frame, event, arg):
        lines = self.hits.get(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_code.co_firstlineno)
        lines.add(frame.f_lineno)
        return self._line

    def _line(self, frame, event, arg):
        if event == "line":
            self.hits[frame.f_code.co_filename].add(frame.f_lineno)
        return self._line

    @contextlib.contextmanager
    def tracing(self):
        sys.settrace(self._call)
        try:
            yield
        finally:
            sys.settrace(None)

    def report(self, title: str):
        print(f"== {title}")
        for name in sorted(self.hits):
            path = Path(name)
            missed = sorted(statements(path) - self.hits[name])
            if not missed:
                continue
            source = path.read_text().splitlines()
            ranges, start = [], missed[0]
            for prev, line in zip(missed, missed[1:] + [None]):
                if line != prev + 1:
                    ranges.append((start, prev))
                    start = line
            print(f"{path.relative_to(ROOT)}: {len(missed)} lines")
            for lo, hi in ranges:
                span = str(lo) if lo == hi else f"{lo}-{hi}"
                print(f"  {span:>9}  {source[lo - 1].strip()}")


def run_callers(tmp: Path):
    from pracsim import cli
    import suite

    def pracsim(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main([str(a) for a in argv])
        print(f"  pracsim {' '.join(map(str, argv[:3]))}: exit {rc}", file=sys.stderr)

    first = None
    for kind in cli.MECHANISMS:
        for attacker in ("none", "dos"):
            out = tmp / f"{kind}-{attacker}"
            cfg = out.with_suffix(".ini")
            cfg.write_text(f"[mitigation]\nkind = {kind}\nn_rh = 32\n"
                           f"[workload]\nattacker = {attacker}\n")
            pracsim("simulate", "--config", cfg, "--out-dir", out)
            first = first or out / "manifest.json"
    pracsim("replay", first, "--out-dir", tmp / "replay")
    for mech in ("prac", "prfm"):
        pracsim("analyze", "--mech", mech, "--nrh", 64, "--out", tmp / f"{mech}.csv")
    pracsim("attack-theory", "--out", tmp / "theory.csv")
    pracsim("storage", "--out", tmp / "storage.csv")
    for name, setup in sorted(suite.SETUPS.items()):
        work = setup(1)
        ctx = {}
        work.prologue(ctx)
        for _, unit in work.units:
            try:
                unit(ctx)
            except suite.FAILURES:
                pass
        work.cleanup()
        print(f"  perfbench {name}: one batch", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tests", action="store_true", help="also trace the tier-1 suite")
    args = ap.parse_args(argv)
    os.environ["PRACSIM_WORKERS"] = "1"
    callers = Reach()
    with tempfile.TemporaryDirectory() as tmp, callers.tracing():
        run_callers(Path(tmp))
    callers.report("statements the CLI and the benchmark never execute")
    if args.tests:
        import pytest
        tier1 = Reach()
        with tier1.tracing():
            rc = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
        tier1.report(f"statements tier-1 never executes (pytest exit {rc})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
