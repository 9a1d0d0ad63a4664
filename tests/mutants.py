"""Mutation survey of `if` tests and returned predicates: which branches does
the test suite pin down?

Run by hand (pytest does not collect this file), from the repository root:

    python tests/mutants.py src/ruledger/ledger/node.py --jobs 2

For each `if` statement of the module (an `elif` included), and each `return`
of a comparison, a boolean operation or a `not`, the script makes two
mutants: one with the test or returned value replaced by `False`, one by
`True`.  It runs
the test subset named for the module in `SUBSETS` against each mutant and
lists the survivors, the mutants under which every test still passes.  Each
survivor is a branch that no test of the subset needs: give it a
test that kills it, delete it, or state in a comment why the mutant is
equivalent.

Mutants are made in a copy of `src/` and `tests/` under a temporary directory
(set `TMPDIR` to choose where), never in the working tree.  The replacement is
textual, over the exact span `ast` gives for the test, so every other line
and every line number stays as it is.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# A mutant can loop forever or grow a node's state until the host runs out, so
# each test run has a time limit (see `survey`) and this address-space cap.
MAX_MB = 1024
# Runs pytest (argv[2:]) under an address-space cap of argv[1] bytes.
_CAPPED_PYTEST = ("import resource, sys; cap = int(sys.argv[1]); "
                  "resource.setrlimit(resource.RLIMIT_AS, (cap, cap)); "
                  "import pytest; sys.exit(pytest.main(sys.argv[2:]))")

# module (relative to src/ruledger) -> the test files run against its mutants;
# a module gets an entry with its first survey
SUBSETS = {
    "ledger/node.py": ["test_pbft.py", "test_harness.py", "test_boundary.py",
                       "test_agents.py", "test_keys.py"],
    "ledger/audit.py": ["test_harness.py", "test_acceptance.py"],
    "sim/network.py": ["test_sim.py", "test_pbft.py", "test_boundary.py"],
    "ledger/faults.py": ["test_pbft.py", "test_acceptance.py", "test_harness.py"],
    "canonical.py": ["test_canonical.py", "test_boundary.py", "test_harness.py"],
    "ledger/tables.py": ["test_tables.py", "test_contracts.py", "test_harness.py"],
    "contracts.py": ["test_contracts.py", "test_acceptance.py"],
    "ledger/client.py": ["test_agents.py", "test_pbft.py", "test_boundary.py", "test_harness.py"],
    "agents.py": ["test_agents.py", "test_harness.py", "test_boundary.py", "test_tamock.py",
                  "test_acceptance.py"],
    "devices.py": ["test_devices.py", "test_agents.py", "test_harness.py", "test_boundary.py"],
    "tamock.py": ["test_tamock.py", "test_harness.py", "test_boundary.py", "test_agents.py"],
}


def _predicate(value: ast.expr | None) -> bool:
    return isinstance(value, (ast.Compare, ast.BoolOp)) or (
        isinstance(value, ast.UnaryOp) and isinstance(value.op, ast.Not))


def if_tests(source: str) -> list[ast.expr]:
    """The test expression of every `if` statement and every returned
    predicate (a comparison, a boolean operation or a `not`), in source order."""
    nodes = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.If):
            nodes.append(node.test)
        elif isinstance(node, ast.Return) and _predicate(node.value):
            nodes.append(node.value)
    return sorted(nodes, key=lambda test: (test.lineno, test.col_offset))


def mutate(source: str, test: ast.expr, value: bool) -> str:
    """source with the span of test replaced by `value`.  `ast` gives columns as
    UTF-8 byte offsets, so the lines are cut as bytes."""
    lines = source.encode("utf-8").splitlines(keepends=True)
    first, last = test.lineno - 1, test.end_lineno - 1
    head = lines[first][:test.col_offset]
    tail = lines[last][test.end_col_offset:]
    mutated = lines[:first] + [head + str(value).encode() + tail] + lines[last + 1:]
    return b"".join(mutated).decode("utf-8")


def run_tests(copy: Path, tests: list[str], timeout: float | None) -> bool:
    """Whether every test passes in copy (so the mutant there survives) within
    timeout seconds and `MAX_MB` of address space."""
    cmd = [sys.executable, "-c", _CAPPED_PYTEST, str(MAX_MB * 1024 * 1024),
           "-x", "-q", "-p", "no:cacheprovider", *(f"tests/{name}" for name in tests)]
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def make_copy(workdir: Path, slot: int) -> Path:
    copy = workdir / f"copy{slot}"
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, copy / name,
                        ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
    return copy


def _text(source: str, test: ast.expr) -> str:
    return ast.get_source_segment(source, test).splitlines()[0]


def survey(target: Path, source: str, mutants: list[tuple[ast.expr, bool]], tests: list[str],
           workdir: Path, jobs: int) -> list[tuple[ast.expr, bool]] | None:
    """The mutants of target (relative to the repository root) that survive,
    printing each verdict as it comes; None if the unmutated tests fail."""
    copies = [make_copy(workdir, slot) for slot in range(jobs)]
    # The unmutated subset must pass; a mutant may take at most five times as long.
    start = time.monotonic()
    if not run_tests(copies[0], tests, None):
        return None
    timeout = 5 * (time.monotonic() - start) + 30
    free: queue.SimpleQueue[Path] = queue.SimpleQueue()  # the copies no job is using
    for copy in copies:
        free.put(copy)

    def run(mutant: tuple[ast.expr, bool]) -> bool:
        test, value = mutant
        copy = free.get()
        try:
            (copy / target).write_text(mutate(source, test, value), encoding="utf-8")
            return run_tests(copy, tests, timeout)
        finally:
            (copy / target).write_text(source, encoding="utf-8")
            free.put(copy)

    survivors = []
    with ThreadPoolExecutor(jobs) as pool:
        for (test, value), survived in zip(mutants, pool.map(run, mutants)):
            mark = "SURVIVED" if survived else "killed"
            print(f"{target}:{test.lineno} -> {value}: {mark}  ({_text(source, test)})",
                  flush=True)
            if survived:
                survivors.append((test, value))
    return survivors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="path of the module to mutate, e.g. "
                                       "src/ruledger/ledger/node.py")
    parser.add_argument("--jobs", type=int, default=1, help="mutants run at once (default 1)")
    args = parser.parse_args(argv)

    module = Path(args.module).resolve()
    target = module.relative_to(ROOT)
    rel = module.relative_to(ROOT / "src" / "ruledger").as_posix()
    tests = SUBSETS.get(rel)
    if not tests:
        parser.error(f"no test subset is named for {rel}; add one to SUBSETS")
    source = module.read_text(encoding="utf-8")
    targets = if_tests(source)
    mutants = [(test, value) for test in targets for value in (False, True)]

    print(f"{target}: {len(targets)} if tests and returned predicates, {len(mutants)} mutants, "
          f"tests: {' '.join(tests)}",
          flush=True)
    workdir = Path(tempfile.mkdtemp(prefix="mutants-"))
    try:
        survivors = survey(target, source, mutants, tests, workdir,
                           max(1, min(args.jobs, len(mutants))))
    finally:
        shutil.rmtree(workdir)
    if survivors is None:
        print("the unmutated module fails its test subset; nothing to survey")
        return 1
    print(f"\n{len(survivors)} of {len(mutants)} mutants survived")
    for test, value in survivors:
        print(f"  {target}:{test.lineno} -> {value}  ({_text(source, test)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
