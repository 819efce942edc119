"""Single-edit mutants of quatkin's modules, each run against a pytest command.

    python tools/mutants.py src/quatkin/scenario.py src/quatkin/cli.py \\
        -- python -m pytest -x -q -p no:cacheprovider tests/test_scenario.py

`src/` is copied to a temporary directory once.  For each mutation site in
the modules named, one mutant is written into that copy, the command after
`--` runs with the copy first on PYTHONPATH (bytecode writing off, so no
stale .pyc outlives an edit), and the module is restored.  The checkout's
`src/` is never written.  Mutants run one at a time, one child process at
a time, each under the same timeout: five times the unmutated run, plus
five seconds.  The unmutated run must pass, or nothing is run.

Sites, each one edit of the source text:
    a comparison swapped: < and <=, > and >=, == and !=
    a boolean operator swapped: every `and` of one expression to `or`, or back
    a `not` dropped
    an int literal n made n + 1
    a float literal x made 1.01 x (0.0 made 1.0)

Each site prints as killed (the command failed), survived (it passed) or
timeout, then the totals.  Standard library only, and outside tests/, so
the test suite never collects it.
"""
from __future__ import annotations

import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_SWAPS = {ast.Lt: "<=", ast.LtE: "<", ast.Gt: ">=", ast.GtE: ">", ast.Eq: "!=", ast.NotEq: "=="}
_OP_TEXT = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!="}


def sites(source: bytes):
    """(line, edits, label) for every mutation site in a module's source, in
    source order, where edits is a list of (start, stop, replacement) byte
    ranges."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def at(lineno, col):  # ast columns are UTF-8 byte offsets
        return starts[lineno - 1] + col

    def gap(left, right, old, new):
        """The edit that replaces the token `old` between two nodes by `new`."""
        lo, hi = at(left.end_lineno, left.end_col_offset), at(right.lineno, right.col_offset)
        text = source[lo:hi]
        i = text.index(old.encode())
        if old.isalpha():  # a keyword, not the letters of a longer name
            while not (text[i - 1 : i].isspace() or text[i - 1 : i] in (b"", b")")):
                i = text.index(old.encode(), i + 1)
        return (lo + i, lo + i + len(old), new.encode())

    tree = ast.parse(source)
    # Nodes inside f-strings carry no reliable columns before Python 3.12.
    skip = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.JoinedStr)
        for inner in ast.walk(node)
    }
    found = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if type(op) in _SWAPS:
                    old, new = _OP_TEXT[type(op)], _SWAPS[type(op)]
                    edit = gap(operands[i], operands[i + 1], old, new)
                    found.append((node.lineno, [edit], f"{old} -> {new}"))
        elif isinstance(node, ast.BoolOp):
            old, new = ("and", "or") if isinstance(node.op, ast.And) else ("or", "and")
            edits = [gap(a, b, old, new) for a, b in zip(node.values, node.values[1:])]
            found.append((node.lineno, edits, f"{old} -> {new}"))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            lo = at(node.lineno, node.col_offset)
            hi = at(node.operand.lineno, node.operand.col_offset)
            # Drop the keyword and the spaces after it; an opening parenthesis stays.
            keep = source[lo + 3 : hi].lstrip()
            found.append((node.lineno, [(lo, hi, keep)], "not dropped"))
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            x = node.value
            new = repr(x + 1) if type(x) is int else repr(1.01 * x if x else 1.0)
            lo, hi = at(node.lineno, node.col_offset), at(node.end_lineno, node.end_col_offset)
            label = f"{source[lo:hi].decode()} -> {new}"
            found.append((node.lineno, [(lo, hi, new.encode())], label))
    original = ast.dump(tree)
    for _, edits, label in found:  # each edit is one valid, different program
        assert ast.dump(ast.parse(apply(source, edits))) != original, label
    return sorted(found, key=lambda s: (s[0], s[1][0][0]))


def apply(source: bytes, edits) -> bytes:
    for lo, hi, new in sorted(edits, reverse=True):
        source = source[:lo] + new + source[hi:]
    return source


def run(command, env, timeout):
    """'killed', 'survived' or 'timeout' for one run of the command, and its
    seconds.  On timeout the command's whole process group is stopped."""
    start = time.monotonic()
    child = subprocess.Popen(
        command, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        code = child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout", time.monotonic() - start
    finally:  # also when the runner itself is stopped
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
    return ("survived" if code == 0 else "killed"), time.monotonic() - start


def main(argv) -> int:
    if "--" not in argv or argv.index("--") == 0 or argv[-1] == "--":
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    # A stopped runner still removes its copy and its child's process group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    split = argv.index("--")
    modules, command = [Path(m).resolve() for m in argv[:split]], argv[split + 1 :]
    with tempfile.TemporaryDirectory(prefix="quatkin-mutants-") as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(
            os.environ,
            PYTHONDONTWRITEBYTECODE="1",
            PYTHONPATH=os.pathsep.join(filter(None, [str(copy), os.environ.get("PYTHONPATH")])),
        )
        outcome, seconds = run(command, env, None)
        if outcome != "survived":
            print("the unmutated run fails: no mutant is run", file=sys.stderr)
            return 1
        timeout = 5.0 * seconds + 5.0
        print(f"unmutated run: {seconds:.1f} s; timeout {timeout:.0f} s", flush=True)
        totals = {"killed": 0, "survived": 0, "timeout": 0}
        for module in modules:
            name = module.relative_to(SRC)
            target = copy / name
            original = target.read_bytes()
            try:
                for line, edits, label in sites(original):
                    target.write_bytes(apply(original, edits))
                    outcome, seconds = run(command, env, timeout)
                    totals[outcome] += 1
                    print(f"{outcome:8} {name}:{line}  {label}  ({seconds:.1f} s)", flush=True)
            finally:
                target.write_bytes(original)
    print(", ".join(f"{n} {k}" for k, n in totals.items()), f"of {sum(totals.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
