"""Helpers the test files share: the in-process command-line harness and the
traced-allocation block of the memory tests."""
import contextlib
import json
import tracemalloc
import types
import warnings

from quatkin.cli import main


def run_cli(directory, config, *argv, verb="run"):
    """Write config (a dict, or JSON text) to directory/cfg.json and run
    `quatkin <verb> <that file> *argv` in process with every warning recorded.
    No numpy RuntimeWarning may leak from the command.  Returns the exit code
    and the category of each warning recorded, in order."""
    path = directory / "cfg.json"
    path.write_text(config if isinstance(config, str) else json.dumps(config), encoding="utf-8")
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        code = main([verb, str(path), *argv])
    warned = [w.category for w in record]
    assert not [c for c in warned if issubclass(c, RuntimeWarning)], record
    return code, warned


@contextlib.contextmanager
def traced():
    """Trace Python allocations over the with-block.  Yields an object whose
    `current` and `peak` hold, once the block ends, the bytes still traced
    at its end and the traced peak over it."""
    memory = types.SimpleNamespace(current=0, peak=0)
    tracemalloc.start()
    try:
        yield memory
        memory.current, memory.peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
