"""Set-up probe, run by run.py in a fresh interpreter.

Reads a JSON job on stdin (``src``, ``bench``, ``configs``, ``trace``),
times ``import hdqkd.cli`` and then ``parse_config`` of every
``[preset, text]`` pair, and prints one JSON line with the times.  With
``trace`` set it also reports per-name span totals of the parsing.
"""
from __future__ import annotations

import contextlib
import json
import sys
import time


def main() -> None:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    started = time.perf_counter()
    import hdqkd.cli  # noqa: F401 - the import is what is timed

    imported = time.perf_counter()
    numpy_loaded = "numpy" in sys.modules
    import hdqkd

    rec = None
    wrappers = contextlib.nullcontext()
    if job["trace"]:
        sys.path.insert(0, job["bench"])
        import tracing

        rec = tracing.Recorder()
        wrappers = tracing.patched(tracing.setup_targets(rec, hdqkd))
    with wrappers:
        parse_start = time.perf_counter()
        for preset, text in job["configs"]:
            hdqkd.scenario.parse_config(text, preset=preset)
        parsed = time.perf_counter()
    out = {
        "import_s": imported - started,
        "parse_s": parsed - parse_start,
        "numpy_on_cli_import": numpy_loaded,
        "spans": tracing.per_name(rec) if rec is not None else {},
    }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
