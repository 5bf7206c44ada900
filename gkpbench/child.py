"""Run one gkpkit CLI command in this fresh interpreter.

Usage:
    python3 gkpbench/child.py RECORD TRACE PASS_ID SPAWNED -- CLI_ARGS...
    python3 gkpbench/child.py RECORD 0 PASS_ID SPAWNED --setup-only

The command runs exactly as `python -m gkpkit.cli CLI_ARGS...` would
(`gkpkit` must be importable, e.g. through PYTHONPATH=src). SPAWNED is the
time.monotonic() reading taken just before this process was started; the
clock is system-wide, so set-up time, the time from spawn until
`import gkpkit.cli` has finished, includes interpreter start-up as every
invocation pays it. With TRACE=1 the hooks of `hooks.py` are installed
after that import. When the command ends it writes RECORD as JSON: set-up
time, exit code, the time.monotonic() reading at which the command finished
(interpreter teardown follows), spans and the hooked names that were
missing.
"""

import contextlib
import json
import sys
import time


def main():
    record_path, trace, pass_id = sys.argv[1], sys.argv[2] == "1", sys.argv[3]
    spawned = float(sys.argv[4])
    setup_only = sys.argv[5] == "--setup-only"
    cli_args = sys.argv[6:]
    import gkpkit.cli

    record = {"setup_s": time.monotonic() - spawned, "exit": 0}
    if setup_only:
        _write(record_path, record)
        return 0
    recorder = None
    root = contextlib.nullcontext()
    if trace:
        import hooks

        recorder = hooks.Recorder(pass_id)
        record["absent"] = hooks.install(recorder)
        root = recorder.span("cli.main")
    record["exit"] = 1
    try:
        with root:
            record["exit"] = gkpkit.cli.main(cli_args)
    finally:
        if recorder is not None:
            record["spans"] = recorder.spans
        record["finished"] = time.monotonic()
        _write(record_path, record)
    return record["exit"]


def _write(path, record):
    with open(path, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
