"""One set-up of a benchmark run, in a fresh interpreter.

    python3 perfbench/setup_probe.py SRC_DIR WARMUP_JSON

imports slicerank from SRC_DIR, runs each warm-up command line listed in
WARMUP_JSON through ``slicerank.cli.main`` and prints ``ready``. The
benchmark times a probe from its start to that line, so the sample covers
interpreter start, the import and the cache-filling warm-up jobs.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import traceback


def run_cli(main, argv) -> tuple[int, str, str]:
    """One in-process CLI call; returns its exit code, stdout and stderr.

    An exception that escapes ``main`` would end a real run with a traceback
    and exit status 1, so it is reported that way instead of stopping the
    benchmark.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def warm_up(main, warmups) -> None:
    """Run each warm-up command line once; any failure ends the benchmark."""
    for argv in warmups:
        code, _, err = run_cli(main, argv)
        if code != 0:
            sys.exit(f"warm-up job {' '.join(argv)} exited {code}: {err}")


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    from slicerank.cli import main

    with open(sys.argv[2], encoding="utf-8") as fh:
        warm_up(main, json.load(fh))
    print("ready", flush=True)
