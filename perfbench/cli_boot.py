"""Traced cli invocation: ``python cli_boot.py FD ARGV...``.

Imports f1kit and f1kit.cli, stamps the monotonic clock (the orchestrator
stamped it before spawning this process, so the difference is the start-up
cost a cli user pays), installs the span wrappers, runs ``f1kit.cli.run(ARGV)``
exactly as ``python -m f1kit ARGV...`` would, then writes the spans and the
ready stamp as JSON to the inherited file descriptor FD and exits with the
cli's status.
"""

import json
import os
import sys
import time

import f1kit
import f1kit.cli

ready = time.monotonic()

import tracing  # noqa: E402  (after the ready stamp: not part of start-up)


def main():
    fd, argv = int(sys.argv[1]), sys.argv[2:]
    rec = tracing.install(f1kit)
    code = f1kit.cli.run(argv)
    with os.fdopen(fd, "w") as fh:
        json.dump({"ready": ready, "trace": rec.export()}, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
