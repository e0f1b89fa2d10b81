"""Regenerate refs.json: the digest of every request the generators can emit.

    python3 perfbench/make_refs.py

Each request runs in a child forked from a process that imported f1kit from
the checkout's ``src``, so it starts from fresh memo tables, as in the
benchmark.  Library requests are digested from ``workloads.execute``; cli
requests from the exit status and stdout bytes of ``f1kit.cli.run(argv)``.
Run it only on a commit whose outputs are known to be right: the benchmark
counts every mismatch against these digests as a failed request.
"""

import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import workloads  # noqa: E402


def _digest(req):
    if req["op"] != "cli":
        return workloads.digest(0, workloads.execute(req))
    from f1kit import cli

    sys.stderr = io.StringIO()  # argparse usage messages
    buf = io.BytesIO()
    code = cli.run(req["argv"], stdout=buf)
    return workloads.digest(code, buf.getvalue())


def digest_in_child(req):
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        try:
            os.write(w, _digest(req).encode())
        finally:
            os._exit(0)
    os.close(w)
    with os.fdopen(r, "rb") as fh:
        value = fh.read().decode()
    os.waitpid(pid, 0)
    if len(value) != 64:
        raise SystemExit("no digest for %s" % workloads.request_key(req))
    return value


def main():
    import f1kit  # noqa: F401  (imported once, before forking)

    refs = {}
    for workload in workloads.WORKLOADS:
        reqs = workloads.all_requests(workload)
        for req in reqs:
            refs[workloads.request_key(req)] = digest_in_child(req)
        print("%s: %d requests" % (workload, len(reqs)), flush=True)
    with open(os.path.join(HERE, "refs.json"), "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
