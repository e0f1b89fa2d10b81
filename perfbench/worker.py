"""Fork server for the library workloads.

Run as ``python worker.py SRC TRACE`` with SRC on PYTHONPATH.  It imports
f1kit once, checks that the import came from SRC, installs the span wrappers
when TRACE is 1, and prints a ready line with the monotonic time at which the
import finished.  Then, for each JSON request line on stdin, it forks a child
that runs the request from the state of a freshly imported f1kit (the server
itself never calls into the library, so no memo survives from one request to
the next), and prints one JSON result line: the digest of the canonical
output, the child's own peak RSS from ``wait4``, its exit status, any error,
and the child's spans when tracing.

Only one child is alive at a time, so the server and its child are the only
two worker processes of a pass.
"""

import json
import os
import sys
import time
import traceback

import workloads


def _read_all(fd):
    chunks = []
    while True:
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def _write_all(fd, data):
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _child(req, rec, fd):
    result = {}
    try:
        result["digest"] = workloads.digest(0, workloads.execute(req))
    except Exception:
        result["error"] = traceback.format_exc()
    if rec is not None:
        result["trace"] = rec.export()
    _write_all(fd, json.dumps(result).encode())


def main():
    src, trace = os.path.realpath(sys.argv[1]), sys.argv[2] == "1"
    import f1kit

    imported = time.monotonic()
    if not os.path.realpath(f1kit.__file__).startswith(src + os.sep):
        raise SystemExit("f1kit was imported from %s, not from %s" % (f1kit.__file__, src))
    rec = None
    if trace:
        import tracing

        rec = tracing.install(f1kit)
    out = sys.stdout
    out.write(json.dumps({"ready": imported, "f1kit": f1kit.__file__}) + "\n")
    out.flush()
    for line in sys.stdin:
        req = json.loads(line)
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(r)
            code = 0
            try:
                _child(req, rec, w)
            except BaseException:
                code = 1
            finally:
                os._exit(code)
        os.close(w)
        data = _read_all(r)
        os.close(r)
        _, status, usage = os.wait4(pid, 0)
        result = json.loads(data) if data else {"error": "worker wrote no result"}
        result["status"] = os.waitstatus_to_exitcode(status)
        result["maxrss_kb"] = usage.ru_maxrss
        out.write(json.dumps(result) + "\n")
        out.flush()


if __name__ == "__main__":
    main()
