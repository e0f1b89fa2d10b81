"""f1kit benchmark: closed-loop workloads with verified outputs.

    python3 perfbench/run.py --workload classes --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

One client sends one request at a time and waits for its verified result.
Every request starts from a freshly imported f1kit: library requests run in
a child forked from a server that has imported f1kit and nothing more, and
cli requests run as ``python -m f1kit`` in a new interpreter.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end metrics
over the rounds that completed in that time.  ``--trace 1`` runs a fixed
number of rounds twice, untraced and then with span wrappers, reports the
per-layer metrics and the tracing overhead, and writes the spans to
``.perfbench/spans-<workload>-<seed>.jsonl.gz``.  The last stdout line is one
JSON object; the lines before it are a readable report.  See README.md.
"""

import argparse
import gzip
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 7

# A timed run goes on past --seconds until this many rounds have completed:
# with 15 or more templates a round, p90 then has at least ten samples beyond it.
MIN_ROUNDS = 7

# Rounds per pass in a traced run; fixed so that its counts repeat exactly.
TRACE_ROUNDS = {"classes": 4, "combinatorics": 2, "cli": 2}

END_TO_END = (
    ("setup_s", "s"),
    ("req_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("motive.mul.calls", "count"),
    ("motive.mul.self_s", "s"),
    ("motive.add.calls", "count"),
    ("motive.add.self_s", "s"),
    ("motive.coeff_bits_max", "bits"),
    ("motive.basis.self_s", "s"),
    ("genseries.recursion.calls", "count"),
    ("genseries.recursion.self_s", "s"),
    ("genseries.ode.self_s", "s"),
    ("genseries.cache.load_s", "s"),
    ("genseries.cache.save_s", "s"),
    ("genseries.cache.bytes", "bytes"),
    ("treeop.trees_built", "count"),
    ("treeop.tree.self_s", "s"),
    ("treeop.enumerate.self_s", "s"),
    ("treeop.strata.self_s", "s"),
    ("treeop.operad.calls", "count"),
    ("treeop.operad.self_s", "s"),
    ("torif.build.self_s", "s"),
    ("torif.eval.calls", "count"),
    ("torif.eval.self_s", "s"),
    ("blueprint.index_set.calls", "count"),
    ("blueprint.index_set.self_s", "s"),
    ("blueprint.relations.self_s", "s"),
    ("blueprint.simplex.self_s", "s"),
    ("blueprint.action.calls", "count"),
    ("blueprint.action.self_s", "s"),
    ("cli.startup_s", "s"),
    ("cli.emit.self_s", "s"),
    ("cli.emit.bytes", "bytes"),
    ("cli.build.self_s", "s"),
    ("trace.overhead_frac", "fraction"),
)


class Checkout:
    """Paths and the hermetic environment of one benchmark run."""

    def __init__(self, root, seed):
        self.root = root
        self.src = os.path.join(root, "src")
        if not os.path.isfile(os.path.join(self.src, "f1kit", "__init__.py")):
            raise SystemExit("perfbench: no f1kit sources under %s" % self.src)
        with open(os.path.join(HERE, "refs.json"), encoding="utf-8") as fh:
            self.refs = json.load(fh)
        self.work = os.path.join(root, ".perfbench")
        os.makedirs(self.work, exist_ok=True)
        self.hashseed = seed % 4294967295 + 1
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON") and k != "F1KIT_CACHE_DIR"}
        env["PYTHONPATH"] = self.src
        env["PYTHONHASHSEED"] = str(self.hashseed)
        self.env = env

    def setup_times(self, workload, probes=SETUP_PROBES):
        """Spawn-to-exit times of interpreters that only import f1kit."""
        modules = "f1kit, f1kit.cli" if workload == "cli" else "f1kit"
        code = "import sys, %s; sys.stdout.write(f1kit.__file__)" % modules
        times = []
        for _ in range(probes):
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", code], env=self.env, cwd=self.root,
                                  stdin=subprocess.DEVNULL, capture_output=True, check=True)
            times.append(time.perf_counter() - t0)
            self.check_origin(proc.stdout.decode())
        return times

    def check_origin(self, path):
        if not os.path.realpath(path).startswith(os.path.realpath(self.src) + os.sep):
            raise SystemExit("perfbench: f1kit imported from %s, not from %s" % (path, self.src))


class Outcome:
    def __init__(self, ok, maxrss_kb, trace=None, startup=None, why=""):
        self.ok, self.maxrss_kb, self.trace, self.startup, self.why = ok, maxrss_kb, trace, startup, why


class LibraryRunner:
    """Client side of the fork server in worker.py."""

    def __init__(self, co, trace):
        self.co = co
        spawned = time.monotonic()
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), co.src, str(int(trace))],
                                     env=co.env, cwd=co.root, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        ready = json.loads(self.proc.stdout.readline() or "{}")
        if not ready.get("ready"):
            self.close()
            raise SystemExit("perfbench: the fork server did not start")
        self.startup = ready["ready"] - spawned  # spawn to f1kit imported
        co.check_origin(ready["f1kit"])

    def run(self, req):
        self.proc.stdin.write((json.dumps(req) + "\n").encode())
        self.proc.stdin.flush()
        result = json.loads(self.proc.stdout.readline() or b'{"error": "fork server died"}')
        expected = self.co.refs.get(workloads.request_key(req))
        why = result.get("error") or ""
        if not why and result["status"] != 0:
            why = "worker exit status %d" % result["status"]
        if not why and result["digest"] != expected:
            why = "output digest differs from the reference"
        return Outcome(not why, result.get("maxrss_kb", 0), result.get("trace"), why=why)

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def _drain(fds):
    """Read the given pipe file objects to EOF together; returns their bytes."""
    data = {f: [] for f in fds}
    with selectors.DefaultSelector() as sel:
        for f in fds:
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            for key, _ in sel.select():
                chunk = os.read(key.fd, 1 << 16)
                if chunk:
                    data[key.fileobj].append(chunk)
                else:
                    sel.unregister(key.fileobj)
    return [b"".join(data[f]) for f in fds]


class CliRunner:
    """One ``python -m f1kit`` process per request (cli_boot.py when traced)."""

    def __init__(self, co, trace):
        self.co, self.trace = co, trace
        self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=co.work)
        self.startup = None

    def run(self, req):
        env = dict(self.co.env)
        if req["cache"]:
            env["F1KIT_CACHE_DIR"] = self.cache_dir
        pipes = []
        if self.trace:
            r, w = os.pipe()
            cmd = [sys.executable, os.path.join(HERE, "cli_boot.py"), str(w)] + req["argv"]
        else:
            cmd = [sys.executable, "-m", "f1kit"] + req["argv"]
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, cwd=self.co.root, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                pass_fds=(w,) if self.trace else ())
        if self.trace:
            os.close(w)
            pipes = [os.fdopen(r, "rb")]
        streams = _drain([proc.stdout, proc.stderr] + pipes)
        for f in [proc.stdout, proc.stderr] + pipes:
            f.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        stdout, stderr = streams[0], streams[1]
        trace = startup = None
        if self.trace and streams[2]:
            doc = json.loads(streams[2])
            trace, startup = doc["trace"], doc["ready"] - spawned
        expected = self.co.refs.get(workloads.request_key(req))
        why = ""
        if b"Traceback" in stderr:
            why = "traceback on stderr"
        elif code not in (0, 2, 3):
            why = "exit status %d" % code
        elif workloads.digest(code, stdout) != expected:
            why = "output digest differs from the reference"
        elif self.trace and trace is None:
            why = "no spans from the traced cli"
        return Outcome(not why, usage.ru_maxrss, trace, startup, why)

    def close(self):
        shutil.rmtree(self.cache_dir, ignore_errors=True)


def make_runner(co, workload, trace):
    return (CliRunner if workload == "cli" else LibraryRunner)(co, trace)


class PassResult:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies = []  # requests of completed rounds only
        self.maxrss_kb = []
        self.round_s = []  # duration of each completed round
        self.round_size = 0
        self.traces = []
        self.startups = []

    def req_per_s(self):
        """Requests completed per second over the completed rounds of the pass.

        A total over the pass, not a median round: the shared machine's speed
        jumps between states within seconds, and a median round would read
        whichever state most rounds fell in, where the total moves smoothly
        with the share of time spent in each.
        """
        return self.round_size * len(self.round_s) / sum(self.round_s)


def run_pass(runner, workload, seed, seconds=None, rounds=None, between_rounds=None):
    """Closed loop over the seed's rounds until ``seconds`` pass (and at least
    MIN_ROUNDS rounds have completed) or ``rounds`` finish.

    Every attempted request is verified; throughput, latency and RSS cover
    the rounds that completed, so each seed is measured on whole rounds.
    ``between_rounds`` runs after each completed round, outside its time.
    """
    res = PassResult()
    start = time.perf_counter()
    for number, batch in enumerate(workloads.rounds(workload, seed)):
        if rounds is not None and number >= rounds:
            break
        lat, rss = [], []
        round_start = time.perf_counter()
        for req in batch:
            if seconds is not None and number >= MIN_ROUNDS and time.perf_counter() - start >= seconds:
                return res
            t0 = time.perf_counter()
            out = runner.run(req)
            lat.append(time.perf_counter() - t0)
            rss.append(out.maxrss_kb)
            res.attempted += 1
            if not out.ok:
                res.failed += 1
                sys.stderr.write("perfbench: FAILED %s: %s\n" % (workloads.request_key(req), out.why.strip()))
            if out.trace is not None:
                res.traces.append((workloads.request_key(req), out.trace))
            if out.startup is not None:
                res.startups.append(out.startup)
        res.round_s.append(time.perf_counter() - round_start)
        res.round_size = len(batch)
        res.latencies += lat
        res.maxrss_kb += rss
        if between_rounds is not None:
            between_rounds()
    return res


def timed(co, workload, seed, seconds):
    # Set-up probes are spread over the run, a few before it and one after
    # each round, so that their median covers the same time as the requests.
    setup = co.setup_times(workload, probes=3)
    runner = make_runner(co, workload, trace=False)
    try:
        res = run_pass(runner, workload, seed, seconds=seconds,
                       between_rounds=lambda: setup.extend(co.setup_times(workload, probes=1)))
    finally:
        runner.close()
    if not res.round_s:
        raise SystemExit("perfbench: no round of %s completed in %s s" % (workload, seconds))
    if len(setup) < SETUP_PROBES:
        setup += co.setup_times(workload, probes=SETUP_PROBES - len(setup))
    deciles = statistics.quantiles(res.latencies, n=10, method="inclusive")
    metrics = {
        "setup_s": statistics.median(setup),
        "req_per_s": res.req_per_s(),
        "latency_p50_s": statistics.median(res.latencies),
        "latency_p90_s": deciles[8],
        "peak_rss_mb": max(res.maxrss_kb) / 1024.0,
    }
    report = [
        "rounds=%d samples=%d setup_probes=%d" % (len(res.round_s), len(res.latencies), len(setup)),
        "round_s=%s" % " ".join("%.3f" % t for t in res.round_s),
    ]
    return res.attempted, res.failed, metrics, dict(END_TO_END), report


def traced(co, workload, seed):
    co.setup_times(workload, probes=1)  # the hermetic import check
    passes = {}
    for trace in (False, True):
        runner = make_runner(co, workload, trace)
        try:
            passes[trace] = run_pass(runner, workload, seed, rounds=TRACE_ROUNDS[workload])
        finally:
            runner.close()
        if workload != "cli":
            passes[trace].startups.append(runner.startup)
    plain, res = passes[False], passes[True]
    totals = tracing.LayerTotals()
    for _, trace in res.traces:
        totals.add(trace)
    path = os.path.join(co.work, "spans-%s-%d.jsonl.gz" % (workload, seed))
    write_spans(path, workload, seed, co.hashseed, res.traces)
    metrics = {}
    for name, unit in PER_LAYER:
        group, _, field = name.rpartition(".")
        if name in totals.counts:
            value = totals.counts[name]
        elif field == "calls":
            value = totals.calls.get(group, 0)
        elif field == "self_s":
            value = totals.self_s.get(group, 0.0)
        elif name in ("genseries.cache.load_s", "genseries.cache.save_s"):
            value = totals.total_s.get(name[: -len("_s")], 0.0)
        elif name == "cli.startup_s":
            value = statistics.median(res.startups + plain.startups)
        elif name == "trace.overhead_frac":
            value = 1.0 - res.req_per_s() / plain.req_per_s()
        else:
            raise AssertionError(name)
        metrics[name] = value
    report = [
        "rounds=%d samples=%d spans=%d span_file=%s"
        % (len(res.round_s), len(res.latencies), sum(len(t["spans"]) for _, t in res.traces),
           os.path.relpath(path, co.root)),
        "untraced req_per_s=%.4f traced req_per_s=%.4f" % (plain.req_per_s(), res.req_per_s()),
    ]
    return plain.attempted + res.attempted, plain.failed + res.failed, metrics, dict(PER_LAYER), report


def write_spans(path, workload, seed, hashseed, traces):
    """Gzipped JSON lines: a header, then per request its key and one array
    per span: request id, span id, name, start, end, parent."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write(json.dumps({"workload": workload, "seed": seed, "pythonhashseed": hashseed,
                             "columns": ["req", "id", "name", "start", "end", "parent"]}) + "\n")
        for req_id, (key, trace) in enumerate(traces):
            names = trace["names"]
            fh.write(json.dumps({"req": req_id, "key": key}) + "\n")
            for i, (n, parent, start, end) in enumerate(trace["spans"]):
                fh.write(json.dumps([req_id, i, names[n], start, end, parent]) + "\n")


def run_workload(root, workload, seed, seconds, trace):
    """Run one workload; returns (result line dict, report lines)."""
    co = Checkout(root, seed)
    if trace:
        attempted, failed, metrics, units, report = traced(co, workload, seed)
    else:
        attempted, failed, metrics, units, report = timed(co, workload, seed, seconds)
    head = "workload=%s seed=%d pythonhashseed=%d trace=%d requests=%d failed=%d fail_frac=%.4f" % (
        workload, seed, co.hashseed, int(trace), attempted, failed, failed / attempted)
    lines = [head] + report + ["%-28s %14.6f %s" % (k, v, units[k]) for k, v in metrics.items()]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    root = os.path.dirname(HERE)
    if args.workload != "all":
        result, lines = run_workload(root, args.workload, args.seed, args.seconds, args.trace)
        print("\n".join(lines))
        print(json.dumps(result, sort_keys=True))
        return 0
    names = [name for name, _ in END_TO_END] + ["fail_frac", "requests"]
    units = [unit for _, unit in END_TO_END] + ["fraction", "count"]
    print("%-14s " % "workload" + " ".join("%14s" % n for n in names))
    print("%-14s " % "" + " ".join("%14s" % u for u in units))
    for workload in workloads.WORKLOADS:
        result, _ = run_workload(root, workload, args.seed, args.seconds, 0)
        values = [result["metrics"][n]["value"] for n, _ in END_TO_END]
        values += [result["failed"] / result["attempted"], result["attempted"]]
        print("%-14s " % workload + " ".join("%14.6g" % v for v in values), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
