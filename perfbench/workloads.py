"""Request generators and the library-side request executor.

A workload is an endless sequence of *rounds*.  Every round holds one request
per template of the workload, with that template's parameters drawn from a
small fixed grid by a ``random.Random(seed)`` generator, in shuffled order.
Because every round has the same templates, the cost of a round hardly
depends on the seed, which keeps throughput and latency percentiles steady
across seeds while the concrete inputs differ.  Because every grid is finite,
``all_requests`` can list everything the generator can emit, and the
reference digests in ``refs.json`` cover all of it.

A request is a dict with ``op`` and ``params`` (library workloads) or ``op ==
"cli"`` with ``argv`` and ``cache`` (the cli workload).  Its ``key`` names the
expected output independently of anything that must not change it (the cli
cache flag, the round, the seed).

This module must not import f1kit at module level: the orchestrator imports
it to generate requests and never loads the library itself.
"""

import hashlib
import itertools
import json
import random

WORKLOADS = ("classes", "combinatorics", "cli")


def _grid(**axes):
    """Every combination of the given axes, as a list of param dicts."""
    names = sorted(axes)
    return [dict(zip(names, combo)) for combo in itertools.product(*(axes[n] for n in names))]


# -- the classes workload ------------------------------------------------------
# motive big-integer polynomial products and the genseries quadratic
# convolutions do almost all the work; treeop, torif and blueprint are never
# called.
#
# Round layout.  The pooled latencies of many rounds sort into one block per
# template, so each template is placed in a cost tier.  The templates that the
# percentiles read are fixed requests, so that the seed cannot decide what a
# percentile reads, and they form a ladder of costs about 1.3x apart: the speed
# of the shared machine jumps between states about 1.5x apart within seconds,
# and over a ladder a percentile moves smoothly with the share of time spent in
# each state, where over one request it would jump from state to state.  With
# 17 templates the median falls in the middle of blocks 8-10, three requests,
# and p90 inside blocks 15-16, two requests.  Tiers (per request on a 2-core
# x86 virtual machine in its fast state): 7 below 0.03 s, the median ladder at
# 0.03-0.055 s, 4 at 0.08-0.15 s, the p90 ladder at 0.14-0.18 s, and the
# largest near 0.35 s.

CLASSES = [
    ("mbar0_class", _grid(n=[26, 28, 30, 32])),
    ("solve_point_count_ode", _grid(d=[1, 2, 3], m=range(10), order=[100, 125, 150])),
    ("solve_tdn_ode", _grid(d=[1], order=[26, 28, 30])),
    ("solve_tdn_ode", _grid(d=[2, 3], order=[18, 20, 22])),
    ("f1m_count", _grid(d=[1, 2, 3, 4], n=[16, 18, 20], m=range(10))),
    ("tdn_class", _grid(d=[4], n=[18, 19, 20])),
    ("expand_falling", _grid(m=[150, 160, 170])),
    # the median ladder
    ("tdn_class", [{"d": 1, "n": 42}]),
    ("tdn_class", [{"d": 1, "n": 46}]),
    ("tdn_class", [{"d": 1, "n": 50}]),
    ("mbar0_class", _grid(n=[58, 60, 62])),
    ("expand_falling_stirling", _grid(m=[240, 250, 260])),
    ("tdn_class", _grid(d=[2], n=[42, 44])),
    ("solve_tdn_ode", _grid(d=[1], order=[48, 50])),
    # the p90 ladder
    ("solve_point_count_ode", [{"d": 2, "m": 9, "order": 300}]),
    ("solve_point_count_ode", [{"d": 3, "m": 9, "order": 300}]),
    ("mbar0_class", _grid(n=[78, 80])),
]


# -- the combinatorics workload -----------------------------------------------
# Building and hashing tree, expression and monomial objects dominates; motive
# and genseries do little.
#
# Round layout as for classes, with 18 templates.  The median falls in the
# middle of blocks 8-11, four operad batches: a ladder of three fixed batches
# of 3, 4 and 5 units of work and a fourth of 4 units drawn from the rest.
# p90 falls in the middle of blocks 15-18, four fixed requests that cost
# 0.3-0.45 s.  Tiers: 7 below 0.03 s, the operad batches at 0.03-0.05 s, 3 at
# 0.1-0.15 s, and the four at the top.

COMBINATORICS = [
    ("enumerate_stable_trees", _grid(n=[4, 5])),
    ("strata_sum", _grid(d=[1, 2, 3], n=[5])),
    ("torif_batch", _grid(v=range(16))),
    ("constructible_open_stratum", _grid(d=[1], n=[6, 7, 8]) + _grid(d=[2], n=[6, 7])),
    ("count_max_simplexes", _grid(n=[6, 7])),
    ("crossed", _grid(g=[1, 2], n=[5, 6])),
    ("crossed_mul_batch", _grid(n=[6, 7], v=range(8))),
    # the median ladder
    ("operad_batch", [{"s": 3, "v": 0}]),
    ("operad_batch", [{"s": 4, "v": 0}]),
    ("operad_batch", [{"s": 5, "v": 0}]),
    ("operad_batch", _grid(s=[4], v=range(1, 32))),
    ("perm_batch", _grid(n=[7], v=range(8))),
    ("plucker_relations", _grid(n=[8])),
    ("crossed", [{"g": 3, "n": 7}, {"g": 1, "n": 8}]),
    # the top four
    ("strata_table", _grid(d=[1], n=[6])),
    ("strata_sum", [{"d": 1, "n": 7}]),
    ("strata_sum", [{"d": 2, "n": 7}]),
    ("plucker_relations", _grid(n=[9])),
]


# -- the cli workload ----------------------------------------------------------
# One interpreter per request.  Templates marked cached share one
# F1KIT_CACHE_DIR that is empty when the pass starts, so the pass sees
# persisted-memo misses, partial hits and full hits.

_FMT = ["text", "json", "csv"]
_BASIS = ["T", "L"]


def _argvs(argv_fn, grid, cache=False):
    return [{"argv": argv_fn(p), "cache": cache} for p in grid]


def _classes(p):
    d = ["--d", str(p["d"])] if p["s"] == "tdn" else []
    return ["classes", "--space", p["s"]] + d + ["--n", str(p["n"]), "--basis", p["b"], "--format", p["f"]]


def _points(p):
    return ["points", "--space", p["s"], "--d", str(p["d"]), "--n", str(p["n"]),
            "--m", str(p["m"]), "--format", p["f"]]


def _series(p):
    return ["series", "--d", str(p["d"]), "--order", str(p["o"]), "--basis", p["b"], "--format", p["f"]]


def _strata(p):
    return ["strata", "--d", str(p["d"]), "--n", str(p["n"]), "--basis", p["b"], "--format", p["f"]]


def _torify(p):
    argv = ["torify", "--d", str(p["d"])]
    if p["n"]:
        argv += ["--n", str(p["n"])]
    return argv + ["--format", p["f"]]


def _blueprint(p):
    return ["blueprint", "--n", str(p["n"]), "--format", p["f"]]


def _crossed(p):
    return ["crossed", "--g", str(p["g"]), "--n", str(p["n"]), "--format", p["f"]]


# Bad but parseable requests: each must exit 2 (usage) or 3 (range).
_BAD = [
    ["classes", "--space", "mbar0", "--n", "1"],
    ["classes", "--space", "tdn", "--d", "0", "--n", "4"],
    ["points", "--space", "mbar0", "--n", "5", "--m", "-1"],
    ["series", "--d", "1", "--order", "0"],
    ["strata", "--d", "1", "--n", "1"],
    ["torify", "--d", "-1"],
    ["blueprint", "--n", "3"],
    ["crossed", "--g", "3", "--n", "5"],
    ["classes", "--space", "mbar0"],
    ["classes", "--space", "moduli", "--n", "5"],
    ["points", "--space", "tdn", "--n", "4", "--m", "x"],
    ["strata", "--n", "4", "--format", "yaml"],
]

# Round layout as for classes, with 15 templates: 5 below the median ladder,
# the ladder of 5 fixed requests, and 5 above.  A new interpreter per request
# makes every latency noisy, so the median reads a ladder of five.  The cached
# templates cost little once the memo is on disk, so they sit in the lowest
# tier; their few misses add a handful of samples above it.  p90 falls in the
# middle of blocks 13-15: a ladder of two fixed requests and the largest
# template.  Tiers: 5 at 0.07-0.15 s, the median ladder at 0.15-0.3 s, 2 at
# 0.2-0.3 s, the p90 ladder at 0.4-0.6 s, and the largest near 0.65 s.  Where
# the format or basis moves a template's cost, it is fixed; the largest also
# sets the peak RSS.

CLI = [
    ("cli", _argvs(list, _BAD)),
    ("cli", _argvs(_torify, _grid(d=range(1, 7), n=[None], f=_FMT)) + _argvs(_blueprint, _grid(n=[5, 6, 7], f=_FMT))
     + _argvs(_crossed, _grid(g=[1, 2], n=[5, 6], f=_FMT))),
    ("cli", _argvs(_classes, _grid(s=["tdn"], d=[1, 2, 3, 4], n=[10, 15, 20], b=_BASIS, f=_FMT), cache=True)
     + _argvs(_classes, _grid(s=["mbar0"], n=[60, 70, 80], b=_BASIS, f=_FMT), cache=True)),
    ("cli", _argvs(_points, _grid(s=["tdn"], d=[1, 2, 3, 4], n=[10, 15, 20], m=[0, 1, 2, 5, 9], f=_FMT), cache=True)
     + _argvs(_points, _grid(s=["mbar0"], d=[1], n=[40, 50, 60, 70, 80], m=[0, 1, 2, 5, 9], f=_FMT), cache=True)),
    ("cli", _argvs(_series, _grid(d=[1, 2, 3], o=[10, 20], b=_BASIS, f=_FMT), cache=True)
     + _argvs(_strata, _grid(d=[1, 2], n=[5], b=_BASIS, f=_FMT), cache=True)),
    # the median ladder
    ("cli", _argvs(_classes, [{"s": "mbar0", "n": 48, "b": "T", "f": "text"}])),
    ("cli", _argvs(_classes, [{"s": "mbar0", "n": 52, "b": "L", "f": "json"}])),
    ("cli", _argvs(_classes, [{"s": "mbar0", "n": 56, "b": "L", "f": "csv"}])),
    ("cli", _argvs(_classes, [{"s": "mbar0", "n": 60, "b": "T", "f": "csv"}])),
    ("cli", _argvs(_classes, [{"s": "mbar0", "n": 64, "b": "L", "f": "text"}])),
    ("cli", _argvs(_points, _grid(s=["mbar0"], d=[1], n=[62], m=[0, 1, 2, 5, 9], f=_FMT))
     + _argvs(_torify, _grid(d=[2], n=[8], f=["text", "csv"]))),
    ("cli", _argvs(_blueprint, _grid(n=[8], f=_FMT)) + _argvs(_crossed, _grid(g=[2], n=[7], f=["json"]))),
    # the p90 ladder
    ("cli", _argvs(_classes, [{"s": "mbar0", "n": 70, "b": "T", "f": "json"}])),
    ("cli", _argvs(_classes, [{"s": "mbar0", "n": 80, "b": "T", "f": "json"}])),
    ("cli", _argvs(_strata, _grid(d=[1], n=[6], b=_BASIS, f=["json"]))),
]

TEMPLATES = {"classes": CLASSES, "combinatorics": COMBINATORICS, "cli": CLI}


def _make(op, choice):
    if op == "cli":
        return {"op": "cli", "argv": list(choice["argv"]), "cache": choice["cache"]}
    return {"op": op, "params": dict(choice)}


def request_key(req):
    """Name of the expected output of a request."""
    if req["op"] == "cli":
        return "cli " + " ".join(req["argv"])
    return "%s(%s)" % (req["op"], ",".join("%s=%s" % kv for kv in sorted(req["params"].items())))


def rounds(workload, seed):
    """Endless deterministic sequence of rounds (lists of requests) for a seed."""
    rng = random.Random(seed)
    templates = TEMPLATES[workload]
    while True:
        batch = [_make(op, rng.choice(choices)) for op, choices in templates]
        rng.shuffle(batch)
        yield batch


def all_requests(workload):
    """Every request the generator of a workload can emit, one per key."""
    out = {}
    for op, choices in TEMPLATES[workload]:
        for choice in choices:
            req = _make(op, choice)
            out.setdefault(request_key(req), req)
    return [out[k] for k in sorted(out)]


def digest(exit_code, payload):
    """Digest of a request's canonical output and exit code."""
    h = hashlib.sha256(b"%d\n" % exit_code)
    h.update(payload)
    return h.hexdigest()


# -- library request execution (runs in a process that imported f1kit) -------


def _cls(value):
    """Canonical form of a class: both bases and the Poincare polynomial."""
    return {"T": list(value.in_basis("T")), "L": list(value.in_basis("L")), "poincare": list(value.poincare())}


def _random_form(rng, labels):
    """Nested form of a random stable tree on the given labels."""
    labels = list(labels)
    rng.shuffle(labels)
    if len(labels) <= 2:
        return (tuple(sorted(labels)), ())
    k = rng.randint(2, len(labels))
    cuts = sorted(rng.sample(range(1, len(labels)), k - 1))
    groups = [labels[a:b] for a, b in zip([0] + cuts, cuts + [len(labels)])]
    inputs = tuple(sorted(g[0] for g in groups if len(g) == 1))
    subs = tuple(_random_form(rng, g) for g in groups if len(g) > 1)
    return (inputs, subs)


def _random_tree(rng, n):
    from f1kit import RootedTree

    return RootedTree.from_nested(_random_form(rng, range(1, n + 1)))


def _operad_batch(s, v):
    import f1kit as F

    rng = random.Random("operad-%d" % v)
    out = []
    for _ in range(16 * s):
        tau = _random_tree(rng, rng.randint(2, 3))
        args = [_random_tree(rng, rng.randint(2, 3)) for _ in range(tau.input_count())]
        out.append(F.compose(tau, args).canonical_str())
    for _ in range(32 * s):
        tau = _random_tree(rng, rng.randint(4, 6))
        out.append(F.forget_marking(tau, rng.randint(1, tau.input_count())).canonical_str())
        images = list(range(1, tau.input_count() + 1))
        rng.shuffle(images)
        pi = dict(zip(range(1, tau.input_count() + 1), images))
        out.append(F.permute_markings(tau, pi).canonical_str())
    return out


def _torif_batch(v):
    import f1kit as F

    rng = random.Random("torif-%d" % v)
    out = []
    for _ in range(16):
        out.append(F.torify_tree_curve(_random_tree(rng, rng.randint(4, 6))).to_json())
    for _ in range(4):
        proj = F.torify_proj_space(rng.randint(2, 5))
        out.append(proj.to_json())
        center = sorted(rng.sample(proj.labels(), 3))
        out.append(F.blowup_decomposition(proj, center, rng.randint(2, 3)).to_json())
        left, right = F.torify_proj_space(rng.randint(1, 3)), F.torify_proj_space(rng.randint(1, 3))
        out.append(F.product_torification(left, right).to_json())
    return out


def _perm_batch(n, v):
    import f1kit as F

    rng = random.Random("perm-%d-%d" % (n, v))
    rels = F.plucker_relations(n)
    out = []
    for _ in range(8):
        pi = list(range(1, n + 1))
        rng.shuffle(pi)
        out.append([str(F.blueprint.perm_relation(tuple(pi), r)) for r in rels])
    return out


def _crossed_pairs(g, n):
    import f1kit as F

    group = [F.blueprint.embed_perm(p, n) for p in F.centralizer_subgroup(g)]
    pairs = F.crossed_relations(F.plucker_relations(n), group)
    return [[str(a), str(b)] for a, b in pairs]


def _crossed_mul_batch(n, v):
    import f1kit as F

    rng = random.Random("crossed-mul-%d-%d" % (n, v))
    idx = F.index_set(n)
    group = [F.blueprint.embed_perm(p, n) for p in F.centralizer_subgroup(2)]

    def elem():
        summands = [
            F.Monomial(n, {i: rng.randint(1, 2) for i in rng.sample(idx, rng.randint(1, 3))})
            for _ in range(rng.randint(1, 3))
        ]
        return F.CrossedElem(n, summands, rng.choice(group))

    out = []
    for _ in range(80):
        x, y = elem(), elem()
        out.append(str(F.crossed_mul(x, y)))
    return out


def _execute(op, p):
    import f1kit as F

    if op == "mbar0_class":
        return _cls(F.mbar0_class(p["n"]))
    if op == "tdn_class":
        return _cls(F.tdn_class(p["d"], p["n"]))
    if op == "solve_tdn_ode":
        return [_cls(c) for c in F.solve_tdn_ode(p["d"], p["order"]).coeffs]
    if op == "solve_point_count_ode":
        return F.solve_point_count_ode(p["d"], p["m"], p["order"])
    if op == "f1m_count":
        return F.f1m_count(p["d"], p["n"], p["m"])
    if op == "expand_falling":
        return _cls(F.expand_falling(p["m"]))
    if op == "expand_falling_stirling":
        return _cls(F.expand_falling_stirling(p["m"]))
    if op == "strata_table":
        return [[s.tree.canonical_str(), list(s.stratum_class().coeffs)] for s in F.strata_table(p["d"], p["n"])]
    if op == "enumerate_stable_trees":
        return [t.canonical_str() for t in F.enumerate_stable_trees(p["n"])]
    if op == "strata_sum":
        return _cls(F.strata_sum(p["d"], p["n"]))
    if op == "operad_batch":
        return _operad_batch(p["s"], p["v"])
    if op == "constructible_open_stratum":
        return F.constructible_open_stratum(p["d"], p["n"]).to_json()
    if op == "torif_batch":
        return _torif_batch(p["v"])
    if op == "plucker_relations":
        return [str(r) for r in F.plucker_relations(p["n"])]
    if op == "count_max_simplexes":
        return F.count_max_simplexes(p["n"])
    if op == "perm_batch":
        return _perm_batch(p["n"], p["v"])
    if op == "crossed":
        return _crossed_pairs(p["g"], p["n"])
    if op == "crossed_mul_batch":
        return _crossed_mul_batch(p["n"], p["v"])
    raise ValueError("unknown op %r" % (op,))


def execute(req):
    """Run one library request; returns its canonical output as bytes."""
    value = _execute(req["op"], req["params"])
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=str).encode()
