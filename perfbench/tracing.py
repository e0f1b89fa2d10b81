"""Span recording around f1kit's layer boundaries, and self-time arithmetic.

``install`` rebinds the public functions and public methods of the six f1kit
modules (plus the arithmetic operators of ``MotClass`` and ``Monomial``,
reflected ones included, and the cli's document builders) with wrappers that
record one span per call: name, parent span, start and end.  A function that
other f1kit modules imported with ``from .x import y`` is rebound under every
name that refers to it.  Spans stay in memory in a ``Recorder`` and leave the
process with the request's result.

A span's self time is its duration minus the part of it covered by its child
spans.  A metric group sums the self time and the calls of the spans it
names; see ``GROUPS``.
"""

import functools
import importlib
import inspect
import os
import time

LAYERS = ("motive", "genseries", "treeop", "torif", "blueprint", "cli")

OPERATORS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__", "__pow__"}

# Leaf accessors, constant constructors and per-node serializers, called up to
# hundreds of thousands of times per request: a span on each would cost more
# than the work it measures and swamp the span file.  Their time counts as
# self time of the span that called them.
EXCLUDED = {
    "blueprint.SubsetIndex.sort_key",
    "blueprint.SubsetIndex.complement",
    "blueprint.SubsetIndex.separates",
    "blueprint.Monomial.sort_key",
    "motive.MotClass.zero",
    "motive.MotClass.one",
    "motive.MotClass.torus",
    "motive.MotClass.lefschetz",
    "motive.MotClass.coefficient",
    "treeop.RootedTree.in_degree",
    "treeop.RootedTree.children",
    "treeop.RootedTree.flags_at",
    "torif.Torus.to_json",
    "torif.DisjointUnion.to_json",
    "torif.Product.to_json",
    "torif.Complement.to_json",
}

# Span name -> metric group.  Names not listed fall in "<layer>.other", or in
# the group of their class when the class is listed.
GROUPS = {
    "motive.MotClass.__mul__": "motive.mul",
    "motive.MotClass.__rmul__": "motive.mul",
    "motive.MotClass.__pow__": "motive.mul",
    "motive.MotClass.__add__": "motive.add",
    "motive.MotClass.__radd__": "motive.add",
    "motive.MotClass.__sub__": "motive.add",
    "motive.MotClass.__rsub__": "motive.add",
    "motive.MotClass.__neg__": "motive.add",
    "motive.MotClass.in_basis": "motive.basis",
    "motive.MotClass.from_coeffs": "motive.basis",
    "motive.MotClass.poincare": "motive.basis",
    "motive.change_basis": "motive.basis",
    "motive.poincare_poly": "motive.basis",
    "genseries.mbar0_class": "genseries.recursion",
    "genseries.tdn_class": "genseries.recursion",
    "genseries.solve_tdn_ode": "genseries.ode",
    "genseries.solve_point_count_ode": "genseries.ode",
    "genseries.load_caches": "genseries.cache.load",
    "genseries.save_caches": "genseries.cache.save",
    "treeop.RootedTree": "treeop.tree",
    "treeop.enumerate_stable_trees": "treeop.enumerate",
    "treeop.strata_table": "treeop.strata",
    "treeop.strata_sum": "treeop.strata",
    "treeop.StratumDescriptor": "treeop.strata",
    "treeop.tree_class": "treeop.strata",
    "treeop.tree_points": "treeop.strata",
    "treeop.compose": "treeop.operad",
    "treeop.graft": "treeop.operad",
    "treeop.graft_all": "treeop.operad",
    "treeop.contract_edge": "treeop.operad",
    "treeop.forget_marking": "treeop.operad",
    "treeop.permute_markings": "treeop.operad",
    "torif.torify_proj_space": "torif.build",
    "torif.torify_tree_curve": "torif.build",
    "torif.constructible_open_stratum": "torif.build",
    "torif.product_torification": "torif.build",
    "torif.blowup_decomposition": "torif.build",
    "torif.affine_space_expr": "torif.build",
    "torif.affine_minus_points": "torif.build",
    "torif.eval_class": "torif.eval",
    "torif.validate": "torif.eval",
    "torif.atoms": "torif.eval",
    "torif.dimension": "torif.eval",
    "torif.selection_class": "torif.eval",
    "blueprint.index_set": "blueprint.index_set",
    "blueprint.plucker_relations": "blueprint.relations",
    "blueprint.separation_monomial": "blueprint.relations",
    "blueprint.localize_relation": "blueprint.relations",
    "blueprint.clear_denominators": "blueprint.relations",
    "blueprint.full_product_monomial": "blueprint.relations",
    "blueprint.SubsetIndex": "blueprint.relations",
    "blueprint.Monomial": "blueprint.relations",
    "blueprint.BlueprintRel": "blueprint.relations",
    "blueprint.count_max_simplexes": "blueprint.simplex",
    "blueprint.is_simplex": "blueprint.simplex",
    "blueprint.perm_action": "blueprint.action",
    "blueprint.perm_relation": "blueprint.action",
    "blueprint.relation_triples": "blueprint.action",
    "blueprint.centralizer_subgroup": "blueprint.action",
    "blueprint.crossed_mul": "blueprint.action",
    "blueprint.crossed_relations": "blueprint.action",
    "blueprint.crossed_identity": "blueprint.action",
    "blueprint.compose_perm": "blueprint.action",
    "blueprint.invert_perm": "blueprint.action",
    "blueprint.embed_perm": "blueprint.action",
    "blueprint.identity_perm": "blueprint.action",
    "blueprint.CrossedElem": "blueprint.action",
    "cli.emit": "cli.emit",
    "cli.build": "cli.build",
}


def group_of(name):
    """Metric group of a span name."""
    parts = name.split(".")
    for k in (len(parts), 2):
        group = GROUPS.get(".".join(parts[:k]))
        if group:
            return group
    return parts[0] + ".other"


class Recorder:
    """Spans and boundary counts of one process, kept in memory."""

    def __init__(self):
        self.names = []
        self.spans = []  # [name_id, parent_index, start, end]
        self.stack = [-1]
        self.counts = {
            "treeop.trees_built": 0,
            "motive.coeff_bits_max": 0,
            "cli.emit.bytes": 0,
            "genseries.cache.bytes": 0,
        }

    def export(self):
        return {"names": self.names, "spans": self.spans, "counts": self.counts}

    def wrap(self, fn, name, after=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name_id, stack[-1], 0.0, 0.0]
            spans.append(span)
            stack.append(index)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def count(self, fn, counter):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # boundary counts taken from results

    def coeff_bits(self, result):
        coeffs = getattr(result, "coeffs", None)
        if coeffs:
            bits = max(abs(c).bit_length() for c in coeffs)
            if bits > self.counts["motive.coeff_bits_max"]:
                self.counts["motive.coeff_bits_max"] = bits

    def cache_bytes(self, path):
        self.counts["genseries.cache.bytes"] += os.path.getsize(path)

    def emit_bytes(self, payload):
        self.counts["cli.emit.bytes"] += len(payload)


def _hooks(rec):
    hooks = {
        "genseries.save_caches": rec.cache_bytes,
        "cli.emit": rec.emit_bytes,
    }
    for name, group in GROUPS.items():
        if group in ("motive.mul", "motive.add"):
            hooks[name] = rec.coeff_bits
    return hooks


def install(package):
    """Wrap every layer boundary of an imported f1kit; returns the Recorder."""
    rec = Recorder()
    hooks = _hooks(rec)
    modules = {layer: importlib.import_module("%s.%s" % (package.__name__, layer)) for layer in LAYERS}
    namespaces = [package] + list(modules.values())
    for layer, module in modules.items():
        for attr, obj in sorted(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                _wrap_class(rec, hooks, "%s.%s" % (layer, attr), obj)
            elif inspect.isfunction(obj):
                name = "%s.%s" % (layer, attr)
                wrapped = rec.wrap(obj, name, hooks.get(name))
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is obj:
                            setattr(ns, key, wrapped)
    builders = modules["cli"]._BUILDERS
    for command, builder in list(builders.items()):
        builders[command] = rec.wrap(builder, "cli.build.%s" % command)
    tree = modules["treeop"].RootedTree
    tree.__init__ = rec.count(tree.__init__, "treeop.trees_built")
    return rec


def _wrap_class(rec, hooks, prefix, cls):
    for attr, member in list(vars(cls).items()):
        if attr.startswith("_") and attr not in OPERATORS:
            continue
        name = "%s.%s" % (prefix, attr)
        if name in EXCLUDED:
            continue
        if isinstance(member, classmethod):
            setattr(cls, attr, classmethod(rec.wrap(member.__func__, name, hooks.get(name))))
        elif isinstance(member, staticmethod):
            setattr(cls, attr, staticmethod(rec.wrap(member.__func__, name, hooks.get(name))))
        elif inspect.isfunction(member):
            setattr(cls, attr, rec.wrap(member, name, hooks.get(name)))


# -- arithmetic on recorded spans ------------------------------------------------


def self_times(spans):
    """Self time of each span: its duration minus the union of its children.

    ``spans`` is a list of (name, parent_index, start, end) with parent -1 for
    a root.  Child intervals are clipped to the parent before the union.
    """
    children = {}
    for name, parent, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, parent, start, end) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, start), min(b, end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


class LayerTotals:
    """Calls, self time and boundary counts summed over many requests."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.total_s = {}
        self.counts = {}

    def add(self, trace):
        names = trace["names"]
        spans = [(names[n], parent, start, end) for n, parent, start, end in trace["spans"]]
        for (name, _, start, end), own in zip(spans, self_times(spans)):
            group = group_of(name)
            self.calls[group] = self.calls.get(group, 0) + 1
            self.self_s[group] = self.self_s.get(group, 0.0) + own
            self.total_s[group] = self.total_s.get(group, 0.0) + (end - start)
        for key, value in trace["counts"].items():
            if key.endswith("_max"):
                self.counts[key] = max(self.counts.get(key, 0), value)
            else:
                self.counts[key] = self.counts.get(key, 0) + value
