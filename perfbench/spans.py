"""Spans recorded from outside the program, at the public functions each
layer is called through.

A ``Tracer`` replaces each target function with a wrapper in every
``superchar`` module namespace that binds it (and, for methods, on the
class).  Each call records a span: name, start, end, parent span and op
id.  Spans stay in memory, in flat arrays, until the run ends.  A layer's
self time is the summed duration of its spans minus the part of that time
covered by their child spans.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# layer -> public functions it is called through, as "module.attr" or
# "module.Class.attr" relative to the superchar package.  Every wrapped
# function belongs to exactly one layer.
LAYERS = {
    "groups.build": (
        "groups.builtin_group",
        "groups.group_from_cayley",
        "groups.group_from_permutations",
    ),
    "groups.classes": ("groups.conjugacy_classes",),
    "groups.lattice": ("groups.enumerate_subgroups", "groups.closure"),
    "cyclo.from_terms": ("cyclo.Cyclotomic.from_terms",),
    "cyclo.sum": ("cyclo.cyclo_sum",),
    "chartab.class_mult": ("chartab.class_mult_coeffs",),
    "chartab.dixon": ("chartab.dixon_character_table",),
    "chartab.orthogonality": ("chartab.verify_orthogonality",),
    "chartab.inner_product": ("chartab.inner_product",),
    "chartab.induce": ("chartab.induce",),
    "chartab.decompose": (
        "chartab.decompose",
        "chartab.character_multiplicities",
        "chartab.has_only_linear_constituents",
    ),
    "theories.make_theory": (
        "theories.make_theory",
        "theories.theory_from_class_blocks",
        "theories.classical_theory",
        "theories.maximal_theory",
    ),
    "theories.enumerate": ("theories.enumerate_theories",),
    "theories.family": ("theories.make_family",),
    "theories.compat": ("theories.is_compatible",),
    "theories.superinduce": ("theories.superinduce",),
    "theories.srestrict": ("theories.srestrict",),
    "nsystems.nsystem": (
        "nsystems.NSystem.__init__",
        "nsystems.NSystem.n_top",
        "nsystems.NSystem.n_value",
        "nsystems.NSystem.n_sigma",
        "nsystems.NSystem.theta",
    ),
    "nsystems.artin_takagi": ("nsystems.verify_artin_takagi",),
    "nsystems.heilbronn_stark": ("nsystems.verify_heilbronn_stark",),
    "nsystems.ach3": ("nsystems.check_ach3",),
    "nsystems.uvdw": ("nsystems.verify_uvdw",),
    "nsystems.cert_search": ("nsystems.find_uvdw_certificate",),
    "fileio.encode": (
        "fileio.table_to_obj",
        "fileio.table_fingerprint",
        "fileio.canonical_json",
    ),
    "fileio.decode": (
        "fileio.decode_table",
        "fileio.load_table",
        "fileio.decode_cyclotomic",
    ),
}

# counters read from return values at the boundary:
# target -> (counter, value of a result, count each distinct result once)
# enumerate_subgroups is cached, so only the first return of a result is
# lattice work; later returns of the same tuple are cache hits.
COUNTERS = {
    "groups.enumerate_subgroups": ("groups.lattice.subgroups", len, True),
    "theories.enumerate_theories": ("theories.enumerate.found", len, False),
    "nsystems.find_uvdw_certificate": ("nsystems.cert_search.nodes", lambda r: r.nodes, False),
}

# targets whose useful outcomes are counted as "<target>.found", over calls
FOUND = {"nsystems.find_uvdw_certificate": lambda r: r.certificate is not None}


class MissingTarget(LookupError):
    """A trace target no longer exists in the program."""


def self_times(starts, ends, parents):
    """Per-span self time: duration minus the union of child spans.

    Spans come from one thread, so children of a span are disjoint and
    nested inside it; their union is the sum of their durations.
    """
    covered = [0.0] * len(starts)
    for i, p in enumerate(parents):
        if p >= 0:
            covered[p] += ends[i] - starts[i]
    return [ends[i] - starts[i] - covered[i] for i in range(len(starts))]


class Tracer:
    """Records spans for every function in ``LAYERS`` while installed."""

    def __init__(self, package):
        self.package = package
        self.names = []  # span name id -> target
        self.layer_of = []  # span name id -> layer
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        self.op_ids = array("i")
        self.counts = defaultdict(int)
        self.op = -1
        self._seen = {}  # id -> result, for counters of distinct results
        self._stack = []
        self._undo = []

    # -- installation ---------------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__
        return [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == prefix or name.startswith(prefix + "."))
        ]

    def _resolve(self, target):
        """(owner, attr, original) for "module.attr" or "module.Class.attr"."""
        parts = target.split(".")
        owner = sys.modules.get(f"{self.package.__name__}.{parts[0]}")
        if owner is None:
            raise MissingTarget(f"trace target {target}: module {parts[0]} not found")
        for part in parts[1:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                raise MissingTarget(f"trace target {target}: {part} not found")
        attr = parts[-1]
        if isinstance(owner, type):
            raw = owner.__dict__.get(attr)
        else:
            raw = getattr(owner, attr, None)
        if raw is None:
            raise MissingTarget(f"trace target {target} no longer exists")
        return owner, attr, raw

    def install(self):
        """Wrap every target; raise MissingTarget (wrapping nothing) if one
        is gone, so that a renamed function cannot read as zero."""
        resolved = [
            (layer, target, *self._resolve(target))
            for layer, targets in LAYERS.items()
            for target in targets
        ]
        modules = self._modules()
        for layer, target, owner, attr, raw in resolved:
            name_id = len(self.names)
            self.names.append(target)
            self.layer_of.append(layer)
            if isinstance(owner, type):
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = self._wrap(fn, name_id, target)
                new = staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            wrapped = self._wrap(raw, name_id, target)
            for m in modules:
                if m.__dict__.get(attr) is raw:
                    self._undo.append((m, attr, raw))
                    setattr(m, attr, wrapped)

    def uninstall(self):
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def _wrap(self, fn, name_id, target):
        starts, ends, name_ids = self.starts, self.ends, self.name_ids
        parents, op_ids, stack, counts = self.parents, self.op_ids, self._stack, self.counts
        seen = self._seen
        counter, value, distinct = COUNTERS.get(target, (None, None, False))
        found = FOUND.get(target)
        calls_key = target + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            parents.append(stack[-1] if stack else -1)
            name_ids.append(name_id)
            op_ids.append(self.op)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            counts[calls_key] += 1
            if counter is not None and not (distinct and id(result) in seen):
                if distinct:
                    seen[id(result)] = result
                counts[counter] += value(result)
            if found is not None and found(result):
                counts[target + ".found"] += 1
            return result

        return wrapper

    # -- results --------------------------------------------------------------

    def __len__(self):
        return len(self.starts)

    def layer_self_times(self):
        """layer -> summed self time of its spans."""
        out = dict.fromkeys(LAYERS, 0.0)
        selfs = self_times(self.starts, self.ends, self.parents)
        for i, s in enumerate(selfs):
            out[self.layer_of[self.name_ids[i]]] += s
        return out

    def inclusive(self, target, op=None):
        """Summed duration of the outermost spans of one target (in one op)."""
        name_id = self.names.index(target)
        total = 0.0
        for i, n in enumerate(self.name_ids):
            if n != name_id or (op is not None and self.op_ids[i] != op):
                continue
            p = self.parents[i]
            while p >= 0 and self.name_ids[p] != name_id:
                p = self.parents[p]
            if p < 0:
                total += self.ends[i] - self.starts[i]
        return total

    def child_inclusive(self, parent_target, child_target, op=None):
        """Summed duration of child_target spans directly under parent_target."""
        pid, cid = self.names.index(parent_target), self.names.index(child_target)
        return sum(
            self.ends[i] - self.starts[i]
            for i, n in enumerate(self.name_ids)
            if n == cid
            and self.parents[i] >= 0
            and self.name_ids[self.parents[i]] == pid
            and (op is None or self.op_ids[i] == op)
        )

    def children_count(self, parent_target, child_target):
        pid, cid = self.names.index(parent_target), self.names.index(child_target)
        return sum(
            1
            for i, n in enumerate(self.name_ids)
            if n == cid and self.parents[i] >= 0 and self.name_ids[self.parents[i]] == pid
        )

    def write(self, path):
        """Write every span as a tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt") as out:
            out.write("span\tname\tstart\tend\tparent\top\n")
            for i in range(len(self.starts)):
                out.write(
                    f"{i}\t{self.names[self.name_ids[i]]}\t{self.starts[i]!r}\t"
                    f"{self.ends[i]!r}\t{self.parents[i]}\t{self.op_ids[i]}\n"
                )
