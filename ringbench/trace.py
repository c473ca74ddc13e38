"""Run one ringlab command with probes installed from outside the program.

    python ringbench/trace.py spans OUT.jsonl ARGS...
    python ringbench/trace.py ops OUT.jsonl ARGS...

ARGS are the arguments of ``ringlab`` (``analyze FILE --format json``, ...).
The command runs as ``ringlab.cli.main(ARGS)`` does under ``python -m
ringlab.cli``; its stdout and exit code are left alone.

``spans`` wraps the public function of each layer listed in ``SPANS``
(and ``reports._stage``, one span name per stage).  A wrapper records a
span (name, start, end, parent) in memory; the spans are written as JSON
lines once the command has ended, followed by one ``{"counts": ...}`` line
with the counters that are not call counts (rref cells, BCH words).

``ops`` only counts calls of the arithmetic, zero and equality methods of
each coefficient domain.  Those methods are the innermost calls of every
layer, so they are counted in a pass of their own rather than distorting
the times of the ``spans`` pass.

Where a module holds a wrapped function under an imported name, the
wrapper replaces it there too; nothing under ``src/`` is edited.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# (span name, module, attribute); "Class.method" attributes wrap a method.
SPANS = (
    ("cli.main", "cli", "main"),
    ("cli.render", "cli", "_emit"),
    ("documents.load_document", "documents", "load_document"),
    ("reports.analyze", "reports", "analyze"),
    ("rings.RingPresentation", "rings", "RingPresentation.__post_init__"),
    ("rings.verify_ring_reassembly", "rings", "verify_ring_reassembly"),
    ("rings.verify_enrichment", "rings", "verify_enrichment"),
    ("lie.bch", "lie", "bch"),
    ("lie.group_commutator", "lie", "group_commutator"),
    ("lie.verify_nilpotent_lie", "lie", "verify_nilpotent_lie"),
    ("scalars.symmetric_endos", "scalars", "symmetric_endos"),
    ("scalars.z_center", "scalars", "z_center"),
    ("scalars.p_of_f", "scalars", "p_of_f"),
    ("scalars.largest_scalar_action", "scalars", "largest_scalar_action"),
    ("scalars.decompose_via_scalars", "scalars", "decompose_via_scalars"),
    ("scalars.z_n_chain", "scalars", "z_n_chain"),
    ("artinian.radical", "artinian", "radical"),
    ("artinian.local_decomposition", "artinian", "local_decomposition"),
    ("artinian.field_of_representatives", "artinian", "field_of_representatives"),
    ("polynomials.poly_factor", "polynomials", "poly_factor"),
    ("bilinear.BilinearMap.evaluate", "bilinear", "BilinearMap.evaluate"),
    ("bilinear.coords_in_rows", "bilinear", "coords_in_rows"),
    ("bilinear.canonical_span_rows", "bilinear", "canonical_span_rows"),
    ("bilinear.complement_rows", "bilinear", "complement_rows"),
    ("linalg.rref", "linalg", "rref"),
    ("linalg.Matrix.mul", "linalg", "Matrix.mul"),
    ("linalg.solve", "linalg", "solve"),
    ("linalg.kernel_basis", "linalg", "kernel_basis"),
    ("linalg.smith_normal_form", "linalg", "smith_normal_form"),
    ("modules.split_complement", "modules", "split_complement"),
    ("gfenum", "gfenum", "all_vectors"),
    ("gfenum", "gfenum", "pack_rows"),
    ("gfenum", "gfenum", "unique_rows"),
    ("gfenum", "gfenum", "sumset"),
    ("gfenum", "gfenum", "same_row_set"),
    ("gfenum", "gfenum", "span_rows"),
    ("selftest.run_selftest", "selftest", "run_selftest"),
)

DOMAINS = ("Rationals", "PrimeField", "Extension", "Integers")
DOMAIN_OPS = ("add", "neg", "sub", "mul", "inv", "div", "is_zero", "eq")


def _modules():
    import ringlab
    import ringlab.cli  # noqa: F401  (the package does not import the CLI)

    return {
        name[len("ringlab."):]: mod
        for name, mod in sys.modules.items()
        if name.startswith("ringlab.")
    }


def _replace(modules, owner, attr, wrapper):
    """Install wrapper as owner.attr and wherever a module re-exports it."""
    original = getattr(owner, attr)
    setattr(owner, attr, wrapper)
    for mod in list(modules.values()) + [sys.modules["ringlab"]]:
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, wrapper)


def _target(modules, module, attr):
    owner = modules[module]
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr


class Spans:
    """Spans in flat arrays: span i has name names[name[i]], parent[i] (-1
    for a root), start[i] and end[i] in perf_counter seconds."""

    def __init__(self):
        self.names = []
        self.ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = {"linalg.rref.cells": 0, "lie.bch.words": 0}

    def intern(self, label):
        if label not in self.ids:
            self.ids[label] = len(self.names)
            self.names.append(label)
        return self.ids[label]

    def wrap(self, label, fn, after=None, label_of=None):
        """A wrapper of fn recording a span named label (or label_of(args))."""
        nid = self.intern(label)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, intern, clock = self.stack, self.intern, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(nid if label_of is None else intern(label_of(args)))
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            starts[sid] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def install(self, modules):
        counts = self.counts
        lie = modules["lie"]

        def rref_cells(args, result):
            counts["linalg.rref.cells"] += args[0].rows * args[0].cols

        def bch_words(args, result):
            counts["lie.bch.words"] += len(lie._dynkin_terms(args[0].nilpotency_class))

        after = {"linalg.rref": rref_cells, "lie.bch": bch_words}
        for label, module, attr in SPANS:
            owner, name = _target(modules, module, attr)
            wrapper = self.wrap(label, getattr(owner, name), after.get(label))
            _replace(modules, owner, name, wrapper)
        reports = modules["reports"]
        stage = self.wrap(
            "reports.stage", reports._stage, label_of=lambda args: "reports.stage." + args[0]
        )
        _replace(modules, reports, "_stage", stage)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as out:
            for i in range(len(self.name)):
                out.write(
                    json.dumps(
                        [self.names[self.name[i]], self.start[i], self.end[i], self.parent[i]]
                    )
                    + "\n"
                )
            out.write(json.dumps({"counts": self.counts}) + "\n")


class Ops:
    """Call counts of the coefficient-domain methods, per domain class."""

    def __init__(self):
        self.counters = {name: [0] for name in DOMAINS}

    def install(self, modules):
        domains = modules["domains"]
        for cls_name in DOMAINS:
            cls = getattr(domains, cls_name)
            counter = self.counters[cls_name]
            for op in DOMAIN_OPS:
                setattr(cls, op, self._counting(getattr(cls, op), counter))

    @staticmethod
    def _counting(fn, counter):
        def wrapper(*args):
            counter[0] += 1
            return fn(*args)

        return wrapper

    def dump(self, path):
        counts = {f"domains.{name}.ops": c[0] for name, c in self.counters.items()}
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"counts": counts}) + "\n")


def main(argv) -> int:
    mode, path, args = argv[0], argv[1], argv[2:]
    modules = _modules()
    probe = {"spans": Spans, "ops": Ops}[mode]()
    probe.install(modules)
    try:
        code = modules["cli"].main(args)
    finally:
        sys.stdout.flush()
        probe.dump(path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
