"""Span tracer that instruments the mtc layers from outside the program.

`Tracer.install()` replaces every module-level public function of the
layers in LAYERS, and every method of the classes in SPAN_CLASSES, with a
wrapper that records a span (name, start, end, parent, thread) in memory.
Everything in `scalars`, `linalg._rref` and `Matrix.__init__` get counting
wrappers instead: they are called millions of times, so their time lands
in the self time of the calling span.  `IncrementalSpan._reduce` gets both:
it is a span, and it feeds the elimination counters as `_rref` does.
`summary()` reduces the spans to the per-layer metrics; `write_spans()`
writes the raw spans out.

Guards:
- every binding of a wrapped function is patched, including the ones made
  by `from .linalg import kron` in other modules and in the `mtc` package;
- a function still reachable unwrapped after patching, or a required
  target that no longer exists, raises TracerError instead of reporting
  zero calls;
- each thread has its own span stack, because `cli._structural_checks`
  runs the snake checks in a ThreadPoolExecutor worker.

Counters are plain integers: they assume one thread runs mtc code at a
time, which holds while MTC_THREADS is unset (one pool worker, and the
submitting thread blocks on it).
"""

import inspect
import json
import sys
import threading
import time

LAYERS = ("scalars", "linalg", "etale", "hopf", "repcat", "diagrams",
          "coend", "cardy", "cli")
SPAN_CLASSES = {"linalg": ("Matrix", "IncrementalSpan"),
                "hopf": ("HopfAlgebraData",)}
COUNT_CLASSES = {"scalars": ("Scalar",)}

# Functions whose time makes up each linalg family.  A linalg span with no
# family of its own (Matrix.from_rows under hstack, say) inherits the family
# of its linalg parent, so a family's self time covers its helpers.
LINALG_FAMILIES = {
    "linalg.rank": "elim", "linalg.solve_right": "elim",
    "linalg.kernel_basis": "elim", "linalg.invert": "elim",
    "linalg.rank_factor": "elim",
    "linalg.IncrementalSpan.add": "elim",
    "linalg.IncrementalSpan.contains": "elim",
    "linalg.IncrementalSpan._reduce": "elim",
    "linalg.IncrementalSpan.basis_vectors": "elim",
    "linalg.Matrix.hstack": "stack", "linalg.Matrix.vstack": "stack",
    "linalg.kron": "kron",
    "linalg.Matrix.__mul__": "matmul",
}

# metric -> the Scalar methods whose calls it sums.  Every additive
# operation reaches __add__, __radd__ or __neg__: `a - b` is `a + (-b)`, so
# it counts one negation and one addition.
SCALAR_COUNTS = {
    "scalars.new": ("scalars.Scalar.__init__",),
    "scalars.mul": ("scalars.Scalar.__mul__", "scalars.Scalar.__rmul__"),
    "scalars.add": ("scalars.Scalar.__add__", "scalars.Scalar.__radd__",
                    "scalars.Scalar.__neg__"),
    "scalars.inv": ("scalars.Scalar.inv",),
}

INCLUSIVE = ("hopf.verify_hopf_axioms", "hopf.solve_ribbon",
             "repcat.simples_data", "repcat.generating_indices",
             "repcat.hom_basis", "coend.solve_structure_morphisms",
             "coend.dinaturality_certificate", "coend.verify_hopf_on_coend",
             "cardy.torus_partition", "cardy.defect_algebra")

REQUIRED = tuple(LINALG_FAMILIES) + \
    tuple(q for quals in SCALAR_COUNTS.values() for q in quals) + \
    INCLUSIVE + ("linalg._rref", "linalg.Matrix.__init__",
                 "diagrams.evaluate_applied", "cli.main")


class TracerError(RuntimeError):
    """The instrumentation does not match the program."""


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent or None, thread]
        self.counts = {}       # counted name -> [calls]
        # elimination: calls, cells, nnz, max_cells, pivots, rows entered
        self.elim = [0, 0, 0, 0, 0, 0]
        self.max_matrix_cells = [0]
        self.result_cells = {"stack": [0], "kron": [0]}
        self.ribbon_solutions = [0]
        self._local = threading.local()
        self._patches = []     # (owner, key, old value), in install order
        self._originals = {}   # id(original) -> original, kept alive
        self._wrapped = set()  # qualified names of every wrapper made

    # -- wrappers ----------------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name, fn, on_result=None):
        spans = self.spans
        clock = time.perf_counter
        get_stack = self._stack
        thread = threading.get_ident

        def wrapper(*args, **kwargs):
            stack = get_stack()
            rec = [name, clock(), 0.0, stack[-1] if stack else None, thread()]
            spans.append(rec)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result
        return _named(wrapper, fn)

    def _count(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return _named(wrapper, fn)

    def _rref(self, fn):
        e = self.elim

        def wrapper(rows, ncols, carry=None):
            cells = len(rows) * ncols
            nnz = sum(map(len, rows))
            pivots = fn(rows, ncols, carry)
            e[0] += 1
            e[1] += cells
            e[2] += nnz
            if cells > e[3]:
                e[3] = cells
            e[4] += len(pivots)
            e[5] += len(rows)
            return pivots
        return _named(wrapper, fn)

    def _reduce(self, fn):
        """IncrementalSpan._reduce as one elimination: the vector entered
        is a row reduced against the span's rows, and a nonzero remainder
        is a pivot found."""
        e = self.elim

        def wrapper(span, vec):
            held = span.rows.values()
            rows = len(held) + 1
            cells = rows * span.dim
            nnz = sum(map(len, held)) + sum(
                1 for x in vec.data if not x.is_zero())
            v = fn(span, vec)
            e[0] += 1
            e[1] += cells
            e[2] += nnz
            if cells > e[3]:
                e[3] = cells
            e[4] += 1 if v else 0
            e[5] += 1
            return v
        return _named(wrapper, fn)

    def _matrix_init(self, fn):
        top = self.max_matrix_cells

        def wrapper(self_, field, rows, cols, data):
            if rows * cols > top[0]:
                top[0] = rows * cols
            return fn(self_, field, rows, cols, data)
        return _named(wrapper, fn)

    def _make(self, qual, fn):
        self._wrapped.add(qual)
        if qual == "linalg._rref":
            return self._rref(fn)
        if qual == "linalg.Matrix.__init__":
            return self._matrix_init(fn)
        if qual == "linalg.IncrementalSpan._reduce":
            return self._span(qual, self._reduce(fn))
        if qual.startswith("scalars."):
            return self._count(qual, fn)
        family = LINALG_FAMILIES.get(qual)
        if family in self.result_cells:
            cell = self.result_cells[family]

            def add_cells(m):
                cell[0] += m.rows * m.cols
            return self._span(qual, fn, add_cells)
        if qual == "hopf.solve_ribbon":
            sol = self.ribbon_solutions

            def add_solutions(vs):
                sol[0] += len(vs)
            return self._span(qual, fn, add_solutions)
        return self._span(qual, fn)

    # -- installation ------------------------------------------------------
    def install(self):
        """Wrap the layers of the already imported `mtc` package."""
        if "mtc.cli" not in sys.modules:
            raise TracerError("import mtc.cli before installing the tracer")
        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = sys.modules["mtc." + layer]
            for key, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and (not key.startswith("_") or key == "_rref"):
                    qual = "%s.%s" % (layer, key)
                    wrappers[id(obj)] = self._make(qual, obj)
                    self._originals[id(obj)] = obj
            classes = SPAN_CLASSES.get(layer, ()) + COUNT_CLASSES.get(layer, ())
            for cname in classes:
                self._wrap_class(layer, getattr(mod, cname))
        for mod in _mtc_modules():
            for key, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._patch(mod, key, obj, w)
        self._check_complete()
        return self

    def _wrap_class(self, layer, cls):
        for key, raw in list(vars(cls).items()):
            if isinstance(raw, (staticmethod, classmethod)):
                fn = raw.__func__
            elif inspect.isfunction(raw):
                fn = raw
            else:
                continue
            qual = "%s.%s.%s" % (layer, cls.__name__, key)
            w = self._make(qual, fn)
            self._originals[id(fn)] = fn
            self._patch(cls, key, raw, type(raw)(w) if fn is not raw else w)

    def _patch(self, owner, key, old, new):
        setattr(owner, key, new)
        self._patches.append((owner, key, old))

    def _check_complete(self):
        missing = [q for q in REQUIRED if q not in self._wrapped]
        if missing:
            self.uninstall()
            raise TracerError("trace targets not found in mtc: %s"
                              % ", ".join(missing))
        left = sorted(self._unwrapped_bindings())
        if left:
            self.uninstall()
            raise TracerError("unwrapped bindings after install: %s"
                              % ", ".join(left))

    def _unwrapped_bindings(self):
        """Names through which an original is still reachable.  The
        originals are kept alive, so an id match is an identity match."""
        orig = self._originals
        for mod in _mtc_modules():
            for key, obj in vars(mod).items():
                if any(id(item) in orig for item in _bound_objects(obj)):
                    yield "%s.%s" % (mod.__name__, key)
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for ckey, raw in vars(obj).items():
                        if id(getattr(raw, "__func__", raw)) in orig:
                            yield "%s.%s.%s" % (mod.__name__, obj.__name__, ckey)

    def uninstall(self):
        while self._patches:
            owner, key, old = self._patches.pop()
            setattr(owner, key, old)

    # -- results -----------------------------------------------------------
    def counts_only(self):
        """Every count the trace made; two runs on one input must agree."""
        out = {name: cell[0] for name, cell in self.counts.items()}
        calls = {}
        for rec in self.spans:
            calls[rec[0]] = calls.get(rec[0], 0) + 1
        out.update(("calls:" + k, v) for k, v in calls.items())
        out["elim"] = list(self.elim)
        out["max_matrix_cells"] = self.max_matrix_cells[0]
        out.update(("cells:" + k, v[0]) for k, v in self.result_cells.items())
        out["ribbon_solutions"] = self.ribbon_solutions[0]
        return out

    def summary(self):
        """The per-layer metrics: name -> (value, unit)."""
        child = {}
        for rec in self.spans:
            p = rec[3]
            if p is not None:
                child[id(p)] = child.get(id(p), 0.0) + (rec[2] - rec[1])
        layer_self = {layer: 0.0 for layer in LAYERS}
        family_self = {"elim": 0.0, "stack": 0.0, "kron": 0.0, "matmul": 0.0}
        family_of = {}
        incl = {name: 0.0 for name in INCLUSIVE}
        calls = {}
        for rec in self.spans:
            name = rec[0]
            dur = rec[2] - rec[1]
            self_t = dur - child.get(id(rec), 0.0)
            layer = name.split(".", 1)[0]
            layer_self[layer] += self_t
            calls[name] = calls.get(name, 0) + 1
            parent = rec[3]
            if layer == "linalg":
                fam = LINALG_FAMILIES.get(name)
                if fam is None and parent is not None:
                    fam = family_of.get(id(parent))
                family_of[id(rec)] = fam
                if fam is not None:
                    family_self[fam] += self_t
            if name in incl and not _has_ancestor(rec, name):
                incl[name] += dur
        c = self.counts
        e = self.elim
        out = {}
        for metric, quals in SCALAR_COUNTS.items():
            out[metric] = (sum(c[q][0] for q in quals), "count")
        out.update({
            "linalg.elim.calls": (e[0], "count"),
            "linalg.elim.cells": (e[1], "cells"),
            "linalg.elim.nnz": (e[2], "entries"),
            "linalg.elim.max_cells": (e[3], "cells"),
            "linalg.elim.pivot_ratio": (e[4] / e[5] if e[5] else 0.0,
                                        "pivots/row"),
            "linalg.elim.self_s": (family_self["elim"], "s"),
            "linalg.stack.calls": (calls.get("linalg.Matrix.hstack", 0)
                                   + calls.get("linalg.Matrix.vstack", 0),
                                   "count"),
            "linalg.stack.cells": (self.result_cells["stack"][0], "cells"),
            "linalg.stack.self_s": (family_self["stack"], "s"),
            "linalg.kron.calls": (calls.get("linalg.kron", 0), "count"),
            "linalg.kron.cells": (self.result_cells["kron"][0], "cells"),
            "linalg.kron.self_s": (family_self["kron"], "s"),
            "linalg.matmul.calls": (calls.get("linalg.Matrix.__mul__", 0),
                                    "count"),
            "linalg.matmul.self_s": (family_self["matmul"], "s"),
            "linalg.matrix.max_cells": (self.max_matrix_cells[0], "cells"),
            "linalg.self_s": (layer_self["linalg"], "s"),
            "etale.calls": (sum(v for k, v in calls.items()
                                if k.startswith("etale.")), "count"),
            "etale.self_s": (layer_self["etale"], "s"),
            "hopf.verify_hopf_axioms.incl_s":
                (incl["hopf.verify_hopf_axioms"], "s"),
            "hopf.solve_ribbon.incl_s": (incl["hopf.solve_ribbon"], "s"),
            "hopf.solve_ribbon.solutions": (self.ribbon_solutions[0], "count"),
            "hopf.self_s": (layer_self["hopf"], "s"),
            "repcat.simples_data.incl_s": (incl["repcat.simples_data"], "s"),
            "repcat.generating_indices.incl_s":
                (incl["repcat.generating_indices"], "s"),
            "repcat.hom_basis.calls": (calls.get("repcat.hom_basis", 0),
                                       "count"),
            "repcat.hom_basis.incl_s": (incl["repcat.hom_basis"], "s"),
            "repcat.self_s": (layer_self["repcat"], "s"),
            "diagrams.evaluate_applied.calls":
                (calls.get("diagrams.evaluate_applied", 0), "count"),
            "diagrams.self_s": (layer_self["diagrams"], "s"),
            "coend.solve_structure_morphisms.incl_s":
                (incl["coend.solve_structure_morphisms"], "s"),
            "coend.dinaturality_certificate.incl_s":
                (incl["coend.dinaturality_certificate"], "s"),
            "coend.verify_hopf_on_coend.incl_s":
                (incl["coend.verify_hopf_on_coend"], "s"),
            "coend.self_s": (layer_self["coend"], "s"),
            "cardy.torus_partition.incl_s":
                (incl["cardy.torus_partition"], "s"),
            "cardy.defect_algebra.incl_s": (incl["cardy.defect_algebra"], "s"),
            "cardy.self_s": (layer_self["cardy"], "s"),
        })
        return out

    def write_spans(self, path):
        """Write the spans as {"names": [...], "spans": [[name index, start,
        end, parent index or -1, thread], ...]}, times in seconds."""
        names, index, rows = [], {}, []
        pos = {}
        for i, rec in enumerate(self.spans):
            pos[id(rec)] = i
            if rec[0] not in index:
                index[rec[0]] = len(names)
                names.append(rec[0])
            parent = rec[3]
            rows.append([index[rec[0]], round(rec[1], 7), round(rec[2], 7),
                         pos[id(parent)] if parent is not None else -1,
                         rec[4]])
        with open(path, "w") as fp:
            json.dump({"names": names, "spans": rows}, fp,
                      separators=(",", ":"))


def _named(wrapper, fn):
    wrapper.__name__ = fn.__name__
    wrapper.__qualname__ = fn.__qualname__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def _has_ancestor(rec, name):
    p = rec[3]
    while p is not None:
        if p[0] == name:
            return True
        p = p[3]
    return False


def _mtc_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "mtc" or n.startswith("mtc."))]


def _bound_objects(obj):
    """The object and, for a module-level container, its direct members."""
    yield obj
    if isinstance(obj, dict):
        yield from obj.values()
    elif isinstance(obj, (list, tuple, set, frozenset)):
        yield from obj
