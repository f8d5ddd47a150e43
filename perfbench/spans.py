"""Layer spans and counts, recorded from outside the program.

The tracer replaces the public functions of every ``arcforms`` module by
wrappers, at every binding of the function object: the defining module,
each module that imported it by name (``g_value`` in ``tensorform`` and
``sbbt``, for example) and the package namespace.  ``restore`` puts the
originals back.

Most wrappers record a span (name, parent span, start, end) in memory and
count the call.  Hot leaf functions only count their calls: timing them
would cost more than the work they do, so their time stays in the self
time of the span that called them.  Generator functions are counted too,
as their work happens after they return.

Field arithmetic runs millions of times a pass; counting it triples the
cost of a pass.  So it is counted in a pass of its own
(``install(package, field_ops=True)``) and the span times come from a
pass without those counters.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter

MODULES = (
    "field", "linalg", "forms", "geometry", "tangents", "tensorform", "sbbt",
    "report", "cli",
)

# Field arithmetic, wrapped on the GF class; counted only.
FIELD_OPS = ("add", "sub", "neg", "mul", "inv", "pow")

# Methods that carry their own layer time.
METHODS = (("tensorform", "MultiForm", "to_json"),)

# Public functions called so often that a span would dwarf them.
COUNT_ONLY = {
    "linalg.dot",
    "forms.monomial_vector",
    "forms.veronese",
    "forms.form_add",
    "forms.form_sub",
    "forms.form_scale",
    "forms.form_mul",
    "forms.linear_form",
    "forms.zero_form",
    "forms.num_monomials",
    "forms.product_linear_forms",
    "forms.form_to_json",
    "forms.form_from_json",
    "geometry.normalize",
    "tangents.perm_parity",
    "tangents.g_value",
    "tangents.scaling_rule",
    "sbbt.det_minor",
    "sbbt.minor_vector",
    "sbbt.evaluate_G",
    "sbbt.appended_det_form",
    "sbbt.covector_to_dual_point",
}


def _observe(name, args, counts):
    """Extra work counts taken from the arguments of a call."""
    if name == "linalg.det":
        n = len(args[1])
        counts[f"linalg.det.calls.{n}x{n}"] += 1
    elif name == "linalg.rref":
        rows = args[1]
        counts["linalg.rref.cells"] += len(rows) * len(rows[0]) if rows else 0


class Tracer:
    def __init__(self):
        self.counts = Counter()
        self.spans = []  # (name, parent index or -1, start, end)
        self._stack = []
        self._saved = []  # (owner, attribute, original)

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, fn, name):
        counts, spans, stack = self.counts, self.spans, self._stack
        clock = time.perf_counter
        observe = name in ("linalg.det", "linalg.rref")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if observe:
                _observe(name, args, counts)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, parent, start, end)

        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, fn, name):
        if name in COUNT_ONLY or inspect.isgeneratorfunction(fn):
            return self._count_wrapper(fn, name)
        return self._span_wrapper(fn, name)

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- install / restore --------------------------------------------------

    def install(self, package, field_ops: bool = False) -> None:
        """Wrap the public functions of every module of ``package``, or
        with ``field_ops`` only count the field arithmetic."""
        modules = {m: getattr(package, m) for m in MODULES}
        if field_ops:
            gf_cls = modules["field"].GF
            for op in FIELD_OPS:
                self._set(gf_cls, op, self._count_wrapper(getattr(gf_cls, op), f"field.{op}"))
            return
        namespaces = list(modules.values()) + [package]
        replace = {}  # id(original) -> wrapper
        for short, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                # The CLI layer is one span: handlers and helpers count as
                # its self time.
                if short == "cli" and attr != "main":
                    continue
                replace[id(fn)] = (fn, self._wrap(fn, f"{short}.{attr}"))
        # Patch every binding of each wrapped function object.
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(ns, attr, hit[1])
        for short, cls_name, meth in METHODS:
            cls = getattr(modules[short], cls_name)
            name = f"{short}.{cls_name}.{meth}"
            self._set(cls, meth, self._span_wrapper(getattr(cls, meth), name))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results ------------------------------------------------------------

    def times(self):
        """(inclusive, self) seconds per span name.

        A span nested inside a span of the same name adds nothing to the
        inclusive total, so recursion is not counted twice.  Self time is
        a span's duration minus the durations of its direct children.
        """
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive, self_time = Counter(), Counter()
        for idx, (name, parent, start, end) in enumerate(self.spans):
            self_time[name] += end - start - child[idx]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][1]
            if p < 0:
                inclusive[name] += end - start
        return inclusive, self_time

    def write_spans(self, path: str) -> None:
        """One JSON object per line: id, parent, name, start, end (s)."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "parent": parent, "name": name,
                    "start": round(start - t0, 9), "end": round(end - t0, 9),
                }) + "\n")
