"""Span tracer of the traced benchmark run.

The tracer wraps functions at module-attribute level: it replaces every
module-namespace reference to a wrapped function, so calls between
functions of one module (resolved through the module's globals) are
caught as well as calls from other modules.  qfcool itself is not
changed.  Spans (name, start, end, parent, op) are kept in flat arrays
in memory and written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from array import array

# qfcool modules whose public functions are traced.
LAYER_MODULES = ("densmat", "protocol", "thermo", "correlations", "sweep", "verify", "cli")


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        self.current_op = -1
        self.enabled = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        # Process-pool workers forked from a traced process must not trace:
        # their spans could never be collected.
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, on_result=None):
        """Return ``fn`` wrapped so that each call records a span called ``name``."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.end.append(0.0)
            stack.append(index)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return functools.update_wrapper(traced, fn)

    def attach(self, package: str, modules, kernels) -> None:
        """Prepare wrappers for the public functions of ``modules`` and for ``kernels``.

        ``kernels`` holds ``(owner_module, attribute, span_name, on_result)``
        entries.  Every reference to a wrapped function found in the
        namespace of ``package``, its submodules or a kernel owner is
        patched by ``start_tracing`` and restored by ``stop_tracing``.
        """
        wrappers = {}
        for module in modules:
            short = module.__name__.rpartition(".")[2]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrappers[id(obj)] = (obj, self.wrap(f"{short}.{name}", obj))
        owners = []
        for owner, attribute, span, on_result in kernels:
            obj = getattr(owner, attribute)
            wrappers[id(obj)] = (obj, self.wrap(span, obj, on_result))
            owners.append(owner)
        namespaces = [m for n, m in sys.modules.items()
                      if n == package or n.startswith(package + ".")] + owners
        seen = set()
        for namespace in namespaces:
            if id(namespace) in seen:
                continue
            seen.add(id(namespace))
            for name, value in vars(namespace).items():
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((namespace, name, value, entry[1]))

    def start_tracing(self) -> None:
        for namespace, name, _, wrapper in self._patches:
            setattr(namespace, name, wrapper)
        self.enabled = True

    def stop_tracing(self) -> None:
        self.enabled = False
        for namespace, name, original, _ in self._patches:
            setattr(namespace, name, original)

    def summary(self) -> dict:
        """Calls and self seconds per span name, plus the counters."""
        return {"spans": summarize(self.names, self.name_id, self.start, self.end, self.parent),
                "counters": dict(self.counters)}

    def write(self, path) -> None:
        write_spans(path, self.names, self.name_id, self.start, self.end, self.parent, self.op)


def attach_qfcool(tracer: Tracer) -> None:
    """Wrap qfcool's layer modules and the numpy/scipy kernels they call."""
    import importlib

    import numpy
    import scipy.optimize

    def add_nfev(result) -> None:
        tracer.count("kernel.minimize.nfev", int(result.nfev))

    modules = [importlib.import_module(f"qfcool.{name}") for name in LAYER_MODULES]
    kernels = [
        (numpy, "kron", "kernel.kron", None),
        (numpy.linalg, "eigvalsh", "kernel.eigvalsh", None),
        (numpy.linalg, "eigh", "kernel.eigh", None),
        (scipy.optimize, "minimize", "kernel.minimize", add_nfev),
    ]
    tracer.attach("qfcool", modules, kernels)


def self_times(start, end, parent) -> array:
    """Each span's duration minus the part of it that its child spans cover.

    Children may overlap each other or stick out of their parent; only
    the union of their intervals, clipped to the parent, is subtracted.
    Visiting spans in start order visits each parent's children in start
    order, so one running ``reach`` per parent merges the union.
    """
    n = len(start)
    if all(start[i] <= start[i + 1] for i in range(n - 1)):
        order = range(n)  # spans recorded by a Tracer are already in start order
    else:
        order = sorted(range(n), key=start.__getitem__)
    covered = array("d", bytes(8 * n))
    reach = array("d", start)
    for i in order:
        p = parent[i]
        if p < 0:
            continue
        lo, hi = max(start[i], reach[p]), min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return array("d", (end[i] - start[i] - covered[i] for i in range(n)))


def summarize(names, name_id, start, end, parent) -> dict[str, dict]:
    totals: dict[str, dict] = {}
    for i, self_s in enumerate(self_times(start, end, parent)):
        entry = totals.setdefault(names[name_id[i]], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += self_s
        entry["total_s"] += end[i] - start[i]
    return totals


def merge_summaries(summaries) -> dict:
    merged = {"spans": {}, "counters": {}}
    for summary in summaries:
        for name, entry in summary["spans"].items():
            into = merged["spans"].setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for key in into:
                into[key] += entry[key]
        for name, value in summary["counters"].items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
    return merged


_SPAN_ARRAYS = (("name", "i"), ("start", "d"), ("end", "d"), ("parent", "i"), ("op", "i"))


def write_spans(path, names, *columns) -> None:
    """Write a span table: one JSON header line, then each column's raw bytes.

    The columns are ``name`` (index into ``names``), ``start`` and ``end``
    (perf_counter seconds), ``parent`` (row index, -1 for a root) and ``op``
    (index of the benchmark op the span belongs to), in that order.
    """
    header = {"names": list(names), "rows": len(columns[0]),
              "columns": [[field, code] for field, code in _SPAN_ARRAYS]}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        for column in columns:
            column.tofile(fh)


def read_spans(path) -> tuple[list[str], dict[str, array]]:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = {}
        for field, code in header["columns"]:
            columns[field] = array(code)
            columns[field].fromfile(fh, header["rows"])
    return header["names"], columns


def merge_span_files(path, parts) -> None:
    """Concatenate span files of single ops, given as ``(op, file)`` pairs, into one."""
    names, ids = [], {}
    merged = {field: array(code) for field, code in _SPAN_ARRAYS}
    for op, part in parts:
        part_names, columns = read_spans(part)
        offset = len(merged["start"])
        for nid in columns["name"]:
            name = part_names[nid]
            if name not in ids:
                ids[name] = len(names)
                names.append(name)
            merged["name"].append(ids[name])
        merged["start"].extend(columns["start"])
        merged["end"].extend(columns["end"])
        merged["parent"].extend(p + offset if p >= 0 else -1 for p in columns["parent"])
        merged["op"].extend(op for _ in columns["op"])
    write_spans(path, names, *(merged[field] for field, _ in _SPAN_ARRAYS))


def parse_importtime(text: str, packages) -> dict[str, float]:
    """Cumulative seconds per top-level package from ``-X importtime`` output.

    A package's time is the sum of the cumulative times of its outermost
    entries, those with no ancestor entry of the same package, so nested
    submodule imports are not counted twice.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        raw = fields[2].rstrip()
        depth = (len(raw) - len(raw.lstrip(" ")) - 1) // 2
        entries.append((depth, raw.strip(), int(fields[1])))
    totals = {p: 0.0 for p in packages}
    ancestors: list[tuple[int, str]] = []
    # The output is post-order (children first); reversed, every entry
    # follows its ancestors, which a depth stack then tracks.
    for depth, name, cumulative_us in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        top = name.split(".")[0]
        if top in totals and all(a[1] != top for a in ancestors):
            totals[top] += cumulative_us * 1e-6
        ancestors.append((depth, top))
    return totals
