"""Span tracing of qgharm from outside the package.

A Tracer wraps the public functions of the qgharm modules, and a few numpy
kernels, while it is installed. Every wrapped call records one span: name,
start, end, self time, parent span and job id. Self time is the span's
duration minus the durations of its direct children. Spans are kept in
compact arrays in memory and written out once, after the run.

The wrapper of a qgharm function is bound in every qgharm module namespace
that holds the function by name (``sharpness.lp_norm`` as well as
``lp.lp_norm``), so calls made through either name are seen. ``remove``
puts every original object back.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy

LAYERS = ("cli", "catalog", "core", "duality", "lp", "convolution",
          "structures", "sharpness", "suq2", "linalg")

# (owner module, attribute, span name); qgharm calls these as np.<attr>
# or np.linalg.<attr>, so binding the wrapper on the owner is enough.
NUMPY_KERNELS = (
    (numpy, "einsum", "numpy.einsum"),
    (numpy.linalg, "eigh", "numpy.linalg.eigh"),
    (numpy.linalg, "lstsq", "numpy.linalg.lstsq"),
    (numpy.linalg, "inv", "numpy.linalg.inv"),
    (numpy, "kron", "numpy.kron"),
)

# spans whose results' sizes are summed, in bytes computed from array sizes
COUNT_BYTES = ("numpy.kron",)


def public_functions(module) -> dict:
    """Public callables defined in ``module`` (classes excluded)."""
    return {attr: obj for attr, obj in vars(module).items()
            if not attr.startswith("_") and callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == module.__name__}


def qgharm_namespaces() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None
            and (name == "qgharm" or name.startswith("qgharm."))]


class Tracer:
    """Records spans of wrapped calls while installed.

    ``capture`` names spans whose return values are kept, with their job
    id, in ``returns``. ``job`` is the id stamped on spans that start now.
    """

    def __init__(self, capture=()):
        self.names: list = []
        self._ids: dict = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.jobs = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.selfs = array("d")
        self.returns: list = []
        self.bytes_out: dict = {}
        self.job = -1
        self._capture = frozenset(capture)
        self._stack: list = []
        self._bound: list = []

    def __len__(self) -> int:
        return len(self.name_ids)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        capture = name in self._capture
        count_bytes = name in COUNT_BYTES
        stack = self._stack
        clock = time.perf_counter
        name_ids, parents, jobs = self.name_ids, self.parents, self.jobs
        starts, ends, selfs = self.starts, self.ends, self.selfs

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            jobs.append(self.job)
            starts.append(0.0)
            ends.append(0.0)
            selfs.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                starts[index] = start
                ends[index] = end
                selfs[index] = duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if capture:
                self.returns.append((name, self.job, result))
            if count_bytes:
                self.bytes_out[name] = (self.bytes_out.get(name, 0)
                                        + int(getattr(result, "nbytes", 0)))
            return result

        return traced

    def install(self) -> None:
        if self._bound:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"qgharm.{layer}"]
            for attr, original in public_functions(module).items():
                wrappers[id(original)] = (
                    original, self._wrap(original, f"{layer}.{attr}"))
        for ns in qgharm_namespaces():
            for key, value in list(vars(ns).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bound.append((ns, key, value))
                    setattr(ns, key, hit[1])
        for owner, attr, name in NUMPY_KERNELS:
            original = getattr(owner, attr)
            self._bound.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def remove(self) -> None:
        while self._bound:
            ns, key, original = self._bound.pop()
            setattr(ns, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def aggregate(self, first: int = 0, last: int = None) -> dict:
        """{name: (calls, total_s, self_s)} over span ids [first, last)."""
        sl = slice(first, len(self) if last is None else last)
        ids = numpy.asarray(self.name_ids[sl], dtype=numpy.int64)
        dur = (numpy.asarray(self.ends[sl], dtype=float)
               - numpy.asarray(self.starts[sl], dtype=float))
        own = numpy.asarray(self.selfs[sl], dtype=float)
        size = len(self.names)
        calls = numpy.bincount(ids, minlength=size)
        total = numpy.bincount(ids, weights=dur, minlength=size)
        self_s = numpy.bincount(ids, weights=own, minlength=size)
        return {name: (int(calls[i]), float(total[i]), float(self_s[i]))
                for i, name in enumerate(self.names) if calls[i]}

    def calls_by_job(self, name: str, first: int = 0,
                     last: int = None) -> dict:
        """{job id: number of spans named ``name``} over [first, last)."""
        if name not in self._ids:
            return {}
        sl = slice(first, len(self) if last is None else last)
        ids = numpy.asarray(self.name_ids[sl])
        jobs = numpy.asarray(self.jobs[sl])[ids == self._ids[name]]
        values, counts = numpy.unique(jobs, return_counts=True)
        return {int(j): int(c) for j, c in zip(values, counts)}

    def save(self, path) -> None:
        """Write every span to a compressed .npz file."""
        numpy.savez_compressed(
            path, names=numpy.array(self.names),
            name_id=numpy.asarray(self.name_ids, dtype=numpy.int32),
            parent=numpy.asarray(self.parents, dtype=numpy.int32),
            job=numpy.asarray(self.jobs, dtype=numpy.int32),
            start=numpy.asarray(self.starts, dtype=float),
            end=numpy.asarray(self.ends, dtype=float),
            self_s=numpy.asarray(self.selfs, dtype=float))
