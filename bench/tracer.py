"""Span tracer that wraps the public functions of ``stoloc`` from outside.

Every public function defined in one of the layer modules is replaced by
a wrapper under each name that refers to it, in every loaded ``stoloc``
module (``denoise`` is bound as ``stoloc.priors.denoise``,
``stoloc.amp.denoise`` and ``stoloc.denoise``). A wrapper records a span
``(name, parent, start, end)`` in memory; self time is a span's duration
minus the durations of its child spans (calls are nested and
single-threaded). Spans are written out by :meth:`Tracer.write` once the
traced work is over.
"""

import functools
import importlib
import sys
import time
import types

LAYERS = ("sampler", "amp", "priors", "se", "tap", "oracle", "model", "cli")


def _denoise_elements(args, kwargs):
    z = args[1] if len(args) > 1 else kwargs["z"]
    return int(getattr(z, "size", 1))


def _drift_columns(args, kwargs):
    y = args[0] if args else kwargs["y"]
    return int(y.shape[1]) if getattr(y, "ndim", 1) == 2 else 1


# work counted per call, beside the call count
WORK = {"priors.denoise": _denoise_elements,
        "oracle.drift": _drift_columns}


class Tracer:
    def __init__(self):
        self.spans = []         # [name, parent index, start, end]
        self.stats = {}         # name -> [calls, self seconds, work]
        self._open = []         # indices of open spans
        self._child = []        # child seconds of each open span
        self._restore = []

    def install(self, package="stoloc"):
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            for name, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrapped[obj] = self.wrap(f"{layer}.{name}", obj)
        build = sys.modules[f"{package}.oracle"].exact_drift_oracle
        wrapped[build] = self._trace_returned_drift(wrapped[build])
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])
                    self._restore.append((mod, name, obj))

    def uninstall(self):
        for mod, name, obj in reversed(self._restore):
            setattr(mod, name, obj)
        self._restore.clear()

    def wrap(self, name, fn):
        work = WORK.get(name)
        spans, opened, child, stats = (self.spans, self._open, self._child,
                                       self.stats)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = stats.get(name)
            if st is None:
                st = stats[name] = [0, 0.0, 0]
            st[0] += 1
            if work is not None:
                st[2] += work(args, kwargs)
            span = [name, opened[-1] if opened else -1, clock(), 0.0]
            opened.append(len(spans))
            spans.append(span)
            child.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = end = clock()
                opened.pop()
                dur = end - span[2]
                st[1] += dur - child.pop()
                if child:
                    child[-1] += dur

        return traced

    def _trace_returned_drift(self, traced_build):
        """``exact_drift_oracle`` returns a closure: trace it as
        ``oracle.drift``."""

        @functools.wraps(traced_build)
        def build(*args, **kwargs):
            return self.wrap("oracle.drift", traced_build(*args, **kwargs))

        return build

    def layer_stats(self):
        """``{name: {"calls", "self_s", "work"}}`` over all spans so far."""
        return {name: {"calls": c, "self_s": s, "work": w}
                for name, (c, s, w) in self.stats.items()}

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            t0 = self.spans[0][2] if self.spans else 0.0
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start - t0:.9f},"
                         f"{end - t0:.9f}\n")
