"""Span tracing of the addcomb layers from outside the library.

``Tracer.install`` replaces every public function of each layer module (the
names in its ``__all__``) by a wrapper, wherever an addcomb module holds a
reference to it: ``addcomb.suite.covering_certificate`` and
``addcomb.covering.covering_certificate`` both get the wrapper, so calls
between modules and inside one module are seen alike.  ``uninstall`` puts the
originals back.  The library source is not edited.

Each call becomes a span (id, parent id, name, start, end, error) kept in
memory.  Self time is a span's duration minus the durations of its child
spans; nothing runs concurrently, so there is no wait time.  Work counts are
read from call arguments and results by the ``COUNTERS`` hooks; a count
marked "computed" is derived from the arguments and result by the formula
given, not recorded by the program.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

LAYERS = ("groups", "covering", "fourier", "rectify", "torsion", "bounds", "instances", "suite", "primes", "serialize")


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _greedy_scanned(a, k, res):
    # computed: every round scans all candidates; |T| rounds pick, one more stops
    return {"candidates_scanned": len(_arg(a, k, 1, "candidates")) * (len(res) + 1)}


def _lev_window_ops(a, k, res):
    # computed: the circular window count is an N x (l+1) convolution
    if not res.hypothesis_met:
        return {"window_ops": 0}
    return {"window_ops": _arg(a, k, 0, "B").group.modulus * (res.length + 1)}


def _spectrum_points(a, k, res):
    # computed: an FFT over the whole group
    if _arg(a, k, 1, "method", "fft") != "fft":
        return {"fft_points": 0}
    return {"fft_points": res.order}


# name -> hook(args, kwargs, result) -> {count name: value}
COUNTERS = {
    "groups.sumset": lambda a, k, r: {"pairs": len(a[0]) * len(a[1])},  # computed: |A|*|B|
    "covering.pluennecke_witness": lambda a, k, r: {"subsets_searched": r.subsets_searched},
    "covering.greedy_translates": _greedy_scanned,
    "covering.covering_certificate": lambda a, k, r: {"witness_fallbacks": int(not r.witness_is_optimal)},
    "fourier.spectrum": _spectrum_points,
    "fourier.character_sum": lambda a, k, r: {"terms": len(a[0])},  # computed: |B|
    "fourier.convolution_counts": lambda a, k, r: {"roll_ops": _arg(a, k, 1, "m") * len(a[0])},  # computed: m*|B|
    "rectify.diam_from_spectrum": lambda a, k, r: {"hypothesis_met": int(r.hypothesis_met)},
    "rectify.lev_interval": _lev_window_ops,
    "rectify.diameter": lambda a, k, r: {"units_searched": r.units_searched},
    "rectify.rectify": lambda a, k, r: {
        "over_budget": int(r.witness is not None and r.witness.verified is None)
    },
    "rectify.freiman_iso_check": lambda a, k, r: {"tuples_compared": r.tuples_compared},
    "torsion.subgroup_generated": lambda a, k, r: {"closure_size": len(r)},
}


class _Stats:
    __slots__ = ("calls", "errors", "total_s", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.errors = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counts: dict = {}


class Tracer:
    """Records spans of the wrapped addcomb functions while installed."""

    def __init__(self):
        self.spans: list = []          # (id, parent id or 0, name, start, end, error)
        self.stats: dict = {}          # name -> _Stats
        self._stack: list = []         # [span id, child time]
        self._next_id = 1
        self._patched: list = []       # (module, attribute, original)

    # ------------------------------------------------------------ wrapping

    def _enter(self):
        parent = self._stack[-1][0] if self._stack else 0
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return parent, frame

    def _exit(self, name, parent, frame, start, error):
        end = time.perf_counter()
        self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][1] += dur
        st = self.stats[name]
        st.total_s += dur
        st.self_s += dur - frame[1]
        if error:
            st.errors += 1
        self.spans.append((frame[0], parent, name, start, end, error))

    def _count(self, name, hook, args, kwargs, result):
        counts = self.stats[name].counts
        for key, value in hook(args, kwargs, result).items():
            counts[key] = counts.get(key, 0) + value

    def _wrap(self, name, fn):
        hook = COUNTERS.get(name)
        self.stats.setdefault(name, _Stats())
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # each resumption of the generator is one span of the same name
            def gen_wrapper(*args, **kwargs):
                tracer.stats[name].calls += 1
                it = fn(*args, **kwargs)
                while True:
                    parent, frame = tracer._enter()
                    start = time.perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._exit(name, parent, frame, start, False)
                        return
                    except BaseException:
                        tracer._exit(name, parent, frame, start, True)
                        raise
                    tracer._exit(name, parent, frame, start, False)
                    yield item

            return gen_wrapper

        def wrapper(*args, **kwargs):
            tracer.stats[name].calls += 1
            parent, frame = tracer._enter()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(name, parent, frame, start, True)
                raise
            tracer._exit(name, parent, frame, start, False)
            if hook is not None:
                tracer._count(name, hook, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every layer in every addcomb module.

        Counts and spans accumulate over successive install/uninstall rounds.
        """
        if self._patched:
            raise RuntimeError("tracer already installed")
        holders = [m for n, m in sys.modules.items() if n == "addcomb" or n.startswith("addcomb.")]
        for layer in LAYERS:
            mod = sys.modules[f"addcomb.{layer}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, wrapped)
                            self._patched.append((holder, key, fn))

    def uninstall(self) -> None:
        for holder, key, fn in reversed(self._patched):
            setattr(holder, key, fn)
        self._patched.clear()

    # ------------------------------------------------------------ reports

    def layer_metrics(self) -> dict:
        """Flat metrics: <module>.self_s, <module>.errors, <module>.<function>.<metric>."""
        out: dict = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.errors"] = 0
        for name, st in self.stats.items():
            layer = name.split(".", 1)[0]
            out[f"{layer}.self_s"] += st.self_s
            out[f"{layer}.errors"] += st.errors
            out[f"{name}.calls"] = st.calls
            out[f"{name}.errors"] = st.errors
            out[f"{name}.self_s"] = st.self_s
            out[f"{name}.total_s"] = st.total_s
            for key, value in st.counts.items():
                out[f"{name}.{key}"] = value
        return out

    def write(self, path: str, header: dict) -> None:
        """JSON lines: one header object, then [id, parent id, name, start, end, error] per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "span_fields": ["id", "parent", "name", "start", "end", "error"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
