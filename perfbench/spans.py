"""Spans around the public functions of each kdvbbm layer, recorded from outside.

``Tracer.install`` replaces every public function of the layer modules under
every name it is bound to (a function imported into four modules is wrapped in
all four), wraps ``IFRK4Stepper.step`` on the class and the transforms of
``numpy.fft``.  Private helpers are never wrapped: their time is the self time
of the public span that calls them.  Spans are kept in memory and written out
once, when the op ends (``save``/``load``); ``summarize`` turns them into per-name and per-layer
totals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

COLUMNS = ("name_of", "start", "end", "parent", "raised")
LAYERS = ("cli", "dynamics", "analyticity", "estimates", "norms", "spectral", "fields", "params")
FFT_FUNCTIONS = (
    "fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
    "fftn", "ifftn", "rfftn", "irfftn", "hfft", "ihfft",
)


class Tracer:
    """In-memory span recorder for one op.

    Spans are stored column-wise (one list per field, indexed by span number,
    in start order) so that recording allocates no container per span.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []  # index of the enclosing span, -1 at the root
        self.raised: list[int] = []  # spans left by an exception
        self.labels: dict[int, list] = {}  # span index -> [campaign, n_trials] for run_trials
        self.fft_points = 0
        self.fft_bytes = 0
        self._stack: list[int] = []
        self._symbol_cache = None

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, raised: bool = False) -> None:
        self.end[idx] = time.perf_counter()
        if raised:
            self.raised.append(idx)
        self._stack.pop()

    def wrap(self, name: str, fn, label=None, count=None):
        """Return fn recording one span per call (per next() for generators).

        label(args, kwargs) tags the span; count(args, result) runs after a
        call that returned.
        """
        name_id = self._name_id(name)
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return self._traced_iter(name_id, fn(*args, **kwargs))

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name_id)
            if label is not None:
                self.labels[idx] = label(args, kwargs)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self._close(idx, True)
                raise
            self._close(idx)
            if count is not None:
                count(args, out)
            return out

        return wrapper

    def _traced_iter(self, name_id, inner):
        while True:
            idx = self._open(name_id)
            try:
                item = next(inner)
            except StopIteration:
                self._close(idx)
                return
            except Exception:
                self._close(idx, True)
                raise
            self._close(idx)
            yield item

    def _count_fft(self, args, out) -> None:
        # computed from array sizes: one read of the input, one write of the output
        a = args[0]
        self.fft_points += max(getattr(a, "size", 0), out.size)
        self.fft_bytes += getattr(a, "nbytes", 0) + out.nbytes

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every layer wherever they are bound."""
        import numpy.fft

        modules = {layer: importlib.import_module(f"kdvbbm.{layer}") for layer in LAYERS}
        layer_by_module = {mod.__name__: layer for layer, mod in modules.items()}
        namespaces = [importlib.import_module("kdvbbm"), *modules.values()]
        # read before wrapping: the wrapper hides the lru_cache statistics
        self._symbol_cache = getattr(modules["spectral"], "symbol_on_grid", None)
        wrapped: dict[int, object] = {}
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                layer = layer_by_module.get(getattr(obj, "__module__", None))
                name = getattr(obj, "__name__", "_")
                if layer is None or name.startswith("_"):
                    continue
                if id(obj) not in wrapped:
                    label = _trial_label(obj) if name == "run_trials" else None
                    wrapped[id(obj)] = self.wrap(f"{layer}.{name}", obj, label)
                setattr(ns, attr, wrapped[id(obj)])
        stepper = modules["dynamics"].IFRK4Stepper
        stepper.step = self.wrap("dynamics.step", stepper.step)
        for name in FFT_FUNCTIONS:
            fn = getattr(numpy.fft, name)
            setattr(numpy.fft, name, self.wrap(f"fft.{name}", fn, count=self._count_fft))

    def save(self, path: str) -> dict:
        """Write the span columns to path (.npz) and return the rest as JSON-ready data."""
        import numpy as np

        np.savez(
            path,
            name_of=np.asarray(self.name_of, dtype=np.int32),
            start=np.asarray(self.start, dtype=float),
            end=np.asarray(self.end, dtype=float),
            parent=np.asarray(self.parent, dtype=np.int64),
            raised=np.asarray(self.raised, dtype=np.int64),
        )
        hits = misses = 0
        if hasattr(self._symbol_cache, "cache_info"):
            info = self._symbol_cache.cache_info()
            hits, misses = info.hits, info.misses
        return {
            "names": self.names,
            "labels": {str(k): v for k, v in self.labels.items()},
            "fft_points": self.fft_points,
            "fft_bytes": self.fft_bytes,
            "symbol_cache": {"hits": hits, "misses": misses},
        }


def load(meta: dict, path: str) -> dict:
    """The trace written by Tracer.save, with the span columns as lists."""
    import numpy as np

    with np.load(path) as cols:
        return {**meta, **{key: cols[key].tolist() for key in COLUMNS}}


def _trial_label(fn):
    sig = inspect.signature(fn)

    def label(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return [bound.arguments["lemma_id"], bound.arguments["n_trials"]]

    return label


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(trace: dict) -> dict:
    """Per-name and per-layer totals of one op's spans.

    busy is the time covered by a name's (or layer's) outermost spans, so a
    span nested in another of the same name (or layer) is not counted twice;
    self is a span's duration minus the durations of its direct children.
    errors counts spans that raised into a caller of another layer, and
    callers counts a name's calls by the layer of the calling span.
    Spans are in start order and properly nested, so one pass that keeps the
    chain of open ancestors sees, for each span, which names and layers
    enclose it.
    """
    names, name_of, parent = trace["names"], trace["name_of"], trace["parent"]
    durations = [e - b for b, e in zip(trace["start"], trace["end"])]
    raised = set(trace["raised"])
    child = [0.0] * len(durations)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += durations[i]
    span_layer = [layer_of(names[k]) for k in name_of]

    by_name: dict[str, dict] = {}
    by_layer: dict[str, dict] = {}
    chain: list[int] = []
    open_names: dict[int, int] = {}
    open_layers: dict[str, int] = {}
    for i, (name_id, p, dur, layer) in enumerate(zip(name_of, parent, durations, span_layer)):
        while chain and chain[-1] != p:
            j = chain.pop()
            open_names[name_of[j]] -= 1
            open_layers[span_layer[j]] -= 1
        own = dur - child[i]
        f = by_name.setdefault(
            names[name_id],
            {"calls": 0, "busy": 0.0, "self": 0.0, "durations": [], "callers": {}},
        )
        f["calls"] += 1
        f["self"] += own
        f["durations"].append(dur)
        caller = span_layer[p] if p >= 0 else ""
        f["callers"][caller] = f["callers"].get(caller, 0) + 1
        if not open_names.get(name_id):
            f["busy"] += dur
        lay = by_layer.setdefault(layer, {"busy": 0.0, "self": 0.0, "errors": 0})
        lay["self"] += own
        if not open_layers.get(layer):
            lay["busy"] += dur
        if i in raised and (p < 0 or span_layer[p] != layer):
            lay["errors"] += 1
        chain.append(i)
        open_names[name_id] = open_names.get(name_id, 0) + 1
        open_layers[layer] = open_layers.get(layer, 0) + 1
    return {"by_name": by_name, "by_layer": by_layer}
