"""In-memory span tracer for lomo's public functions.

A target such as ``data.read_sequence`` is wrapped at every module
attribute that binds the function object, because lomo's modules import
each other's functions by name (``lomo.cli.read_sequence`` and
``lomo.evaluation.score`` are the same objects as the originals).  Spans
(name, start, end, parent) are kept in flat arrays while traced code runs
and are summarised or written out afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time
from array import array

# Stats per span name.  Targets are "<module>.<function>" inside the lomo
# package; "cli.<command>" spans are recorded by the benchmark around each
# call of lomo.cli.main.  calls/busy_s/self_s are counts and seconds over a
# traced iteration; p50_us/p99_us are percentiles of single-call durations.
LAYER_STATS = {
    "training.train": ("busy_s",),
    "training.sgd_step": ("calls", "busy_s", "self_s", "p50_us", "update_ratio"),
    "inference.latent_assign": ("calls", "busy_s", "self_s", "p50_us", "p99_us"),
    "inference.score": ("calls", "busy_s", "p50_us"),
    "inference.fuse_scores": ("busy_s",),
    "model.rank_pattern": ("calls", "busy_s"),
    "model.perm_index": ("calls", "busy_s"),
    "model.load_model": ("busy_s",),
    "model.save_model": ("busy_s",),
    "data.parse_manifest": ("calls", "busy_s"),
    "data.read_sequence": ("calls", "busy_s", "p50_us"),
    "data.load_sequences": ("busy_s",),
    "data.pca_fit": ("calls", "busy_s"),
    "data.l2_normalize_frames": ("calls", "busy_s"),
    "data.fit_preprocess": ("busy_s",),
    "data.apply_preprocess": ("busy_s",),
    "data.pooled_sequence": ("busy_s",),
    "data.make_folds": ("busy_s",),
    "data.gen_synthetic": ("busy_s",),
    "data.write_sequence": ("busy_s",),
    "evaluation.run_cv": ("busy_s",),
    "evaluation.roc_eer_rate": ("busy_s",),
    "evaluation.roc_auc": ("busy_s",),
    "cli.train": ("busy_s", "self_s"),
    "cli.predict": ("busy_s", "self_s"),
    "cli.cv": ("busy_s", "self_s"),
}
OVERHEAD_METRIC = "trace.overhead_ratio"
TARGETS = tuple(name for name in LAYER_STATS if not name.startswith("cli."))
UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "p50_us": "us", "p99_us": "us",
         "update_ratio": "ratio"}


def layer_metric_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    names = [f"{span}.{stat}" for span, stats in LAYER_STATS.items() for stat in stats]
    return names + [OVERHEAD_METRIC]


def metric_unit(name: str) -> str:
    return "ratio" if name == OVERHEAD_METRIC else UNITS[name.rsplit(".", 1)[1]]


def _sgd_step_changed(args, kwargs, result) -> bool:
    # sgd_step returns its input model unchanged when the margin holds
    model = args[0] if args else kwargs.get("model")
    return result is not model


OBSERVERS = {"training.sgd_step": _sgd_step_changed}


class Tracer:
    """Records nested spans; wrappers are active only inside `installed()`."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.flagged = array("q")  # spans whose observer returned True
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.name)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        return idx

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around code that the benchmark itself runs."""
        idx = self._open(self._name_id(name))
        self.start[idx] = time.perf_counter_ns()
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, fn, name: str):
        name_id = self._name_id(name)
        observe = OBSERVERS.get(name)
        clock = time.perf_counter_ns
        open_span, stack, starts, ends = self._open, self._stack, self.start, self.end
        flagged = self.flagged

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_span(name_id)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None and observe(args, kwargs, result):
                flagged.append(idx)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target at each module attribute that binds it."""
        patches = []
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "lomo" or key.startswith("lomo."))]
        try:
            for target in TARGETS:
                module_name, func_name = target.rsplit(".", 1)
                try:
                    module = importlib.import_module(f"lomo.{module_name}")
                except ImportError:
                    continue
                original = getattr(module, func_name, None)
                if original is None:
                    continue  # function removed: its metrics read 0
                wrapper = self._wrap(original, target)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            patches.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(patches):
                setattr(mod, attr, original)

    @contextlib.contextmanager
    def recording(self, name: str):
        """Install the wrappers and open a span called `name` around the body."""
        with self.installed(), self.span(name):
            yield

    def summarize(self, ranges) -> dict[str, float]:
        """Per-layer metrics over the spans whose indices fall in `ranges`.

        busy_s counts a span only when no ancestor has the same name; self_s
        is a span's duration minus the durations of its direct children.
        """
        indices = [i for lo, hi in ranges for i in range(lo, hi)]
        flagged = {}
        for i in self.flagged:
            if any(lo <= i < hi for lo, hi in ranges):
                name = self.names[self.name[i]]
                flagged[name] = flagged.get(name, 0) + 1
        child_ns: dict[int, int] = {}
        for i in indices:
            p = self.parent[i]
            if p >= 0:
                child_ns[p] = child_ns.get(p, 0) + self.end[i] - self.start[i]
        per_name: dict[str, dict] = {}
        for i in indices:
            name = self.names[self.name[i]]
            agg = per_name.setdefault(name, {"calls": 0, "busy": 0, "self": 0, "durs": []})
            dur = self.end[i] - self.start[i]
            agg["calls"] += 1
            agg["self"] += dur - child_ns.get(i, 0)
            agg["durs"].append(dur)
            p = self.parent[i]
            while p >= 0 and self.name[p] != self.name[i]:
                p = self.parent[p]
            if p < 0:
                agg["busy"] += dur
        out: dict[str, float] = {}
        for span_name, stats in LAYER_STATS.items():
            agg = per_name.get(span_name, {"calls": 0, "busy": 0, "self": 0, "durs": []})
            durs = sorted(agg["durs"])
            for stat in stats:
                key = f"{span_name}.{stat}"
                if stat == "calls":
                    out[key] = agg["calls"]
                elif stat == "busy_s":
                    out[key] = agg["busy"] / 1e9
                elif stat == "self_s":
                    out[key] = agg["self"] / 1e9
                elif stat == "p50_us":
                    out[key] = statistics.median(durs) / 1e3 if durs else 0.0
                elif stat == "p99_us":
                    out[key] = durs[max(0, -(-99 * len(durs) // 100) - 1)] / 1e3 if durs else 0.0
                elif stat == "update_ratio":
                    out[key] = flagged.get(span_name, 0) / agg["calls"] if agg["calls"] else 0.0
        return out

    def write_csv(self, path) -> None:
        """All spans as id,parent,name,start_ns,end_ns (ids are row order)."""
        names = self.names
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            fh.writelines(
                f"{i},{p},{names[n]},{s},{e}\n"
                for i, (p, n, s, e) in enumerate(zip(self.parent, self.name, self.start, self.end))
            )
