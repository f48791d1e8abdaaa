"""In-memory spans around the public calls of each robcls layer.

`install()` wraps each traced function at every name a caller looks it up
by: `from .simclass import decompose` binds a second name in `robcls.cli`,
so the wrapper replaces the function in every loaded `robcls.*` module whose
attribute is the original object. Methods and properties are wrapped on their
class. Only a traced run imports this module; an untraced run imports robcls
unpatched.

A span is `[name, start, end, parent, op]`. A layer's self time is its span
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[tuple, int] = {}
        self.op = -1  # -1 while setting up, then the index of the running operation

    def wrap(self, fn, name, tag=None):
        """Wrap `fn` in a span; `tag(args, kwargs)` adds a suffix to the name."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name if tag is None else f"{name}.{tag(args, kwargs)}", 0.0, 0.0,
                   tracer.stack[-1] if tracer.stack else -1, tracer.op]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tracer.stack.pop()

        return wrapper

    def count(self, fn, name):
        """Count calls without a span (for calls too small and many to time)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (name, tracer.op)
            tracer.counts[key] = tracer.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def self_times(self) -> dict:
        """{(op, name): [self seconds, calls, inclusive seconds]} over every recorded span."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, op in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[tuple, list] = {}
        for (name, t0, t1, parent, op), inner in zip(self.spans, child):
            acc = out.setdefault((op, name), [0.0, 0, 0.0])
            acc[0] += (t1 - t0) - inner
            acc[1] += 1
            acc[2] += t1 - t0
        for (name, op), calls in self.counts.items():
            out.setdefault((op, name), [0.0, 0, 0.0])[1] += calls
        return out


def _rebind(original, replacement):
    """Point every robcls module attribute bound to `original` at `replacement`."""
    for modname, mod in list(sys.modules.items()):
        if modname == "robcls" or modname.startswith("robcls."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def _dim_tag(args, kwargs):
    return f"n{args[0].n}"


def _table_tag(level):
    """Tag a table call `build.<level>.n<n>` the first time its key is seen, else `lookup`.

    The tables are unbounded lru caches that are empty when the tracer is
    installed, so the first call with a key is the one that builds it.
    """
    seen = set()

    def tag(args, kwargs):
        key = (args, tuple(sorted(kwargs.items())))
        if key in seen:
            return "lookup"
        seen.add(key)
        n = args[1] if len(args) > 1 else kwargs["n"]
        return f"build.{level}.n{n}"

    return tag


def _job_tag(args, kwargs):
    entry = args[0]
    params = kwargs.get("params") if "params" in kwargs else (args[1] if len(args) > 1 else None)
    return "-".join([entry.name, *(str(v) for v in (params or {}).values())])


def install() -> Tracer:
    """Wrap the traced calls of every robcls layer; returns the recorder."""
    import robcls.catalog as catalog
    import robcls.chart as chart
    import robcls.cli as cli
    import robcls.frames as frames
    import robcls.modules as modules
    import robcls.repdims as repdims
    import robcls.report as report
    import robcls.robclass as robclass
    import robcls.simclass as simclass

    tr = Tracer()
    for mod, attr, name, tag in (
        (simclass, "decompose", "simclass.decompose", None),
        (simclass, "weyl_type_at_frame", "simclass.weyl_type_at_frame", None),
        (simclass, "weyl_type_search", "simclass.weyl_type_search", None),
        (frames, "complete_null_frame", "frames.complete_null_frame", None),
        (robclass, "refined_flags", "robclass.refined_flags", None),
        (robclass, "aligned_residual", "robclass.predicates", None),
        (robclass, "special_residual", "robclass.predicates", None),
        (repdims, "all_dim_checks", "repdims.dim_checks", None),
        (repdims, "paper_arrow_delta", "repdims.arrow_delta", None),
        (catalog, "run_expectations", "catalog.run_expectations", _job_tag),
        (cli, "main", "cli.main", None),
    ):
        original = getattr(mod, attr)
        _rebind(original, tr.wrap(original, name, tag))
    original = simclass.wand_residual
    _rebind(original, tr.count(original, "simclass.wand_residual"))
    for level in ("sim", "rob"):
        original = getattr(modules, f"{level}_table")
        assert original.cache_info().currsize == 0, "tracer installed after a table was built"
        wrapper = tr.wrap(original, "modules.table", _table_tag(level))
        wrapper.cache_info, wrapper.cache_clear = original.cache_info, original.cache_clear
        _rebind(original, wrapper)

    CP = chart.ChartPoint
    for attr in ("riemann", "ricci", "weyl", "kretschmann"):
        prop = vars(CP)[attr]
        setattr(CP, attr, property(tr.wrap(prop.fget, "chart.curvature", _dim_tag)))
    CP.curvature_scale = tr.wrap(CP.curvature_scale, "chart.curvature", _dim_tag)
    CP.cotton_york = tr.wrap(CP.cotton_york, "chart.cotton")
    chart.MetricChart.evaluate = tr.wrap(chart.MetricChart.evaluate, "chart.evaluate")
    frames.NullFrame.to_frame = tr.wrap(frames.NullFrame.to_frame, "frames.to_frame")
    report.ClassificationReport.to_json = tr.wrap(report.ClassificationReport.to_json, "report.to_json")
    return tr
