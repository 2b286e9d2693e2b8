"""Span recorder for the traced run, and the per-layer metrics read from it.

`install` wraps every function the package exports (`conecurves.__all__`)
plus `cli.report_to_dict`, under every name a module of the package holds
it by (for example `components.e_intersection`), so calls between modules
are recorded too.  A span is a name, a start, an end, its parent span and,
for functions returning a list, the list's length.  Spans are kept in
flat arrays in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._code: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self._stack = [-1]

    def _open(self, name: str) -> int:
        code = self._code.setdefault(name, len(self._code))
        if code == len(self.names):
            self.names.append(name)
        i = len(self.start)
        self.name_of.append(code)
        self.parent.append(self._stack[-1])
        self.size.append(-1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(name)
            try:
                out = fn(*args, **kwargs)
                if type(out) is list:
                    self.size[i] = len(out)
                return out
            finally:
                self._close(i)

        return traced

    def dump(self, path) -> None:
        """Write the recorded spans as gzipped TSV: id, parent, name, start_us, end_us, size."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt") as f:
            f.write("id\tparent\tname\tstart_us\tend_us\tsize\n")
            for i in range(len(self.start)):
                f.write(
                    f"{i}\t{self.parent[i]}\t{self.names[self.name_of[i]]}\t"
                    f"{(self.start[i] - t0) * 1e6:.1f}\t{(self.end[i] - t0) * 1e6:.1f}\t{self.size[i]}\n"
                )


def install(tracer: Tracer, package):
    """Wrap the package's public functions everywhere they are bound; return an undo function."""
    cli = sys.modules[package.__name__ + ".cli"]
    originals = [getattr(package, n) for n in package.__all__] + [cli.report_to_dict]
    wrapped = {
        fn: tracer.wrap(f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}", fn)
        for fn in originals
        if inspect.isfunction(fn)
    }
    modules = [m for name, m in sys.modules.items() if name == package.__name__ or name.startswith(package.__name__ + ".")]
    saved = []
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in wrapped:
                saved.append((mod, attr, val))
                setattr(mod, attr, wrapped[val])

    def undo() -> None:
        for mod, attr, val in saved:
            setattr(mod, attr, val)

    return undo


def layer_metrics(tr: Tracer, components_classified: int) -> dict[str, float]:
    """Per-layer figures of one traced round (passes recorded as `pass.<name>` spans)."""
    n = len(tr.start)
    names = [tr.names[c] for c in tr.name_of]
    dur = [tr.end[i] - tr.start[i] for i in range(n)]
    child = [0.0] * n
    pass_of: list[str | None] = [None] * n
    for i in range(n):
        p = tr.parent[i]
        if p >= 0:
            child[p] += dur[i]
        if names[i].startswith("pass."):
            pass_of[i] = names[i]
        elif p >= 0:
            pass_of[i] = pass_of[p]
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i in range(n):
        total[names[i]] = total.get(names[i], 0.0) + dur[i]
        calls[names[i]] = calls.get(names[i], 0) + 1
    in_classify = [i for i in range(n) if pass_of[i] == "pass.classify"]
    geo = [i for i in in_classify if names[i].startswith("conegeom.")]
    ne_in_classify = sum(dur[i] for i in in_classify if names[i] == "components.ne")
    ne_spans = [i for i in range(n) if names[i] == "components.ne"]
    ne_classes = sum(tr.size[i] for i in ne_spans)
    comps = max(components_classified, 1)
    ms = lambda s: s * 1e3  # noqa: E731
    return {
        "rootsys.build_ms": ms(total.get("rootsys.build_root_system", 0.0)),
        "rootsys.build_calls": calls.get("rootsys.build_root_system", 0),
        "parabolic.build_ms": ms(total.get("parabolic.build_parabolic", 0.0)),
        "parabolic.build_calls": calls.get("parabolic.build_parabolic", 0),
        "conegeom.build_cone_ms": ms(total.get("conegeom.build_cone", 0.0)),
        "conegeom.calls": len(geo),
        "conegeom.calls_per_component": len(geo) / comps,
        "conegeom.self_ms": ms(sum(dur[i] - child[i] for i in geo)),
        "components.ne_ms": ms(total.get("components.ne", 0.0)),
        "components.ne_calls": len(ne_spans),
        "components.ne_empty_calls": sum(1 for i in ne_spans if tr.size[i] == 0),
        "components.ne_classes": ne_classes,
        "components.ne_us_per_class": total.get("components.ne", 0.0) * 1e6 / max(ne_classes, 1),
        "components.classify_self_ms": ms(sum(dur[i] - child[i] for i in in_classify if names[i] == "components.classify")),
        "components.lift_us_per_component": (total.get("components.classify", 0.0) - ne_in_classify) * 1e6 / comps,
        "components.count_ms": ms(total.get("components.count_components", 0.0)),
        "affine.compare_ms": ms(total.get("affine.compare_ne_ir", 0.0)),
    }
