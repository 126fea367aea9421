"""Outside-in tracing of the package's layers.

``install`` replaces public functions and methods of ``oddplanar`` modules
with wrappers that record spans (name, start, end, parent span, job id)
in memory.  A function imported by name into another module is replaced
there too.  Nothing under ``src/`` changes.  ``Recorder.summary`` reduces
the spans at the end of a pass: calls and self time per layer function,
where self time is a span's duration minus the time its child spans
cover.
"""
from __future__ import annotations

import sys
import threading
from collections import Counter
from time import perf_counter

# Layer module -> functions or "Class.method" names recorded as spans.
SPANNED = {
    "redraw": ("theorem2_transform", "interleaving_parity", "lemma1_redraw",
               "contract_even_edge", "split_vertex", "max_even_forest"),
    "drawing": ("merge_disjoint", "Drawing.from_routes", "Drawing.validate",
                "Drawing.parity_sketch", "Drawing.remove_edges", "Drawing.faces",
                "Drawing.map_components", "Drawing.induced_subdrawing",
                "Drawing.odd_pairs", "Drawing.is_k_odd_plane", "Drawing.crossing_stats"),
    "oracle": ("exact_crossing_value", "extremal_search"),
    "surgery": ("greedy_embed", "insert_edge_shortest", "double_crossing_move"),
    "bounds": ("sampling_experiment", "audit_drawing"),
    "svg": ("render_svg",),
    "docio": ("parse_drawing", "drawing_to_doc", "to_jsonable", "canonical_json"),
}
# Hot helpers that are only counted, since a span per call would dominate.
COUNTED = {"graphs": ("Multigraph.endpoints",)}


def span_name(module: str, attr: str) -> str:
    """``drawing.from_routes`` for Drawing methods, ``module.fn`` otherwise."""
    return f"{module}.{attr.split('.', 1)[1]}" if attr.startswith("Drawing.") else f"{module}.{attr}"


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent record or None, job id]
        self.counts: Counter = Counter()
        self.job: str | None = None
        self.names: list[str] = []  # every wrapped function, called or not
        self._main = threading.get_ident()
        self._main_stack: list[list] = []
        self._local = threading.local()

    def _stack(self) -> list[list]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            # A worker thread's outermost span hangs under the main thread's
            # open span (the oracle's thread pool runs inside its caller).
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            rec = [name, 0.0, 0.0, parent, self.job]
            self.spans.append(rec)
            stack.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self) -> dict:
        """Calls per wrapped function, self seconds per spanned one, and
        the oracle's microseconds per ``from_routes`` build beneath it."""
        children: dict[int, list[list]] = {}
        for rec in self.spans:
            if rec[3] is not None:
                children.setdefault(id(rec[3]), []).append(rec)
        calls: Counter = Counter(dict.fromkeys(self.names, 0))
        self_s: Counter = Counter(dict.fromkeys(self.names, 0.0))
        for rec in self.spans:
            name, start, end = rec[0], rec[1], rec[2]
            covered = 0.0
            reach = start
            for _, cs, ce, _, _ in sorted(children.get(id(rec), ()), key=lambda c: c[1]):
                cs, ce = max(cs, reach), min(ce, end)
                if ce > cs:
                    covered += ce - cs
                    reach = ce
            calls[name] += 1
            self_s[name] += (end - start) - covered
        oracle_s = sum(r[2] - r[1] for r in self.spans if r[0] == "oracle.exact_crossing_value")
        builds = 0
        for rec in self.spans:
            if rec[0] == "drawing.from_routes":
                p = rec[3]
                while p is not None and p[0] != "oracle.exact_crossing_value":
                    p = p[3]
                builds += p is not None
        calls.update(self.counts)
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "us_per_build": oracle_s * 1e6 / builds if builds else 0.0,
        }


def install() -> Recorder:
    """Wrap every layer function named above and return the recorder."""
    rec = Recorder()
    modules = [m for name, m in sys.modules.items() if name == "oddplanar" or name.startswith("oddplanar.")]
    for table, make in ((SPANNED, rec.spanned), (COUNTED, rec.counted)):
        for module, attrs in table.items():
            mod = sys.modules[f"oddplanar.{module}"]
            for attr in attrs:
                name = span_name(module, attr) if table is SPANNED else f"{module}.{attr}"
                rec.names.append(name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(make(name, raw.__func__)))
                    else:
                        setattr(cls, meth, make(name, raw))
                    continue
                orig = getattr(mod, attr)
                wrapped = make(name, orig)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, key, wrapped)
    return rec
