"""In-memory spans around calls into majorep's layers, recorded from outside.

``Tracer.install()`` swaps module-level names for timing wrappers in the
namespace where each caller looks the name up, so the package source is never
touched.  Every span carries the operation that caused it and its parent span,
and spans stay in memory until ``Tracer.write`` saves them when the run ends.
"""

from __future__ import annotations

import gzip
import time
from dataclasses import dataclass

# layer of each wrapped name; scipy.optimize.minimize belongs to its caller
LAYER_OF = {
    "majorana_points": "stellar",
    "state_from_constellation": "stellar",
    "classify": "slocc",
    "apply_ilo": "slocc",
    "geometric_measure": "geomeasure",
    "overlap_landscape": "geomeasure",
    "reconstruct_from_two_marginals": "marginals",
    "to_computational": "marginals",
    "eigenpairs": "states",
}
LAYERS = ("states", "stellar", "slocc", "marginals", "geomeasure")


@dataclass(slots=True)
class Span:
    sid: int
    parent: int
    op: int
    name: str
    layer: str
    t0: float
    t1: float = 0.0
    size: int = 0  # grid points for overlap_landscape; 0 elsewhere


class Tracer:
    """Span recorder.  ``op`` is the id of the operation in flight (-1: none)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------
    def begin(self, name: str, layer: str, size: int = 0) -> Span:
        parent = self.stack[-1].sid if self.stack else -1
        span = Span(len(self.spans), parent, self.op, name, layer, time.perf_counter(), size=size)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, name: str, sizer=None):
        """``fn`` recording a span named ``name`` while an operation is in flight."""
        tracer = self
        layer = LAYER_OF.get(name)

        def traced(*args, **kwargs):
            if tracer.op < 0:
                return fn(*args, **kwargs)
            span = tracer.begin(name, layer or _caller_layer(tracer),
                                sizer(args) if sizer else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(span)

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, sizer=None):
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, attr, sizer))

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        """Wrap the names the package's own call sites look up at call time."""
        import scipy.optimize

        import majorep.geomeasure as geo
        import majorep.marginals as marg
        import majorep.slocc as slocc
        import majorep.states as states

        self.patch(geo, "majorana_points")
        self.patch(geo, "overlap_landscape", sizer=lambda a: len(a[1]) * len(a[2]))
        self.patch(slocc, "majorana_points")
        self.patch(scipy.optimize, "minimize")
        self.patch(states.DensityMatrix, "eigenpairs")
        self.patch(marg, "to_computational")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------
    def write(self, path, op_labels: dict[int, str]) -> None:
        """One tab-separated line per span: ids, operation label, name, layer, times."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("sid\tparent\top\top_label\tname\tlayer\tt0\tt1\tsize\n")
            for s in self.spans:
                fh.write(f"{s.sid}\t{s.parent}\t{s.op}\t{op_labels.get(s.op, '')}\t{s.name}"
                         f"\t{s.layer}\t{s.t0:.9f}\t{s.t1:.9f}\t{s.size}\n")


def _caller_layer(tracer: Tracer) -> str:
    """minimize is scipy's, but it runs on behalf of the layer that called it."""
    return tracer.stack[-1].layer if tracer.stack else "bench"


def self_times(spans: list[Span]) -> dict[str, float]:
    """Span duration minus the part of it covered by child spans, summed by layer."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.t1 - s.t0
    out: dict[str, float] = {}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + (s.t1 - s.t0) - child_time.get(s.sid, 0.0)
    return out
