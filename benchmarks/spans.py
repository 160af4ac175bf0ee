"""Span tracing of the gnk layers, installed from outside the package.

``install`` replaces every public function of each gnk module (and the
few private or method names the per-layer metrics need) with a wrapper
that records a span: name, start, end, parent, the tracemalloc peak over
the span, and a work count for the calls whose size matters.  Names that
other modules imported with ``from gnk.x import y`` are rebound too, so a
call is traced whichever module makes it.  No file of the package changes.

Spans stay in memory and are written once, by ``Tracer.dump``.

Run the CLI under tracing with

    PYTHONPATH=src python3 benchmarks/spans.py --spans OUT.json -- solve-dirichlet ...
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

MODULES = ("geometry", "coefficient", "kernels", "discrete", "rhp", "mobius",
           "dirichlet", "cli")

# Private functions and methods that carry layer work the metrics name.
EXTRA = {
    "geometry": ("_turns_about_points", "Region.sample"),
    "discrete": ("DiscreteOperators.identity_minus_N",
                 "DiscreteOperators.identity_plus_N",
                 "DiscreteOperators.nullity_I_minus_N",
                 "DiscreteOperators.nullity_I_plus_N"),
    "cli": ("_hole_mask",),
}


def _jet_entries(args, kwargs) -> int:
    return args[0].size ** 2


def _cauchy_pairs(args, kwargs) -> int:
    z = kwargs.get("z", args[5] if len(args) > 5 else None)
    size = args[0].m * args[2].n  # region.m * grid.n
    return len(z) * size if hasattr(z, "__len__") else size


def _matrix_order(args, kwargs) -> int:
    return args[0].shape[0]


# Work counted per call: kernel entries built, probe-node pairs summed,
# order of the matrix whose SVD is taken.
WORK = {
    "kernels.complex_kernel_matrix": _jet_entries,
    "rhp.cauchy_eval": _cauchy_pairs,
    "discrete.nullity": _matrix_order,
}


@dataclass
class Span:
    sid: int
    parent: int
    name: str
    start: float
    end: float = 0.0
    start_bytes: int = 0
    peak_bytes: int = 0
    work: int = 0
    children: list = field(default_factory=list)


class Tracer:
    """Records nested spans; one tracer per traced process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        tracemalloc.start()

    def enter(self, name: str, work: int = 0) -> Span:
        current, peak = tracemalloc.get_traced_memory()
        if self.stack:
            # tracemalloc keeps one global peak: fold it into the parent
            # before resetting it for the child
            parent = self.stack[-1]
            parent.peak_bytes = max(parent.peak_bytes, peak)
        tracemalloc.reset_peak()
        span = Span(len(self.spans), self.stack[-1].sid if self.stack else -1,
                    name, time.perf_counter(), start_bytes=current,
                    peak_bytes=current, work=work)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        _, peak = tracemalloc.get_traced_memory()
        span.peak_bytes = max(span.peak_bytes, peak)
        self.stack.pop()
        if self.stack:
            parent = self.stack[-1]
            parent.peak_bytes = max(parent.peak_bytes, span.peak_bytes)
            parent.children.append(span.end - span.start)
        tracemalloc.reset_peak()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.enter(name)
        try:
            yield span
        finally:
            self.exit(span)

    def wrap(self, name: str, fn):
        count = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.enter(name, count(args, kwargs) if count else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(span)

        return traced

    def records(self) -> list[dict]:
        """Spans with self time: duration minus the time of direct children."""
        return [{"id": s.sid, "parent": s.parent, "name": s.name,
                 "start": s.start, "end": s.end,
                 "self_s": (s.end - s.start) - sum(s.children),
                 "peak_mb": (s.peak_bytes - s.start_bytes) / 2**20,
                 "work": s.work}
                for s in self.spans]

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.records(), f)


def _targets(module):
    """(owner, attribute, span name) for each function to wrap in a module."""
    short = module.__name__.split(".")[-1]
    for name, obj in vars(module).items():
        if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                and not name.startswith("_")):
            yield module, name, f"{short}.{name}"
    for dotted in EXTRA.get(short, ()):
        owner, _, attr = dotted.rpartition(".")
        yield (getattr(module, owner) if owner else module), attr, f"{short}.{attr}"


def install(tracer: Tracer) -> None:
    """Wrap the gnk layers and rebind every imported alias of them."""
    modules = [importlib.import_module(f"gnk.{name}") for name in MODULES]
    swapped = {}
    for module in modules:
        for owner, attr, span_name in _targets(module):
            original = vars(owner)[attr]
            wrapper = tracer.wrap(span_name, original)
            setattr(owner, attr, wrapper)
            swapped[id(original)] = (original, wrapper)
    for name, module in list(sys.modules.items()):
        if name != "gnk" and not name.startswith("gnk."):
            continue
        for attr, value in list(vars(module).items()):
            hit = swapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        sys.stderr.write("usage: spans.py --spans OUT.json -- <gnk cli arguments>\n")
        return 1
    out, cli_args = argv[1], argv[3:]
    tracer = Tracer()
    import gnk.cli
    install(tracer)
    code = gnk.cli.main(cli_args)
    tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
