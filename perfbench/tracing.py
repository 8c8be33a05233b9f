"""Span tracing of ``lindeberg_lab`` from outside the package.

``Tracer.install()`` replaces the package's layer-boundary functions, in every
``lindeberg_lab`` module namespace that holds them (including the
``from .core import ...`` copies), with wrappers that record one span per
call: ``(id, parent, name, start, end, thread id, work)``.  ``work`` is a
count of units done by the call (values drawn, configurations enumerated),
recorded at the same boundary as the span.  ``uninstall()`` puts every
original object back.  Spans stay in memory until the caller writes them.

``summarize(spans)`` turns spans into per-name calls, work, self time (span
time minus the part of it that child spans cover, summed over spans, so
spans running at once on two threads both count) and total time (the union
of the name's intervals, which counts such spans once).
"""

from __future__ import annotations

import dataclasses
import itertools
import sys
import threading
import time
from collections import defaultdict

# span tuple fields
ID, PARENT, NAME, START, END, TID, WORK = range(7)


class Tracer:
    """In-memory span recorder with per-thread span stacks.

    A span opened on a thread whose stack is empty (a worker of a thread
    pool) takes as parent the innermost open span of the thread that created
    the tracer, which is the thread that hands the work out.
    """

    def __init__(self, clock=time.perf_counter):
        self.spans: list[tuple] = []
        self._clock = clock
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack: list[int] = self._stack()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, work=None):
        """Return ``fn`` wrapped so each call records a span named ``name``.

        ``work``, when given, maps the call's positional arguments to the
        number of work units the call performs.
        """
        spans, ids, clock = self.spans, self._ids, self._clock
        root = self._root_stack

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                top = root[-1:]   # a slice cannot race with the owner's pop
                parent = top[0] if top else 0
            sid = next(ids)
            units = work(args) if work is not None else 0
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end,
                              threading.get_ident(), units))

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def _replace(self, original, replacement) -> None:
        """Rebind each ``lindeberg_lab`` module global that is ``original``."""
        found = False
        for modname, module in list(sys.modules.items()):
            if modname != "lindeberg_lab" and \
                    not modname.startswith("lindeberg_lab."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)
                    found = True
        if not found:
            raise LookupError(f"{original!r} is bound in no lindeberg_lab "
                              f"module")

    def _patch_function(self, name: str, original, work=None) -> None:
        self._replace(original, self.wrap(name, original, work))

    def _patch_method(self, name: str, cls: type, attr: str) -> None:
        original = vars(cls)[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original))

    def install(self) -> None:
        """Wrap the layer boundaries of an imported ``lindeberg_lab``."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        from lindeberg_lab import cli, core, rng, sk, smoothmax, walks, \
            wigner

        fn = self._patch_function
        self._patch_method("rng.replicate", rng.RandomStream, "replicate")

        make_sampler = core.make_vector_sampler

        def traced_make_sampler(specs):
            specs = list(specs)
            n = len(specs)
            return self.wrap("distributions.draw", make_sampler(specs),
                             work=lambda args: n)

        self._replace(make_sampler, traced_make_sampler)

        pfv = core.paired_functional_values

        def pfv_traced_functionals(eval_x, eval_y, *args, **kwargs):
            return pfv(self.wrap("core.functional", eval_x),
                       self.wrap("core.functional", eval_y), *args, **kwargs)

        self._replace(pfv, self.wrap("core.paired_functional_values",
                                     pfv_traced_functionals))

        make_g = cli.test_function

        def traced_test_function(name):
            g = make_g(name)
            return dataclasses.replace(g, value=self.wrap("core.g", g.value))

        self._replace(make_g, traced_test_function)

        fn("core.summarize_gap", core.summarize_gap)
        for bound in (core.c_constants, core.swap_bound,
                      core.third_moment_bound):
            fn("core.bound", bound)
        fn("walks.max_partial_sums", walks.max_partial_sums)
        fn("walks.walk_family", walks.walk_family)
        fn("walks.ks_to_half_normal", walks.ks_to_half_normal)
        fn("smoothmax.optimized_max_bound", smoothmax.optimized_max_bound)
        fn("wigner.stieltjes", wigner.stieltjes)
        fn("wigner.build_matrix", wigner.build_matrix)
        fn("wigner.resolvent", wigner.resolvent)
        fn("wigner.linalg", wigner.lu_factor, work=lambda args: 1)
        fn("wigner.linalg", wigner.lu_solve)
        fn("sk.free_energy", sk.free_energy,
           work=lambda args: 1 << args[0].size)
        self._patch_method("sk.coupling_matrix", sk.CouplingLayout,
                           "coupling_matrix")
        fn("cli.run", cli.run)
        fn("cli.render", cli.render_csv)
        fn("cli.render", cli.render_json)

    def uninstall(self) -> None:
        """Restore every rebound name, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def union_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


@dataclasses.dataclass
class NameStats:
    calls: int = 0
    work: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


def summarize(spans) -> dict[str, NameStats]:
    """Per-name calls, work, self time and total (union) time."""
    children = defaultdict(list)
    for span in spans:
        children[span[PARENT]].append((span[START], span[END]))
    stats: dict[str, NameStats] = defaultdict(NameStats)
    intervals = defaultdict(list)
    for span in spans:
        start, end = span[START], span[END]
        covered = union_length((max(a, start), min(b, end))
                               for a, b in children.get(span[ID], ())
                               if min(b, end) > max(a, start))
        s = stats[span[NAME]]
        s.calls += 1
        s.work += span[WORK]
        s.self_s += (end - start) - covered
        intervals[span[NAME]].append((start, end))
    for name, ivs in intervals.items():
        stats[name].total_s = union_length(ivs)
    return dict(stats)
