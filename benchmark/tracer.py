"""Per-layer tracing of circlelab, installed from outside the package.

The layers are the package modules.  install() wraps every public function
of each module and rebinds the wrapper at every module attribute that
refers to the original, since modules import each other's functions by
name (localdens.joint_histogram, archimedean.singular_series_truncated).

- A call records a span: its layer, start, end and the span that caused it.
  Each thread keeps its own span stack.  util.parallel_map hands its own
  span to the items it runs, so work on pool threads is parented to the
  parallel_map call that started it.
- A public generator (counting.enumerate_solutions, gridsum.residue_chunks)
  records one span per ``next``, so the consumer's time between items is
  not charged to it.
- Per-point leaf functions get a counter only: their time stays with the
  caller's layer.
- The program reports no work counts of its own, so the counts are derived
  here from call arguments and results (HOOKS below).

Spans are held in memory and analysed when the session ends.  A layer's
self time shares wall-clock time equally among the spans running at each
instant (open, with no open child), so the self times of all layers plus
the benchmark's own time add up exactly to the traced job time even when
pool threads overlap.  A layer's busy time is the wall-clock time during
which at least one of its spans was open.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np

LAYERS = (
    "cli", "forms", "weightfn", "gridsum", "localdens", "expsums",
    "counting", "arcs", "archimedean", "quadrature", "weyldiag", "util",
)
BENCH = len(LAYERS)  # index of the benchmark's own time

LEAVES = {
    "forms.eval_cubic": "forms.evals",
    "forms.eval_quadratic": "forms.evals",
    "weightfn.omega": "weightfn.omega_calls",
    "weyldiag.bilinear_matrix": "weyldiag.matrices",
}

# Work counts; each is a sum over the session except MAX_COUNTERS.
COUNTERS = (
    "gridsum.residues", "gridsum.scans", "gridsum.repeats",
    "localdens.moduli", "expsums.complete_sums",
    "counting.points", "counting.solutions", "forms.evals", "weightfn.omega_calls",
    "expsums.weyl_points", "weightfn.grid_points", "util.pool_items", "util.pool_s",
    "weyldiag.x_points", "weyldiag.matrices",
    "quadrature.points", "quadrature.max_level", "expsums.poisson_grid_points",
    "arcs.q_scanned", "cli.load_s", "cli.emit_s",
)
MAX_COUNTERS = {"quadrature.max_level"}


class _ThreadState:
    __slots__ = ("thread", "stack", "spans", "calls", "counts")

    def __init__(self):
        self.thread = threading.current_thread()
        self.stack: list[int] = []
        self.spans: list[tuple] = []
        self.calls = [0] * (BENCH + 1)
        self.counts: dict[str, float] = defaultdict(float)


@dataclass
class JobTrace:
    """Raw trace of one job: its span, every span under it, and its counts."""

    id: str
    duration: float
    spans: list
    calls: list
    counts: dict


@dataclass(frozen=True)
class _Hook:
    before: object = None  # (tracer, span id, arguments) -> None; may replace arguments
    after: object = None  # (tracer, state, arguments, result, seconds) -> None
    on_yield: object = None  # (state, item) -> None


def _layer_of(module_name: str) -> int:
    pkg, _, name = module_name.rpartition(".")
    return LAYERS.index(name) if pkg == "circlelab" and name in LAYERS else BENCH


class Tracer:
    def __init__(self):
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self._patched: list[tuple] = []
        self._seen: set = set()
        self.jobs: list[JobTrace] = []

    # ----------------------------------------------------------- state
    def state(self) -> _ThreadState:
        try:
            return self._tls.st
        except AttributeError:
            st = self._tls.st = _ThreadState()
            with self._lock:
                self._states.append(st)
            return st

    def note_scan(self, st: _ThreadState, key) -> None:
        """Count a residue scan as a repeat when its key was seen in this job."""
        with self._lock:
            if key in self._seen:
                st.counts["gridsum.repeats"] += 1
            self._seen.add(key)

    # --------------------------------------------------------- install
    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "circlelab" or name.startswith("circlelab.")]
        wrappers = {}
        for mod in modules:
            li = _layer_of(mod.__name__)
            if li == BENCH:
                continue
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(obj, li, f"{LAYERS[li]}.{name}"))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, name, entry[1])
                    self._patched.append((mod, name, obj))

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    def _wrap(self, fn, li: int, qual: str):
        if qual in LEAVES:
            return self._wrap_leaf(fn, LEAVES[qual])
        hook = HOOKS.get(qual)
        sig = inspect.signature(fn) if hook is not None else None
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, li, hook, sig)
        return self._wrap_call(fn, li, hook, sig)

    def _wrap_leaf(self, fn, counter: str):
        tls, state = self._tls, self.state

        @functools.wraps(fn)
        def leaf(*args, **kwargs):
            try:
                st = tls.st
            except AttributeError:
                st = state()
            st.counts[counter] += 1
            return fn(*args, **kwargs)

        return leaf

    def _wrap_call(self, fn, li: int, hook, sig):
        tracer = self

        @functools.wraps(fn)
        def call(*args, **kwargs):
            st = tracer.state()
            parent = st.stack[-1] if st.stack else 0
            sid = next(tracer._ids)
            st.calls[li] += 1
            bound = None
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if hook.before is not None:
                    hook.before(tracer, sid, bound.arguments)
                args, kwargs = bound.args, bound.kwargs
            st.stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                st.stack.pop()
                st.spans.append((sid, parent, li, t0, t1))
            if hook is not None and hook.after is not None:
                hook.after(tracer, st, bound.arguments, result, t1 - t0)
            return result

        return call

    def _wrap_generator(self, fn, li: int, hook, sig):
        tracer = self

        @functools.wraps(fn)
        def start(*args, **kwargs):
            tracer.state().calls[li] += 1
            arguments = None
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
            return tracer._drive(fn(*args, **kwargs), li, hook, arguments)

        return start

    def _drive(self, it, li: int, hook, arguments):
        while True:
            st = self.state()
            parent = st.stack[-1] if st.stack else 0
            sid = next(self._ids)
            st.stack.append(sid)
            t0 = perf_counter()
            try:
                item = next(it)
            except StopIteration:
                if hook is not None and hook.after is not None:
                    hook.after(self, st, arguments, None, 0.0)
                return
            finally:
                st.stack.pop()
                st.spans.append((sid, parent, li, t0, perf_counter()))
            if hook is not None and hook.on_yield is not None:
                hook.on_yield(st, item)
            yield item

    def run_item(self, fn, parent: int, li: int, item):
        """Run one parallel_map item as a span under the parallel_map span."""
        st = self.state()
        saved = st.stack
        sid = next(self._ids)
        st.stack = [parent, sid]
        t0 = perf_counter()
        try:
            return fn(item)
        finally:
            st.spans.append((sid, parent, li, t0, perf_counter()))
            st.stack = saved

    # ------------------------------------------------------------ jobs
    @contextmanager
    def job(self, job_id: str):
        """Root span of one job; everything the job calls is parented to it."""
        st = self.state()
        with self._lock:
            self._seen = set()
        sid = next(self._ids)
        st.stack.append(sid)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            st.stack.pop()
            st.spans.append((sid, 0, BENCH, t0, t1))
            self._close_job(job_id, t1 - t0)

    def _close_job(self, job_id: str, duration: float) -> None:
        spans, calls, counts = [], [0] * (BENCH + 1), defaultdict(float)
        with self._lock:
            for st in self._states:
                spans += st.spans
                st.spans = []
                calls = [a + b for a, b in zip(calls, st.calls)]
                st.calls = [0] * (BENCH + 1)
                for k, v in st.counts.items():
                    counts[k] = max(counts[k], v) if k in MAX_COUNTERS else counts[k] + v
                st.counts = defaultdict(float)
            self._states = [st for st in self._states if st.thread.is_alive()]
        self.jobs.append(JobTrace(job_id, duration, spans, calls, dict(counts)))


# ------------------------------------------------------------------ analysis

def self_times(spans) -> list[float]:
    """Wall-clock self time per layer (index BENCH: the benchmark's own).

    Sweeps span starts and ends in time order.  Between two events the
    elapsed time is shared equally among the running spans, those open with
    no open child on any thread.
    """
    START, END = 1, 0
    events = []
    parent_of, layer_of = {}, {}
    for sid, parent, li, t0, t1 in spans:
        parent_of[sid] = parent
        layer_of[sid] = li
        events.append((t0, START, sid, sid))
        events.append((t1, END, -sid, sid))
    # at equal times: ends before starts, inner ends first, outer starts first
    events.sort()
    out = [0.0] * (BENCH + 1)
    is_open, running = set(), set()
    open_children = defaultdict(int)
    prev = None
    for t, kind, _, sid in events:
        if running:
            share = (t - prev) / len(running)
            for r in running:
                out[layer_of[r]] += share
        prev = t
        parent = parent_of[sid]
        if kind == START:
            is_open.add(sid)
            running.add(sid)
            if parent in is_open:
                open_children[parent] += 1
                running.discard(parent)
        else:
            is_open.discard(sid)
            running.discard(sid)
            if parent in is_open:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    running.add(parent)
    return out


def busy_times(spans) -> list[float]:
    """Per layer, the measure of the union of its span intervals."""
    by_layer = defaultdict(list)
    for _, _, li, t0, t1 in spans:
        by_layer[li].append((t0, t1))
    out = [0.0] * (BENCH + 1)
    for li, intervals in by_layer.items():
        intervals.sort()
        start, end = intervals[0]
        total = 0.0
        for t0, t1 in intervals[1:]:
            if t0 > end:
                total += end - start
                start, end = t0, t1
            else:
                end = max(end, t1)
        out[li] = total + end - start
    return out


def job_metrics(job: JobTrace) -> dict[str, float]:
    """Per-layer metrics of one traced job."""
    selfs, busy = self_times(job.spans), busy_times(job.spans)
    calls = list(job.calls)
    for counter in set(LEAVES.values()):
        calls[LAYERS.index(counter.split(".")[0])] += job.counts.get(counter, 0)
    out = {}
    for li, layer in enumerate(LAYERS):
        out[f"{layer}.calls"] = calls[li]
        out[f"{layer}.busy_s"] = busy[li]
        out[f"{layer}.self_s"] = selfs[li]
    out["bench.self_s"] = selfs[BENCH]
    out["trace.job_s"] = job.duration
    for name in COUNTERS:
        out[name] = job.counts.get(name, 0)
    return out


def session_metrics(jobs: list[JobTrace]) -> dict[str, float]:
    """Per-layer metrics summed over the jobs of a traced session."""
    total: dict[str, float] = defaultdict(float)
    for job in jobs:
        for k, v in job_metrics(job).items():
            total[k] = max(total[k], v) if k in MAX_COUNTERS else total[k] + v
    total = dict(total)
    scans, points = total["gridsum.scans"], total["counting.points"]
    total["gridsum.repeat_frac"] = total["gridsum.repeats"] / scans if scans else 0.0
    total["counting.hit_frac"] = total["counting.solutions"] / points if points else 0.0
    del total["gridsum.repeats"]
    return total


# --------------------------------------------------------------------- hooks

def _pair_key(pair):
    if pair is None:
        return None
    return (tuple(sorted(pair.cubic.monomials.items())),
            tuple(sorted(pair.quadric.monomials.items())))


def _scan(kind: str) -> _Hook:
    def after(tr, st, a, result, dt):
        pair = a.get("pair")
        n = pair.n if pair is not None else a["n"]
        st.counts["gridsum.residues"] += a["q"] ** n
        st.counts["gridsum.scans"] += 1
        tr.note_scan(st, (kind, _pair_key(pair), a["q"]))

    return _Hook(after=after)


def _add(counter: str, amount) -> _Hook:
    def after(tr, st, a, result, dt):
        st.counts[counter] += amount(a, result)

    return _Hook(after=after)


def _time(counter: str) -> _Hook:
    def after(tr, st, a, result, dt):
        st.counts[counter] += dt

    return _Hook(after=after)


def _series(tr, st, a, result, dt):
    R = int(a["R"])
    st.counts["localdens.moduli"] += R
    st.counts["expsums.complete_sums"] += sum(q * q for q in range(2, R + 1))


def _a_of_q(tr, st, a, result, dt):
    st.counts["localdens.moduli"] += 1
    st.counts["expsums.complete_sums"] += a["q"] ** 2 if a["q"] > 1 else 0


def _poisson(tr, st, a, result, dt):
    n = a["pair"].n
    st.counts["expsums.complete_sums"] += a["approx"].q ** n
    st.counts["expsums.poisson_grid_points"] += (2 * a["M"] + 1) ** n


def _weyl_points(a, result):
    w, P = a["weight"], a["P"]
    sides = [math.floor((c + w.xi) * P) - math.ceil((c - w.xi) * P) + 1 for c in w.center]
    return math.prod(max(s, 0) for s in sides)


def _box_points(tr, st, a, result, dt):
    box = [(int(lo), int(hi)) for lo, hi in a["box"]]
    quadric = a["pair"].quadric
    fast = quadric.is_diagonal and quadric.diagonal()[-1] != 0
    scanned = box[:-1] if fast else box
    st.counts["counting.points"] += math.prod(max(hi - lo + 1, 0) for lo, hi in scanned)


def _solution(st, item):
    st.counts["counting.solutions"] += 1


def _grid_points(a, result):
    return math.prod(np.broadcast_shapes(*(np.shape(x) for x in a["axes"])))


def _delta_cutoff(P, delta):
    return sys.modules["circlelab.arcs"]._delta_cutoff(P, delta)


def _major_q(a, result):
    is_major, witness = result
    return witness[0] if is_major else _delta_cutoff(a["P"], a["delta"])


def _count_quadrature(tr, sid, a):
    f = a["f"]

    def counted(axes):
        shape = np.broadcast_shapes(*(np.shape(x) for x in axes))
        st = tr.state()
        st.counts["quadrature.points"] += math.prod(shape)
        level = (max(shape) - 1).bit_length() - 1
        st.counts["quadrature.max_level"] = max(st.counts["quadrature.max_level"], level)
        return f(axes)

    a["f"] = counted


def _pool_before(tr, sid, a):
    fn = a["fn"]
    li = _layer_of(getattr(fn, "__module__", "") or "")
    a["fn"] = lambda item: tr.run_item(fn, sid, li, item)


def _pool_after(tr, st, a, result, dt):
    if a["threads"] > 1 and len(a["items"]) > 1:
        st.counts["util.pool_items"] += len(a["items"])
        st.counts["util.pool_s"] += dt


HOOKS = {
    "gridsum.joint_histogram": _scan("joint_histogram"),
    "gridsum.phase_histogram": _scan("phase_histogram"),
    "gridsum.count_solutions_mod": _scan("count_solutions_mod"),
    "gridsum.residue_chunks": _scan("residue_chunks"),
    "localdens.singular_series_truncated": _Hook(after=_series),
    "localdens.a_of_q": _Hook(after=_a_of_q),
    "localdens.hensel_stable": _add("localdens.moduli", lambda a, r: r.reached),
    "localdens.count_mod": _add("localdens.moduli", lambda a, r: 1),
    "localdens.count_mod_primitive": _add("localdens.moduli", lambda a, r: 1),
    "localdens.qp_solubility_search": _add("localdens.moduli", lambda a, r: 1),
    "expsums.complete_sum": _add("expsums.complete_sums", lambda a, r: 1),
    "expsums.poisson_reconstruct": _Hook(after=_poisson),
    "expsums.weyl_sum_direct": _add("expsums.weyl_points", _weyl_points),
    "counting.enumerate_solutions": _Hook(after=_box_points, on_yield=_solution),
    "weightfn.omega_grid": _add("weightfn.grid_points", _grid_points),
    "weyldiag.count_bilinear": _add("weyldiag.x_points", lambda a, r: (2 * a["R"] - 1) ** a["cubic"].n),
    "quadrature.tensor_integral": _Hook(before=_count_quadrature),
    "arcs.simultaneous_approx": _add("arcs.q_scanned", lambda a, r: r.q),
    "arcs.major_arc_test": _add("arcs.q_scanned", _major_q),
    "arcs.major_arc_measure": _add("arcs.q_scanned", lambda a, r: _delta_cutoff(a["P"], a["delta"])),
    "arcs.major_arc_centers": _add("arcs.q_scanned", lambda a, r: _delta_cutoff(a["P"], a["delta"])),
    "util.parallel_map": _Hook(before=_pool_before, after=_pool_after),
    "cli.load_problem": _time("cli.load_s"),
    "cli.emit": _time("cli.emit_s"),
}
