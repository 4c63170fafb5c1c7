"""Spans around the library's public functions, for the traced run.

``Tracer.install()`` replaces each traced function by a wrapper at every
name its callers look it up by (``zetaline.meanvalue.hurwitz_line`` as well
as ``zetaline.zetacore.hurwitz_line``), and ``uninstall()`` puts the
originals back.  A wrapper records a span (layer, start, end, parent) and
the layer's counters while ``recording`` is set.  A call into a layer that
is already the innermost open span (``hurwitz_line`` calling
``hurwitz_line_batch``) belongs to that span.  No code of the library
changes.

Self time is a span's duration less the time its child spans cover.
Counters named ``*phase_elems`` and ``*points_in`` are computed from the
call's inputs, not measured.
"""

from __future__ import annotations

import functools
import inspect
import math
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

from zetaline import barnes, cli, meanvalue, verify, zetacore

from workloads import shift_count


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _line_elems(fn, args, kwargs, result, span):
    """nodes x N of the phase matrix, N as zetacore chooses it."""
    arg = _bound(fn, args, kwargs)
    ts = np.asarray(arg["ts"], dtype=float)
    if ts.size == 0:
        return {}
    n = arg["n_terms"]
    if n is None:
        n = shift_count(float(np.max(np.abs(ts))), arg["prec"].shift_count_factor)
    return {"phase_elems": ts.size * n}


def _profile_counts(fn, args, kwargs, result, span):
    arg = _bound(fn, args, kwargs)
    points = (int(math.floor(arg["x"])) + 1) ** len(arg["w"])
    if span.parent is not None:
        span.parent.profile_values += result.values.size
    return {"points_in": points, "values_out": int(result.values.size)}


def _trunc_elems(fn, args, kwargs, result, span):
    arg = _bound(fn, args, kwargs)
    profile = arg["profile"]
    size = profile.values.size if profile is not None else span.profile_values
    return {"phase_elems": len(arg["ts"]) * size}


def _grid_nodes(fn, args, kwargs, result, span):
    return {"nodes": max(res.samples for _, res in result)}


# layer -> ([(module, attribute)], counter function or None)
LAYERS = {
    "zetacore.line": (
        [(zetacore, "hurwitz_line"), (zetacore, "hurwitz_line_batch"),
         (meanvalue, "hurwitz_line"), (meanvalue, "hurwitz_line_batch"),
         (barnes, "hurwitz_line_batch"), (verify, "hurwitz_line_batch")],
        _line_elems,
    ),
    "zetacore.scalar": (
        [(zetacore, "hurwitz_zeta_bounded"), (zetacore, "lerch_zeta_bounded"),
         (cli, "hurwitz_zeta_bounded"), (cli, "lerch_zeta_bounded")],
        None,
    ),
    "barnes.profile": (
        [(barnes, "build_lattice_profile"), (meanvalue, "build_lattice_profile"),
         (verify, "build_lattice_profile")],
        _profile_counts,
    ),
    "barnes.trunc_line": (
        [(barnes, "barnes_truncated_line"), (meanvalue, "barnes_truncated_line"),
         (verify, "barnes_truncated_line")],
        _trunc_elems,
    ),
    "barnes.multi_line": (
        [(barnes, "multi_hurwitz_line"), (meanvalue, "multi_hurwitz_line"),
         (verify, "multi_hurwitz_line")],
        None,
    ),
    "barnes.scalar": (
        [(barnes, "multi_hurwitz"), (barnes, "barnes_direct"), (cli, "barnes_direct")],
        None,
    ),
    "meanvalue.grid": (
        [(meanvalue, "mean_square_grid"), (cli, "mean_square_grid")],
        _grid_nodes,
    ),
    "verify.envelope_multi": ([(verify, "envelope_multi")], None),
    "verify.comparability": ([(verify, "comparability")], None),
    "cli.meansquare": ([(cli, "cmd_meansquare")], None),
}


class Span:
    __slots__ = ("layer", "parent", "index", "start", "end", "child_ns", "profile_values")

    def __init__(self, layer, parent, index):
        self.layer = layer
        self.parent = parent
        self.index = index
        self.child_ns = 0
        self.profile_values = 0


class Tracer:
    def __init__(self):
        self.recording = False
        self.stack = []
        self.spans = []  # (layer, start_ns, end_ns, parent index or -1)
        self.stats = self._fresh()
        self._saved = []

    @staticmethod
    def _fresh():
        return defaultdict(lambda: defaultdict(int))

    def take_stats(self):
        """Per-layer totals since the last call: calls, self_ns and counters."""
        stats, self.stats = self.stats, self._fresh()
        return {layer: dict(v) for layer, v in stats.items()}

    def install(self):
        originals = {}
        for layer, (sites, counter) in LAYERS.items():
            for module, attr in sites:
                fn = getattr(module, attr)
                key = (fn.__module__, fn.__qualname__)
                if key not in originals:
                    originals[key] = self._wrap(layer, fn, counter)
                self._saved.append((module, attr, fn))
                setattr(module, attr, originals[key])

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []

    def _wrap(self, layer, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self.stack
            if not self.recording or (stack and stack[-1].layer == layer):
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            span = Span(layer, parent, len(self.spans))
            self.spans.append(None)
            stack.append(span)
            span.start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter_ns()
                stack.pop()
                self._close(span)
            if counter is not None:
                for name, value in counter(fn, args, kwargs, result, span).items():
                    self.stats[layer][name] += value
            return result

        return traced

    def _close(self, span):
        dur = span.end - span.start
        if span.parent is not None:
            span.parent.child_ns += dur
        st = self.stats[span.layer]
        st["calls"] += 1
        st["self_ns"] += dur - span.child_ns
        self.spans[span.index] = (span.layer, span.start, span.end,
                                  span.parent.index if span.parent is not None else -1)
