"""Span tracing of covermodels' layers from outside the package.

``Tracer.install`` replaces the public methods listed in ``_layers`` with
thin timing wrappers, so nothing under ``src/`` changes. Every wrapped
call records one span (layer index, parent span, start, end) into flat
in-memory lists; ``reduce`` turns them into per-layer call counts, self
times (span time minus the time of child spans) and the exact counters
the benchmark reports. ``save`` writes the raw spans out once the run
is over.

The engine imported ``local_from_state`` and ``cover_from_state`` by
name, so those are wrapped as attributes of ``covermodels.engine``, the
binding the engine actually calls.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np

_LOCALS = (
    ("NormalWishart", "nw"),
    ("BayesTreeDensity", "tree"),
    ("MixtureLocal", "mixture"),
    ("DirichletMultinomial", "dirichlet"),
)
LEAF_LOCALS = ("nw", "tree", "dirichlet")


def _layers():
    """(owner, attribute, layer) for every wrapped entry point."""
    from covermodels import covers, engine, local, vmm

    out = [
        (covers.KdTreeCover, "prepare_query", "covers.prepare"),
        (covers.SuffixTreeCover, "prepare_query", "covers.prepare"),
        (covers.KdTreeCover, "descend", "covers.match"),
        (covers.KdTreeCover, "match_levels", "covers.match"),
        (covers.SuffixTreeCover, "match_levels", "covers.match"),
        (covers.KdTreeCover, "observe_and_refine", "covers.grow"),
        (covers.SuffixTreeCover, "extend", "covers.grow"),
        (engine.CoverModelPosterior, "absorb", "engine.absorb"),
        (engine.CoverModelPosterior, "predict_logdensity", "engine.predict"),
        (engine.CoverModelPosterior, "to_text", "snapshot.save"),
        (engine.CoverModelPosterior, "from_text", "snapshot.load"),
        (engine, "local_from_state", "snapshot.local_state"),
        (engine, "cover_from_state", "snapshot.cover_state"),
        (covers.KdTreeCover, "state_dict", "snapshot.cover_state"),
        (covers.SuffixTreeCover, "state_dict", "snapshot.cover_state"),
        (vmm.VmmModel, "observe", "vmm.observe"),
        (vmm.VmmModel, "copy", "vmm.copy"),
    ]
    for cls_name, short in _LOCALS:
        cls = getattr(local, cls_name)
        out.append((cls, "log_predictive", f"local.{short}.score"))
        out.append((cls, "update", f"local.{short}.update"))
        out.append((cls, "state_dict", "snapshot.local_state"))
    return out


def layer_names():
    """Every layer name, in a fixed order."""
    seen = []
    for _, _, name in _layers():
        if name not in seen:
            seen.append(name)
    return seen


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.layers = layer_names()
        self._index = {name: i for i, name in enumerate(self.layers)}
        self.layer = []
        self.parent = []
        self.start = []
        self.end = []
        self._stack = []
        self._patches = []
        self.path_lens = []
        self.refine_spans = set()
        self.split_events = 0
        self.snapshot_chars = 0

    def _wrap(self, fn, name, on_result):
        lid = self._index[name]
        layer, parent, start, end, stack = (
            self.layer, self.parent, self.start, self.end, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(layer)
            layer.append(lid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if on_result is not None:
                on_result(i, out)
            return out

        return wrapper

    def install(self):
        hooks = {
            "match_levels": self._count_path,
            "observe_and_refine": self._count_splits,
            "to_text": self._count_chars,
        }
        for owner, attr, name in _layers():
            raw = owner.__dict__[attr]
            on_result = hooks.get(attr)
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name, on_result))
            else:
                new = self._wrap(raw, name, on_result)
            setattr(owner, attr, new)
            self._patches.append((owner, attr, raw))

    def uninstall(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def _count_path(self, span, levels):
        self.path_lens.append(len(levels))

    def _count_splits(self, span, events):
        self.refine_spans.add(span)
        self.split_events += len(events)

    def _count_chars(self, span, text):
        self.snapshot_chars += len(text)

    def reduce(self, scale_at):
        """Per-layer calls, self seconds and exact counters.

        ``scale_at`` maps span midpoints to the factors that bring span
        times to the reference host speed.

        Replay is the part of an absorb after ``observe_and_refine``
        returns: every local call made directly by the engine then is a
        replayed point's score or update. ``engine.replay.self_s`` is the
        total span time of those calls, which their local layers also
        count. ``local.score_per_context`` divides the leaf local score
        calls made inside absorbs by the leaf local updates made there,
        so it reads 1.0 when each visited context is scored once.
        """
        n = len(self.layer)
        lid = np.asarray(self.layer, dtype=np.int64)
        par = np.asarray(self.parent, dtype=np.int64)
        start, end = np.asarray(self.start), np.asarray(self.end)
        dur = (end - start) * scale_at(0.5 * (start + end))
        has_parent = par >= 0
        child = np.bincount(par[has_parent], weights=dur[has_parent], minlength=n)
        self_s = dur - child
        k = len(self.layers)
        calls = np.bincount(lid, minlength=k)
        busy = np.bincount(lid, weights=self_s, minlength=k)

        ix = self._index
        absorb = ix["engine.absorb"]
        local_ids = {i for name, i in ix.items() if name.startswith("local.")}
        update_ids = {ix[f"local.{s}.update"] for _, s in _LOCALS}
        leaf_score = {ix[f"local.{s}.score"] for s in LEAF_LOCALS}
        leaf_update = {ix[f"local.{s}.update"] for s in LEAF_LOCALS}
        in_absorb = [False] * n
        refine_end = {}
        replay_points = 0
        replay_s = 0.0
        scores = updates = 0
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        span_s = dur.tolist()
        for i in range(n):
            li, p = layer[i], parent[i]
            in_absorb[i] = li == absorb or (p >= 0 and in_absorb[p])
            if p >= 0 and layer[p] == absorb:
                if i in self.refine_spans:
                    refine_end[p] = end[i]
                elif li in local_ids and start[i] >= refine_end.get(p, math.inf):
                    replay_s += span_s[i]
                    replay_points += li in update_ids
            if in_absorb[i]:
                scores += li in leaf_score
                updates += li in leaf_update

        out = {}
        for name, i in ix.items():
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(busy[i])
        out["covers.splits"] = self.split_events
        out["covers.path_len_mean"] = (
            sum(self.path_lens) / len(self.path_lens) if self.path_lens else 0.0
        )
        out["local.score_per_context"] = scores / updates if updates else 0.0
        out["engine.replay.points"] = replay_points
        out["engine.replay.self_s"] = replay_s
        out["snapshot.bytes"] = self.snapshot_chars
        out["trace.spans"] = n
        return out

    def save(self, path):
        """Write the raw spans as a compressed numpy archive."""
        np.savez_compressed(
            path,
            layers=np.asarray(self.layers),
            layer=np.asarray(self.layer, dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int64),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )
