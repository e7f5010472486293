"""Exact incremental posterior inference over cover models.

A cover model generates y given x by walking down the covers: enter at
the coarsest cover (uniform over the contexts containing x), at each
context stop with some probability and emit y from that context's
local model, otherwise move to a matching context one cover finer. The
walk is forced to stop at the deepest matching context.

For partition trees the posterior over the latent stop structure is
tracked exactly and in closed form. Per context c three log quantities
suffice:

* ``log_m``: joint marginal of every observation whose chain passed
  through or ended at c, under c's local model.
* ``log_trunc``: marginal of the observations whose chain ended at c
  while the cover sequence could still refine past c. Only covers with
  ``growth_mode == "truncate"`` produce these events.
* ``log_lambda``: the subtree evidence

      lambda_c = m_c                               if c has no children
      lambda_c = w0 * m_c
               + (1 - w0) * trunc_c * prod_d lambda_d   otherwise,

  over materialised children d. The posterior probability that the
  walk stops at c given it got there is g_c = w0 * m_c / lambda_c, and
  it obeys the per observation update g' = g * pi / psi where pi is
  c's local predictive and psi its subtree predictive.

Non-tree covers (a context with several parents) fall back to storing
g per context and updating it multiplicatively; the closed form per
context updates are the same, only the global evidence bookkeeping is
approximate there.

One absorb scores every matched context once. A local's ``update``
returns its predictive from before the update, which is the pi above,
so the pass that updates the locals also supplies every pi. The
subtree predictives psi are then computed from the stop posteriors
still in force, and only after that are m, trunc and lambda committed.

Growth comes in two flavours. Covers that report ``replay`` (kd trees)
hand back the buffered block of each new child so its state is rebuilt
as if the child had always existed. Covers that report ``truncate``
(suffix trees) materialise contexts lazily; a chain that ends above
the maximum depth leaves a truncation factor behind and predictions
mix in a virtual continuation drawn from a fresh local model.

A snapshot (format version 3) holds only sufficient statistics: per
context its stop weight, ``log_m``, ``log_trunc`` and local counts and
sums, plus the cover's split records and buffered points. ``log_lambda``
is recomputed bottom-up on load, bit for bit, and the structure is
checked (``from_text``). Versions 1 and 2 still load.
"""

from __future__ import annotations

import copy as _copy
import json
import math

import numpy as np

from .covers import cover_from_state
from .errors import BadConfig
from .local import check_nested, check_seen, local_from_state
from .logspace import log1mexp, logaddexp, logsumexp

SNAPSHOT_FORMAT = "covermodels-snapshot"
# Version 2 stores a tree density's one-point subtrees as singleton
# leaves, which version-1 readers would take for empty nodes. Version 3
# stores no derived state and flat trees, buffers and cover records.
SNAPSHOT_VERSION = 3


def parse_depth_weight(spec):
    """Resolve a stop weight rule to (tag, callable on depth).

    Accepted: ``"const:c"`` for a constant c in (0, 1], ``"2^-k"`` for
    weight 2**-depth, or a bare number treated as a constant.
    """
    if isinstance(spec, (int, float)):
        spec = f"const:{float(spec)!r}"
    if not isinstance(spec, str):
        raise BadConfig(f"depth weight spec must be a string, got {type(spec)}")
    s = spec.strip()
    if s == "2^-k":
        return s, lambda k: 2.0 ** (-k)
    if s.startswith("const:"):
        try:
            c = float(s[len("const:"):])
        except ValueError:
            raise BadConfig(f"bad constant in depth weight spec {spec!r}") from None
        if not 0.0 < c <= 1.0:
            raise BadConfig("constant stop weight must be in (0, 1]")
        return s, lambda k: c
    raise BadConfig(f"unknown depth weight rule {spec!r}")


class ContextState:
    """Per context posterior state."""

    __slots__ = ("local", "w0", "log_m", "log_trunc", "log_lambda", "log_g", "v")

    def __init__(self, local, w0, v):
        self.local = local
        self.w0 = w0
        self.log_m = 0.0
        self.log_trunc = 0.0
        self.log_lambda = 0.0
        self.log_g = math.log(w0)
        self.v = v


class CoverModelPosterior:
    """Posterior over cover models, updated one observation at a time.

    Parameters
    ----------
    cover : CoverSequence
        Context structure. May grow while absorbing.
    local_factory : callable (depth, region) -> local model
        Builds the local observation model for a new context.
    depth_weight : str
        Prior stop weight rule, see ``parse_depth_weight``.
    grow : bool
        When False the cover is left untouched even if it supports
        refinement, which makes fixtures exactly enumerable.
    """

    def __init__(self, cover, local_factory, depth_weight="const:0.5", grow=True):
        self.cover = cover
        self.local_factory = local_factory
        self.depth_weight_spec, self._w0_fn = parse_depth_weight(depth_weight)
        self.grow = bool(grow)
        self.states: dict[int, ContextState] = {}
        self.n_obs = 0
        self.log_evidence = 0.0
        self._fresh = None
        for ctx in sorted(cover.contexts.values(), key=lambda c: c.cid):
            self._init_state(ctx)
        if cover.exact:
            self._refresh_all()

    # ---- state management -------------------------------------------------

    def _init_state(self, ctx):
        w0 = float(self._w0_fn(ctx.depth))
        if not 0.0 < w0 <= 1.0:
            raise BadConfig(f"stop weight {w0} at depth {ctx.depth} not in (0, 1]")
        if ctx.parent_ids:
            share = 1.0 / len(ctx.parent_ids)
            v = {p: share for p in ctx.parent_ids}
        else:
            v = {}
        st = ContextState(self.local_factory(ctx.depth, ctx.region), w0, v)
        self.states[ctx.cid] = st
        return st

    def _fresh_local(self):
        if self._fresh is None:
            self._fresh = self.local_factory(self.cover.max_depth, None)
        return self._fresh

    def set_w0(self, cid, w0):
        """Override one context's prior stop weight.

        Intended for fixtures, before any data is absorbed.
        """
        if not 0.0 < w0 <= 1.0:
            raise BadConfig("stop weight must be in (0, 1]")
        st = self.states[cid]
        st.w0 = float(w0)
        if self.cover.exact:
            self._refresh_ancestry(cid)
            st.log_g = math.log(st.w0) + st.log_m - st.log_lambda
        else:
            st.log_g = math.log(st.w0)

    def _refresh_ancestry(self, cid):
        affected = {cid}
        frontier = [cid]
        while frontier:
            c = frontier.pop()
            for p in self.cover.contexts[c].parent_ids:
                if p not in affected:
                    affected.add(p)
                    frontier.append(p)
        for c in sorted(affected, key=lambda k: -self.cover.contexts[k].depth):
            self._refresh_lambda(c)

    def _refresh_lambda(self, cid):
        ctx = self.cover.contexts[cid]
        st = self.states[cid]
        if not ctx.child_ids:
            st.log_lambda = st.log_m
            return
        log_sub = 0.0
        for d in ctx.child_ids:
            log_sub += self.states[d].log_lambda
        lw = math.log(st.w0)
        st.log_lambda = logaddexp(lw + st.log_m, log1mexp(lw) + st.log_trunc + log_sub)

    def _refresh_all(self):
        # a context is made after its parents, so children have larger ids
        for cid in sorted(self.states, reverse=True):
            self._refresh_lambda(cid)

    def _log_g(self, cid) -> float:
        st = self.states[cid]
        if self.cover.exact:
            return min(0.0, math.log(st.w0) + st.log_m - st.log_lambda)
        return min(0.0, st.log_g)

    def stop_posterior(self, cid) -> float:
        """Posterior probability that the walk stops at cid given reach.

        A childless context in a static or replayed cover is a forced
        terminal, so its value is 1; under truncation growth the cover
        can still refine past it and the unforced posterior applies.
        """
        ctx = self.cover.contexts[cid]
        if not ctx.child_ids and (
            self.cover.growth_mode != "truncate" or ctx.depth >= self.cover.max_depth
        ):
            return 1.0
        return math.exp(self._log_g(cid))

    # ---- prediction -------------------------------------------------------

    def _terminal(self, lg, lp, virtual):
        if virtual is None or lg >= 0.0:
            return lp
        return logaddexp(lg + lp, log1mexp(lg) + virtual)

    def _virtual(self, n_levels, xq, y):
        """Log predictive of the virtual continuation past a chain that
        ends above the maximum depth of a truncating cover, else None."""
        if self.cover.growth_mode == "truncate" and n_levels < self.cover.max_depth:
            return float(self._fresh_local().log_predictive(y, xq))
        return None

    def _lattice_continue(self, cid, below, logphi):
        """Log continuation value of cid over the matched contexts one
        cover finer that it overlaps, weighted by their transition
        weights; None when there are none."""
        kid_set = set(self.cover.contexts[cid].child_ids)
        cands = [d for d in below if d in kid_set]
        if not cands:
            return None
        w = [self.states[d].v.get(cid, 0.0) for d in cands]
        total = sum(w)
        if total <= 0.0:
            w = [1.0] * len(cands)
            total = float(len(cands))
        # a weight that underflowed to 0 contributes exp(-inf)
        return logsumexp(
            [math.log(wd / total) + logphi[d] for wd, d in zip(w, cands) if wd > 0.0]
        )

    def _phi(self, levels, logpi, virtual):
        """Subtree predictive per matched context, deepest first.

        ``logpi`` holds each matched context's local log predictive and
        ``virtual`` the virtual continuation's (see ``_virtual``).
        Returns (log marginal, log psi by cid) where psi is the subtree
        mixture value used by the walk. Reads the stop posteriors in
        force, so an absorb calls it before committing anything.
        """
        n_levels = len(levels)
        exact = self.cover.exact
        logphi = {}
        for k in range(n_levels - 1, -1, -1):
            for cid in levels[k]:
                lp = logpi[cid]
                lg = self._log_g(cid)
                if k == n_levels - 1:
                    cont = None
                elif exact:
                    # a partition tree matches one child of cid per cover
                    cont = logphi[levels[k + 1][0]]
                else:
                    cont = self._lattice_continue(cid, levels[k + 1], logphi)
                if cont is None:
                    logphi[cid] = self._terminal(lg, lp, virtual)
                elif lg >= 0.0:
                    logphi[cid] = lp
                else:
                    logphi[cid] = logaddexp(lg + lp, log1mexp(lg) + cont)
        roots = levels[0]
        if len(roots) == 1:
            return logphi[roots[0]], logphi
        logmarg = logsumexp([logphi[c] for c in roots]) - math.log(len(roots))
        return logmarg, logphi

    def _query(self, x, y):
        """Score y at x without changing anything.

        Returns (levels, log pi by cid, log psi by cid, log marginal).
        """
        xq = self.cover.prepare_query(x)
        levels = self.cover.match_levels(xq)
        logpi = {
            cid: float(self.states[cid].local.log_predictive(y, xq))
            for lvl in levels
            for cid in lvl
        }
        logmarg, logphi = self._phi(levels, logpi, self._virtual(len(levels), xq, y))
        return levels, logpi, logphi, logmarg

    def predict_logdensity(self, x, y) -> float:
        """Log predictive density (or mass) of y at x. Does not mutate."""
        return self._query(x, y)[3]

    def psi_table(self, x, y):
        """Introspection: per matched context predictive decomposition.

        Returns (rows, log_marginal). Each row is a dict with cid,
        depth, log_local and log_psi, ordered coarse to fine. At a
        terminal context log_psi equals log_local unless a virtual
        continuation applies.
        """
        levels, logpi, logphi, logmarg = self._query(x, y)
        rows = []
        for k, lvl in enumerate(levels):
            for cid in lvl:
                rows.append(
                    {
                        "cid": cid,
                        "depth": k + 1,
                        "log_local": logpi[cid],
                        "log_psi": logphi[cid],
                    }
                )
        return rows, logmarg

    def log_marginal_likelihood(self) -> float:
        """Exact log evidence of everything absorbed so far.

        Only defined for exact single root covers; equals the running
        sum of absorb() returns when the cover did not replay blocks.
        """
        roots = self.cover.roots()
        if not self.cover.exact or len(roots) != 1:
            raise BadConfig("exact evidence needs a single root partition tree")
        return self.states[roots[0]].log_lambda

    # ---- learning ---------------------------------------------------------

    def absorb(self, x, y) -> float:
        """Score y at x against the current posterior, then update.

        Returns the log predictive that was in force before the update,
        so summing returns over a stream gives the prequential log
        evidence. An observation that raises leaves the posterior as it
        was.
        """
        xq = self.cover.prepare_query(x)
        levels = self.cover.match_levels(xq)
        # Every local checks y before it changes, and the locals of one
        # model share one support, so only the first update can reject
        # y, and it does so before anything has changed.
        logpi = {}
        for lvl in levels:
            for cid in lvl:
                logpi[cid] = self.states[cid].local.update(y, xq)
        if self.grow and self.cover.growth_mode == "truncate":
            path, new = self.cover.extend(xq)
            if new:
                for cid in new:
                    st = self._init_state(self.cover.contexts[cid])
                    logpi[cid] = st.local.update(y, xq)
                levels = [[cid] for cid in path]
        # the stop posteriors read by _phi change only below
        logmarg, logphi = self._phi(levels, logpi, self._virtual(len(levels), xq, y))

        if not self.cover.exact:
            self._reweight(levels, logpi, logphi)
        for lvl in levels:
            for cid in lvl:
                self.states[cid].log_m += logpi[cid]
        if self.cover.growth_mode == "truncate" and len(levels) < self.cover.max_depth:
            anchor = levels[-1][0]
            self.states[anchor].log_trunc += logpi[anchor]

        if self.cover.exact:
            for k in range(len(levels) - 1, -1, -1):
                for cid in levels[k]:
                    self._refresh_lambda(cid)

        if self.grow and self.cover.growth_mode == "replay":
            y_arr = np.asarray(y, dtype=float).reshape(-1)
            events = self.cover.observe_and_refine(xq, y_arr, levels[-1][0])
            if events:
                for _, kids in events:
                    for cid, block in kids:
                        st = self._init_state(self.cover.contexts[cid])
                        for xb, yb in block:
                            st.log_m += st.local.update(yb, xb)
                        st.log_lambda = st.log_m
                dirty = sorted(
                    {p for p, _ in events},
                    key=lambda c: -self.cover.contexts[c].depth,
                )
                for cid in dirty:
                    self._refresh_lambda(cid)
                for k in range(len(levels) - 1, -1, -1):
                    for cid in levels[k]:
                        self._refresh_lambda(cid)

        self.n_obs += 1
        self.log_evidence += logmarg
        return logmarg

    def _reweight(self, levels, logpi, logphi):
        """Lattice bookkeeping of one absorb, from the pre-update values:
        transition weights of contexts with several parents, then the
        stored stop posteriors."""
        for k in range(1, len(levels)):
            matched_parents = set(levels[k - 1])
            for d in levels[k]:
                st = self.states[d]
                if len(st.v) <= 1:
                    continue
                bf = math.exp(min(logphi[d], 500.0))
                for p in st.v:
                    if p in matched_parents:
                        st.v[p] *= bf
                z = sum(st.v.values())
                if z > 0.0:
                    st.v = {p: val / z for p, val in st.v.items()}
        for lvl in levels:
            for cid in lvl:
                st = self.states[cid]
                st.log_g = min(0.0, st.log_g + logpi[cid] - logphi[cid])

    # ---- sampling ---------------------------------------------------------

    def sample_y(self, x, rng):
        """Draw y from the posterior predictive at x."""
        xq = self.cover.prepare_query(x)
        levels = self.cover.match_levels(xq)
        virtual = (
            self.cover.growth_mode == "truncate"
            and len(levels) < self.cover.max_depth
        )
        k = 0
        cid = levels[0][int(rng.integers(len(levels[0])))]
        while True:
            st = self.states[cid]
            terminal = k == len(levels) - 1
            if not terminal:
                kid_set = set(self.cover.contexts[cid].child_ids)
                cands = [d for d in levels[k + 1] if d in kid_set]
                terminal = not cands
            if terminal:
                if virtual and rng.uniform() >= math.exp(self._log_g(cid)):
                    return self._fresh_local().sample(rng)
                return st.local.sample(rng)
            if rng.uniform() < math.exp(self._log_g(cid)):
                return st.local.sample(rng)
            w = np.array([self.states[d].v.get(cid, 0.0) for d in cands])
            total = w.sum()
            if total <= 0.0:
                w = np.ones(len(cands))
                total = float(len(cands))
            cid = cands[int(rng.choice(len(cands), p=w / total))]
            k += 1

    # ---- persistence ------------------------------------------------------

    def copy(self):
        return _copy.deepcopy(self)

    def to_text(self) -> str:
        """Serialise to a line oriented text snapshot (JSON records).

        A context's record holds its stop weight, ``log_m``,
        ``log_trunc`` and local model. ``log_lambda`` is recomputed on
        load, and ``log_g`` and ``v`` are the values ``_init_state``
        gives, since every cover that serialises is an exact tree.
        """
        meta = {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "depth_weight": self.depth_weight_spec,
            "grow": self.grow,
            "n_obs": self.n_obs,
            "log_evidence": self.log_evidence,
            "cover": self.cover.state_dict(),
        }
        lines = [json.dumps(meta, sort_keys=True)]
        for cid in sorted(self.states):
            st = self.states[cid]
            rec = {
                "cid": cid,
                "w0": st.w0,
                "log_m": st.log_m,
                "log_trunc": st.log_trunc,
                "local": st.local.state_dict(),
            }
            lines.append(json.dumps(rec, sort_keys=True))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text, local_factory):
        """Rebuild a posterior from ``to_text`` output, of version 1 to 3.

        The local factory is not serialised and must be supplied again;
        it is only consulted for contexts created after the restore.
        Version-1 and version-2 records keep their stored ``log_lambda``,
        ``log_g`` and ``v``.

        Raises ``BadConfig`` on a snapshot whose structure does not hold
        together: the checks of the cover's and the locals'
        ``from_state``, a state for each context and for no other, and
        counts that agree with what the cover routed. The root's local
        was offered every observation; on a growing kd cover each
        context's local was offered the points buffered in the leaves
        under it, and those add up to ``n_obs``; elsewhere children hold
        no more points than their parent. Not checked, because that would
        take a refit: ``log_m``, ``log_trunc``, the Normal-Wishart sums,
        and a tree density's singleton against its cell below the root.
        """
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise BadConfig("empty snapshot")
        try:
            meta = json.loads(lines[0])
            if meta.get("format") != SNAPSHOT_FORMAT:
                raise BadConfig("not a covermodels snapshot")
            version = meta.get("version")
            if version not in (1, 2, SNAPSHOT_VERSION):
                raise BadConfig(f"unsupported snapshot version {version!r}")
            return cls._load(meta, lines[1:], local_factory, version)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise BadConfig(f"malformed snapshot: {exc!r}") from exc

    @classmethod
    def _load(cls, meta, records, local_factory, version):
        obj = cls.__new__(cls)
        obj.cover = cover_from_state(meta["cover"])
        obj.local_factory = local_factory
        obj.depth_weight_spec, obj._w0_fn = parse_depth_weight(meta["depth_weight"])
        obj.grow = bool(meta["grow"])
        obj.n_obs = int(meta["n_obs"])
        obj.log_evidence = float(meta["log_evidence"])
        obj._fresh = None
        obj.states = states = {}
        contexts = obj.cover.contexts
        # one parse for every record is faster than one per line
        for rec in json.loads("[" + ",".join(records) + "]"):
            cid = rec["cid"]
            if cid not in contexts or cid in states:
                raise BadConfig(f"state record for context {cid!r}, unknown or repeated")
            st = ContextState.__new__(ContextState)
            st.local = local_from_state(rec["local"])
            st.w0 = float(rec["w0"])
            if not 0.0 < st.w0 <= 1.0:
                raise BadConfig(f"stop weight {st.w0} of context {cid} not in (0, 1]")
            st.log_m = float(rec["log_m"])
            st.log_trunc = float(rec["log_trunc"])
            if version < 3:
                st.log_lambda = float(rec["log_lambda"])
                st.log_g = float(rec["log_g"])
                st.v = {int(p): float(val) for p, val in rec["v"]}
            else:
                st.log_g = math.log(st.w0)
                st.v = {p: 1.0 for p in contexts[cid].parent_ids}
            states[cid] = st
        if len(states) != len(contexts):
            missing = sorted(set(contexts) - set(states))
            raise BadConfig(f"snapshot lacks state for contexts {missing}")
        if version == SNAPSHOT_VERSION:
            obj._refresh_all()
        obj._check_counts()
        return obj

    def _check_counts(self):
        cover, states, root = self.cover, self.states, self.cover.root_id
        if self.grow and cover.growth_mode == "replay":
            under = cover.points_under()
            if under[root] != self.n_obs:
                raise BadConfig(f"leaf buffers hold {under[root]} points, n_obs is {self.n_obs}")
            for cid, n in under.items():
                check_seen(states[cid].local, n)
        else:
            check_seen(states[root].local, self.n_obs)
            for cid, ctx in cover.contexts.items():
                if ctx.child_ids:
                    check_nested(states[cid].local, [states[d].local for d in ctx.child_ids])
