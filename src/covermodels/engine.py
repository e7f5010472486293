"""Exact incremental posterior inference over cover models.

A cover model generates y given x by walking down the covers: enter at
the root, at each context stop with some probability and emit y from
that context's local model, otherwise move to the context one cover
finer that contains x. The walk is forced to stop at the deepest
matching context. Covers are partition trees, so x matches one chain
of contexts, its path.

The posterior over the latent stop structure is tracked exactly and in
closed form. Per context c three log quantities suffice:

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

Each context also keeps the pair (log g, log(1 - g)), which changes
only with m or lambda. ``_refresh_lambda`` sets it right after lambda,
and ``_init_state`` for a new context; every query, absorb and sample
reads the kept pair and recomputes nothing.

One absorb scores every matched context once. A local's ``update``
returns its predictive from before the update, which is the pi above,
so the pass that updates the locals also supplies every pi. The
subtree predictives psi are then computed from the stop posteriors
still in force, and only after that are m, trunc and lambda committed.

Growth comes in two flavours. Covers that report ``replay`` (kd trees)
hand back the buffered block of each new child so its state is rebuilt
as if the child had always existed: the child's fresh local absorbs
the block in one ``absorb_block`` call, whose closed-form block
marginal is the child's ``log_m``. Every local is exchangeable, so
that is the product of the block's sequential predictives, up to
rounding. The buffered ys passed ``prepare`` when they were absorbed,
so a replay prepares nothing. Covers that report ``truncate``
(suffix trees) materialise contexts lazily; a chain that ends above
the maximum depth leaves a truncation factor behind and predictions
mix in a virtual continuation drawn from a fresh local model.

One prior serves every context. The local factory takes no arguments;
its first product is kept empty and serves as that fresh local, as
the prior that every context of a loaded snapshot must have, and as
the one place y is prepared (checked, and routed through a tree
density's partition) for every local on the path.

A snapshot (format version 3) holds only sufficient statistics: per
context its stop weight, ``log_m``, ``log_trunc`` and local counts and
sums, plus the cover's split records and buffered points. ``log_lambda``
and the stop pair are recomputed bottom-up on load, bit for bit, and
the structure is checked (``from_text``). Versions 1 and 2 are refused.
"""

from __future__ import annotations

import copy
import json
import math

from .covers import cover_from_state
from .errors import BadConfig
from .local import check_nested, check_seen, local_from_state
from .logspace import LOG2, log1mexp, logaddexp

SNAPSHOT_FORMAT = "covermodels-snapshot"
# Version 3 stores no derived state and flat trees, buffers and cover
# records. It is the only version that loads.
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
    """Per context posterior state.

    ``log_w0`` and ``log1m_w0`` are log(w0) and log(1 - w0), kept with
    w0 by ``set_w0`` because every recursion step reads them.

    ``log_g`` and ``log1m_g`` are the stop posterior's log g =
    min(0, log_w0 + log_m - log_lambda) and log(1 - g). The posterior
    sets them (``set_stop``) in ``_refresh_lambda``, right after
    ``log_lambda``, and in ``_init_state``; ``_phi``, ``stop_posterior``
    and ``sample_y`` read them. The constructor leaves them unset, so a
    load computes them once per context, in its bottom-up refresh.
    """

    __slots__ = (
        "local", "w0", "log_w0", "log1m_w0", "log_m", "log_trunc", "log_lambda",
        "log_g", "log1m_g",
    )

    def __init__(self, local, w0):
        self.local = local
        self.set_w0(w0)
        self.log_m = 0.0
        self.log_trunc = 0.0
        self.log_lambda = 0.0

    def set_w0(self, w0):
        self.w0 = w0
        self.log_w0 = math.log(w0)
        self.log1m_w0 = log1mexp(self.log_w0)

    def set_stop(self):
        """Set the kept pair (log g, log(1 - g)) from ``log_w0``,
        ``log_m`` and ``log_lambda``."""
        lg = min(0.0, self.log_w0 + self.log_m - self.log_lambda)
        self.log_g = lg
        self.log1m_g = log1mexp(lg)

    def copy(self) -> "ContextState":
        """A copy holding ``local.copy()``."""
        st = ContextState.__new__(ContextState)
        st.local = self.local.copy()
        st.w0 = self.w0
        st.log_w0 = self.log_w0
        st.log1m_w0 = self.log1m_w0
        st.log_m = self.log_m
        st.log_trunc = self.log_trunc
        st.log_lambda = self.log_lambda
        st.log_g = self.log_g
        st.log1m_g = self.log1m_g
        return st


class CoverModelPosterior:
    """Posterior over cover models, updated one observation at a time.

    Parameters
    ----------
    cover : CoverSequence
        Context structure. May grow while absorbing.
    local_factory : callable () -> local model
        Called with no arguments, builds the local model of y for a new
        context, every time with the same prior. A local offers
        ``prepare(y)``, ``log_predictive(py)``, ``update(py)``,
        ``sample(rng)`` and ``prior()``, and on a kd cover
        ``absorb_block(ys)`` (see ``local.py``). The
        factory's first product stays empty: it is the virtual
        continuation past a truncated path and the reference prior a
        snapshot is checked against on load. Its ``prepare`` checks y,
        and routes it through a tree density's partition, once per
        absorb and per queried y, and every local on the path reads that
        one prepared y. A kd cover's replayed block goes to a new
        context's ``absorb_block`` as buffered, unprepared.
    depth_weight : str
        Prior stop weight rule, see ``parse_depth_weight``.
    """

    def __init__(self, cover, local_factory, depth_weight="const:0.5"):
        self.cover = cover
        self.local_factory = local_factory
        self.depth_weight_spec, self._w0_fn = parse_depth_weight(depth_weight)
        self.states: dict[int, ContextState] = {}
        self.n_obs = 0
        self.log_evidence = 0.0
        self._fresh = local_factory()
        for ctx in sorted(cover.contexts.values(), key=lambda c: c.cid):
            self._init_state(ctx)
        self._refresh_all()

    def copy(self) -> "CoverModelPosterior":
        """An independent copy of a VMM's posterior, the one kind whose
        cover and locals (``SuffixTreeCover``, ``DirichletMultinomial``)
        offer ``copy``.

        It holds ``cover.copy()`` and every context's state with
        ``local.copy()``; ``n_obs`` and ``log_evidence`` are numbers. It
        shares the local factory, the stop weight rule and the fresh
        local, which nothing changes.
        """
        obj = copy.copy(self)
        obj.cover = self.cover.copy()
        obj.states = {cid: st.copy() for cid, st in self.states.items()}
        return obj

    # ---- state management -------------------------------------------------

    def _init_state(self, ctx):
        w0 = float(self._w0_fn(ctx.depth))
        if not 0.0 < w0 <= 1.0:
            raise BadConfig(f"stop weight {w0} at depth {ctx.depth} not in (0, 1]")
        st = ContextState(self.local_factory(), w0)
        st.set_stop()
        self.states[ctx.cid] = st
        return st

    def set_w0(self, cid, w0):
        """Override one context's prior stop weight.

        Intended for fixtures, before any data is absorbed.
        """
        if not 0.0 < w0 <= 1.0:
            raise BadConfig("stop weight must be in (0, 1]")
        self.states[cid].set_w0(float(w0))
        while cid is not None:
            self._refresh_lambda(cid)
            cid = self.cover.contexts[cid].parent

    def _refresh_lambda(self, cid):
        ctx = self.cover.contexts[cid]
        st = self.states[cid]
        if not ctx.child_ids:
            st.log_lambda = st.log_m
        else:
            log_sub = 0.0
            for d in ctx.child_ids:
                log_sub += self.states[d].log_lambda
            st.log_lambda = logaddexp(st.log_w0 + st.log_m, st.log1m_w0 + st.log_trunc + log_sub)
        st.set_stop()

    def _refresh_all(self):
        # a context is made after its parents, so children have larger ids
        for cid in sorted(self.states, reverse=True):
            self._refresh_lambda(cid)

    def stop_posterior(self, cid) -> float:
        """Posterior probability that the walk stops at cid given reach.

        A childless context in a replayed cover is a forced terminal, so
        its value is 1; under truncation growth the cover can still
        refine past it, above its maximum depth, and the unforced
        posterior applies.
        """
        ctx = self.cover.contexts[cid]
        if not ctx.child_ids and (
            self.cover.growth_mode != "truncate" or ctx.depth >= self.cover.max_depth
        ):
            return 1.0
        return math.exp(self.states[cid].log_g)

    # ---- prediction -------------------------------------------------------

    def _truncated(self, path) -> bool:
        """Whether a matched path ends above the maximum depth of a
        truncating cover, which can still refine past its end."""
        return self.cover.growth_mode == "truncate" and len(path) < self.cover.max_depth

    def _virtual(self, path, py):
        """Log predictive of the virtual continuation past a truncated
        path (see ``_truncated``) at the prepared y ``py``, else None."""
        if self._truncated(path):
            return self._fresh.log_predictive(py)
        return None

    def _phi(self, states, logpi, virtual):
        """Subtree predictive of each context on a matched path.

        ``states`` holds each context's state, whose kept stop pair
        (``log_g``, ``log1m_g``) is read here, ``logpi`` its local log
        predictive and ``virtual`` the virtual continuation's (see
        ``_virtual``). Returns log psi per context, root first, where
        psi is the subtree mixture value used by the walk; the root's is
        the log marginal. The stop posteriors must be those in force, so
        an absorb reads them before committing anything.
        """
        logpsi = [0.0] * len(logpi)
        psi = virtual  # what the deepest context continues to, if anything
        for k in range(len(logpi) - 1, -1, -1):
            st, lp = states[k], logpi[k]
            lg = st.log_g
            if psi is None or lg >= 0.0:
                psi = lp
            else:
                # logaddexp(a, b), inline to save a call per context: the
                # same branches and operations, so the same values
                a = lg + lp
                b = st.log1m_g + psi
                if a == b:
                    psi = a + LOG2
                else:
                    d = a - b
                    if d > 0:
                        psi = a + math.log1p(math.exp(-d))
                    elif d <= 0:
                        psi = b + math.log1p(math.exp(d))
                    else:
                        psi = d  # a or b is nan
            logpsi[k] = psi
        return logpsi

    def _query(self, x, ys):
        """Score every y of ys at x without changing anything.

        x is prepared and matched once for all of ys. Returns the path
        and, per y, (log pi per context, log psi per context).
        """
        path = self.cover.match_levels(self.cover.prepare_query(x))
        states = [self.states[cid] for cid in path]
        locals_ = [st.local for st in states]
        out = []
        for y in ys:
            py = self._fresh.prepare(y)
            logpi = [local.log_predictive(py) for local in locals_]
            out.append((logpi, self._phi(states, logpi, self._virtual(path, py))))
        return path, out

    def log_predictives(self, x, ys):
        """Log predictive density (or mass) of each y of ys at x, as a
        list. Does not mutate. One call costs one match however many ys
        it scores, and reads each context's kept stop posterior."""
        return [logpsi[0] for _, logpsi in self._query(x, ys)[1]]

    def predict_logdensity(self, x, y) -> float:
        """Log predictive density (or mass) of y at x. Does not mutate."""
        return self.log_predictives(x, (y,))[0]

    def psi_table(self, x, y):
        """Introspection: per matched context predictive decomposition.

        Returns (rows, log_marginal). Each row is a dict with cid,
        depth, log_local and log_psi, ordered coarse to fine. At a
        terminal context log_psi equals log_local unless a virtual
        continuation applies.
        """
        path, [(logpi, logpsi)] = self._query(x, (y,))
        rows = [
            {"cid": cid, "depth": k + 1, "log_local": logpi[k], "log_psi": logpsi[k]}
            for k, cid in enumerate(path)
        ]
        return rows, logpsi[0]

    def log_marginal_likelihood(self) -> float:
        """Exact log evidence of everything absorbed so far.

        Equals the running sum of absorb() returns when the cover did
        not replay blocks.
        """
        return self.states[self.cover.root_id].log_lambda

    # ---- learning ---------------------------------------------------------

    def absorb(self, x, y) -> float:
        """Score y at x against the current posterior, then update.

        Returns the log predictive that was in force before the update,
        so summing returns over a stream gives the prequential log
        evidence. An observation that raises leaves the posterior as it
        was.
        """
        xq = self.cover.prepare_query(x)
        path = self.cover.match_levels(xq)
        states = self.states
        py = self._fresh.prepare(y)
        # prepare checked y, and a local rejects a y outside its support
        # before it changes; the locals of one model share one support,
        # so only the first update can reject y, before anything changed
        logpi = [states[cid].local.update(py) for cid in path]
        if self.cover.growth_mode == "truncate":
            # a new context's parent exists, so new ones extend the path
            path, made = self.cover.extend(xq, path)
            for cid in made:
                logpi.append(self._init_state(self.cover.contexts[cid]).local.update(py))
        # the stop posteriors read here change only below
        logmarg = self._phi([states[cid] for cid in path], logpi, self._virtual(path, py))[0]

        for cid, lp in zip(path, logpi):
            states[cid].log_m += lp
        if self._truncated(path):
            states[path[-1]].log_trunc += logpi[-1]
        new = []
        if self.cover.growth_mode == "replay":
            for _, kids in self.cover.observe_and_refine(xq, y, path[-1]):
                for cid, block in kids:
                    st = self._init_state(self.cover.contexts[cid])
                    st.log_m = st.local.absorb_block([yb for _, yb in block])
                    new.append(cid)
        # a split makes its children after their parent, and every new
        # context lies below the path, so this refreshes children first
        for cid in reversed(path + new):
            self._refresh_lambda(cid)

        self.n_obs += 1
        self.log_evidence += logmarg
        return logmarg

    # ---- sampling ---------------------------------------------------------

    def sample_y(self, x, rng):
        """Draw y from the posterior predictive at x: walk down the
        matched path, stopping at each context with its stop posterior."""
        xq = self.cover.prepare_query(x)
        path = self.cover.match_levels(xq)
        states = [self.states[cid] for cid in path]
        for st in states[:-1]:
            if rng.uniform() < math.exp(st.log_g):
                return st.local.sample(rng)
        st = states[-1]
        if self._truncated(path) and rng.uniform() >= math.exp(st.log_g):
            return self._fresh.sample(rng)
        return st.local.sample(rng)

    # ---- persistence ------------------------------------------------------

    def to_text(self) -> str:
        """Serialise to a line oriented text snapshot (JSON records).

        A context's record holds its stop weight, ``log_m``,
        ``log_trunc`` and local model. ``log_lambda`` is derived from
        those and recomputed on load.
        """
        meta = {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "depth_weight": self.depth_weight_spec,
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
        """Rebuild a posterior from ``to_text`` output, format version 3.

        The local factory is not serialised and must be supplied again.
        ``log_lambda`` and the stop pairs are recomputed bottom-up.

        Raises ``BadConfig`` on a snapshot of another version, or one
        whose structure does not hold together: the checks of the
        cover's and the locals' ``from_state``, which take ``n_obs`` as
        the bound on a tree density's counts before those size anything,
        a state for each context and for no other, and counts that agree
        with what the cover routed. The root's local was offered every
        observation; on a kd cover each context's local was offered the
        points buffered in the leaves under it, those add up to
        ``n_obs``, and every buffered y is finite; elsewhere children
        hold no more points than their parent. ``log_evidence``, ``log_m``
        and ``log_trunc`` are finite. Not checked, because that would take
        a refit: their values, the Normal-Wishart sums beyond their
        shapes, finiteness and positive posterior scale, and a tree
        density's singleton against its cell below the root. Every
        context's local must have the prior of the factory's.
        """
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise BadConfig("empty snapshot")
        try:
            meta = json.loads(lines[0])
            if meta.get("format") != SNAPSHOT_FORMAT:
                raise BadConfig("not a covermodels snapshot")
            version = meta.get("version")
            if version != SNAPSHOT_VERSION:
                raise BadConfig(f"unsupported snapshot version {version!r}")
            return cls._load(meta, lines[1:], local_factory)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise BadConfig(f"malformed snapshot: {exc!r}") from exc

    @classmethod
    def _load(cls, meta, records, local_factory):
        obj = cls.__new__(cls)
        obj.cover = cover_from_state(meta["cover"])
        obj.local_factory = local_factory
        obj.depth_weight_spec, obj._w0_fn = parse_depth_weight(meta["depth_weight"])
        obj.n_obs = int(meta["n_obs"])
        obj.log_evidence = float(meta["log_evidence"])
        logs = [obj.log_evidence]  # no model writes one that is not finite
        obj._fresh = local_factory()
        obj.states = states = {}
        contexts = obj.cover.contexts
        # one parse for every record is faster than one per line
        for rec in json.loads("[" + ",".join(records) + "]"):
            cid = rec["cid"]
            if cid not in contexts or cid in states:
                raise BadConfig(f"state record for context {cid!r}, unknown or repeated")
            w0 = float(rec["w0"])
            if not 0.0 < w0 <= 1.0:
                raise BadConfig(f"stop weight {w0} of context {cid} not in (0, 1]")
            # no local can have seen more than every observation
            st = ContextState(local_from_state(rec["local"], obj.n_obs), w0)
            st.log_m = float(rec["log_m"])
            st.log_trunc = float(rec["log_trunc"])
            logs += (st.log_m, st.log_trunc)
            states[cid] = st
        if not all(map(math.isfinite, logs)):
            raise BadConfig("snapshot log_evidence, log_m or log_trunc is not finite")
        if len(states) != len(contexts):
            missing = sorted(set(contexts) - set(states))
            raise BadConfig(f"snapshot lacks state for contexts {missing}")
        prior = obj._fresh.prior()
        for cid, st in states.items():
            if st.local.prior() != prior:
                raise BadConfig(f"context {cid}'s local has another prior than the model's")
        if obj.cover.growth_mode == "replay":
            # every buffered y passed the fresh local's prepare when it was
            # absorbed, and the next split replays it
            for y in obj.cover.buffered_ys():
                if not all(map(math.isfinite, y)):
                    raise BadConfig(f"buffered y {list(y)} is not finite")
        obj._refresh_all()
        obj._check_counts()
        return obj

    def _check_counts(self):
        cover, states, root = self.cover, self.states, self.cover.root_id
        if cover.growth_mode == "replay":
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
