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
  while the cover sequence could still refine past c, which the cover's
  ``truncates`` at c's depth says.
* ``log_lambda``: the subtree evidence

      lambda_c = m_c                               if c has no children
      lambda_c = w0 * m_c
               + (1 - w0) * trunc_c * prod_d lambda_d   otherwise,

  over materialised children d. The posterior probability that the
  walk stops at c given it got there is g_c = w0 * m_c / lambda_c, and
  it obeys the per observation update g' = g * pi / psi where pi is
  c's local predictive and psi its subtree predictive.

Each context also keeps the pair (log g, log(1 - g)), which changes
only with m or lambda. ``_refresh_lambda`` is the one statement of
lambda and of the pair: one loop over a list of contexts, children
first, which an absorb runs over its path and its new contexts, a load
and ``_refresh_all`` over every context and ``set_w0`` over a chain to
the root. A new context has log m = log lambda = 0, so its pair is
(log w0, log(1 - w0)), which its state starts with. Every query,
absorb and sample reads the kept pair and recomputes nothing.

The state is kept in columns: one list per field (``local``, ``w0``,
``log_w0``, ``log1m_w0``, ``log_m``, ``log_trunc``, ``log_lambda``,
``log_g``, ``log1m_g``), indexed by context id. Both covers number
their contexts 0, 1, 2, ... in the order they make them, and a
context's parent is made before it, so a new context's state is
appended and a walk over the ids downward visits children first.

One absorb scores every matched context once. A local's ``update``
returns its predictive from before the update, which is the pi above,
so the pass that updates the locals also supplies every pi. The
subtree predictives psi are then computed from the stop posteriors
still in force, and only after that are m, trunc and lambda committed.

Growth belongs to the cover, which an absorb asks the same things
whatever its kind. ``extend`` makes the contexts a chain lacks (a
suffix tree's), each with a fresh local that takes the observation.
``observe_and_refine`` hands back each new split child's buffered
block (a kd tree's), which its new local absorbs in one
``absorb_block`` call, as if it had always existed: every local is
exchangeable, so the closed-form block marginal, its ``log_m``, is the
product of the block's sequential predictives, up to rounding. The ys
passed ``prepare`` when absorbed, so a replay prepares nothing. Where
``truncates`` says a chain could have gone deeper, it leaves a
truncation factor and predictions mix in a virtual continuation drawn
from the prior.

One prior serves every context. The posterior is given an empty local,
its ``prior``, and never changes it, so one prior may serve several
posteriors. Every context's local is the prior's ``spawn`` and every
loaded context's its ``load``, so they all share its checked prior. It
is also the one place y is prepared (checked, and routed through a
tree density's partition) for every local on the path.

A snapshot (format version 5) holds only what the data do not give
back: the prior once, in its header, and per context its stop weight,
``log_m``, ``log_trunc`` and what its local learnt (counts, sums and
mixture weights), plus the cover's split records and buffered points.
A tree density learns nothing a snapshot keeps. A load refuses a
snapshot whose prior is not the one it is given, once, from the
header. A kd cover's load routes every buffered y once (the prior's
``prepare_block``), then visits each context once, children first
(``_rebuild``): it checks the local's counts against the points under
the context and lays its tree out from its children's (``refill``);
``_refresh_lambda`` then recomputes ``log_lambda`` and the stop pairs
in the same order. All of it equals the saved model bit for bit, and
the structure is checked (``from_text``). Versions 3 and 4, which
repeat the prior in every record, still load (``upgrade_state``), and
so do version 3's tree counts and points, which are ignored; versions
1 and 2 are refused.
"""

from __future__ import annotations

import copy
import json
import math
from itertools import chain

from .covers import as_size, cover_from_state
from .errors import BadConfig
from .local import (
    check_nested,
    check_prior,
    check_seen,
    local_from_state,
    prepare_block,
    upgrade_state,
)
from .logspace import LOG2, log1mexp

SNAPSHOT_FORMAT = "covermodels-snapshot"
# Version 5 writes the prior once, in the header, and per record only
# what a local learnt. Versions 3 and 4 repeat the prior in every
# record, and version 3 also holds tree counts and points, which a load
# ignores; all three load, and a save writes 5.
SNAPSHOT_VERSION = 5
_LOADABLE_VERSIONS = (3, 4, 5)


# the per-context columns, each a list indexed by context id
_COLUMNS = (
    "local", "w0", "log_w0", "log1m_w0", "log_m", "log_trunc", "log_lambda", "log_g", "log1m_g",
)


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


class CoverModelPosterior:
    """Posterior over cover models, updated one observation at a time.

    Parameters
    ----------
    cover : CoverSequence
        Context structure. May grow while absorbing.
    prior : local model
        An empty local, the model's one prior, kept as ``prior`` and
        never changed. A local offers ``prepare(y)``,
        ``log_predictive(py)``, ``update(py)``, ``sample(rng)`` and
        ``spawn()``, on a kd cover ``absorb_block(ys)``, and for a
        snapshot ``prior()``, ``state_dict()`` and ``load(state)`` (see
        ``local.py``). Every context's local is its ``spawn()``, and it
        is the virtual continuation past a truncated path and the prior
        a snapshot's records are loaded against (``local_from_state``).
        Its ``prepare`` checks y, and routes it through a tree
        density's partition, once per absorb and per queried y, and
        every local on the path reads that one prepared y. A kd cover's
        replayed block goes to a new context's ``absorb_block`` as
        buffered, unprepared.
    depth_weight : str
        Prior stop weight rule, see ``parse_depth_weight``. Its weights
        at depth 1 and at the cover's ``max_depth`` must lie in (0, 1];
        both rules are monotone in depth, so every depth's does.
    """

    def __init__(self, cover, prior, depth_weight="const:0.5"):
        self._setup(cover, prior, depth_weight)
        for ctx in cover.contexts.values():  # in id order
            self._append_state(prior.spawn(), self._w0_fn(ctx.depth))
        self._refresh_all()

    def copy(self) -> "CoverModelPosterior":
        """An independent copy of a VMM's posterior, the one kind whose
        cover and locals (``SuffixTreeCover``, ``DirichletMultinomial``)
        offer ``copy``.

        It holds ``cover.copy()``, a slice of each float column and
        ``local.copy()`` of every context's local; ``n_obs`` and
        ``log_evidence`` are numbers. It shares the prior and the stop
        weight rule, which nothing changes.
        """
        obj = copy.copy(self)
        obj.cover = self.cover.copy()
        for name in _COLUMNS[1:]:
            setattr(obj, name, getattr(self, name)[:])
        obj.local = [local.copy() for local in self.local]
        return obj

    # ---- state management -------------------------------------------------

    def _setup(self, cover, prior, depth_weight, n_obs=0, log_evidence=0.0):
        """Set what construction and a load share: the cover, the prior,
        the stop weight rule, empty columns and the counters. Refuses a
        rule whose weight at depth 1 or at the cover's ``max_depth`` is
        outside (0, 1], so no context the cover can make gets such a
        weight."""
        self.cover = cover
        self.prior = prior
        self.depth_weight_spec, self._w0_fn = parse_depth_weight(depth_weight)
        for depth in (1, cover.max_depth):
            w0 = float(self._w0_fn(depth))
            if not 0.0 < w0 <= 1.0:
                raise BadConfig(f"stop weight {w0} at depth {depth} not in (0, 1]")
        for name in _COLUMNS:
            setattr(self, name, [])
        self.n_obs = n_obs
        self.log_evidence = log_evidence

    def _append_state(self, local, w0, log_m=0.0, log_trunc=0.0):
        """Append the state of the context made next, the one whose id
        is the columns' length. ``log_lambda`` and the stop pair start
        at 0 and (log w0, log(1 - w0)), the values log_m = 0 gives;
        ``_refresh_lambda`` sets them once ``log_m`` is not 0."""
        log_w0 = math.log(w0)
        log1m_w0 = log1mexp(log_w0)
        self.local.append(local)
        self.w0.append(w0)
        self.log_w0.append(log_w0)
        self.log1m_w0.append(log1m_w0)
        self.log_m.append(log_m)
        self.log_trunc.append(log_trunc)
        self.log_lambda.append(0.0)
        self.log_g.append(log_w0)
        self.log1m_g.append(log1m_w0)

    def set_w0(self, cid, w0):
        """Override one context's prior stop weight.

        Intended for fixtures, before any data is absorbed. Raises
        ``KeyError``, writing nothing, for an id the cover does not hold.
        """
        if not 0.0 < w0 <= 1.0:
            raise BadConfig("stop weight must be in (0, 1]")
        if cid not in self.cover.contexts:  # a list would take -1 for the last context
            raise KeyError(cid)
        w0 = self.w0[cid] = float(w0)
        self.log_w0[cid] = math.log(w0)
        self.log1m_w0[cid] = log1mexp(self.log_w0[cid])
        up = []
        while cid is not None:
            up.append(cid)
            cid = self.cover.contexts[cid].parent
        self._refresh_lambda(up)

    def _refresh_lambda(self, cids):
        """Recompute ``log_lambda`` and then the kept stop pair of each
        context of ``cids``, in order, so children must come first.

        lambda = m without children, else w0 * m + (1 - w0) * trunc *
        prod_d lambda_d over the children d; log g = min(0, log_w0 +
        log_m - log_lambda). ``logaddexp`` and ``log1mexp`` are inline
        to save two calls per context, with the same branches and
        operations, so the same values. Every column is read by id.
        """
        contexts = self.cover.contexts
        log_w0, log1m_w0, log_m, log_trunc = self.log_w0, self.log1m_w0, self.log_m, self.log_trunc
        log_lambda, log_g, log1m_g = self.log_lambda, self.log_g, self.log1m_g
        for cid in cids:
            a = log_w0[cid] + log_m[cid]
            kids = contexts[cid].child_ids
            if kids:
                sub = 0.0
                for c in kids:
                    sub += log_lambda[c]
                b = log1m_w0[cid] + log_trunc[cid] + sub
                if a == b:
                    lam = a + LOG2
                else:
                    d = a - b
                    if d > 0:
                        lam = a + math.log1p(math.exp(-d))
                    elif d <= 0:
                        lam = b + math.log1p(math.exp(d))
                    else:
                        lam = d  # a or b is nan
            else:
                lam = log_m[cid]
            log_lambda[cid] = lam
            lg = a - lam
            if lg < 0.0:
                log_g[cid] = lg
                if lg > -LOG2:
                    log1m_g[cid] = math.log(-math.expm1(lg))
                else:
                    log1m_g[cid] = math.log1p(-math.exp(lg))
            else:  # min(0.0, nan) is 0.0 too
                log_g[cid] = 0.0
                log1m_g[cid] = -math.inf

    def _refresh_all(self):
        # a context is made after its parents, so children have larger ids
        self._refresh_lambda(range(len(self.log_m) - 1, -1, -1))

    def stop_posterior(self, cid) -> float:
        """Posterior probability that the walk stops at cid given reach.

        A childless context is a forced terminal, so its value is 1,
        unless the cover ``truncates`` at its depth: then the walk could
        go on past it, and the unforced posterior applies.
        """
        ctx = self.cover.contexts[cid]
        if not ctx.child_ids and not self.cover.truncates(ctx.depth):
            return 1.0
        return math.exp(self.log_g[cid])

    # ---- prediction -------------------------------------------------------

    def _phi(self, path, logpi, py):
        """Subtree predictive of each context on a matched path.

        ``path`` holds the contexts' ids, by which their kept stop pairs
        (``log_g``, ``log1m_g``) are read, ``logpi`` their local log
        predictives at the prepared y ``py``. Where the cover
        ``truncates`` the path, the deepest context continues to the
        virtual one, whose predictive is the prior's. Returns log psi
        per context, root first, where psi is the subtree mixture value
        used by the walk; the root's is the log marginal. The stop
        posteriors must be those in force, so an absorb reads them
        before committing anything.
        """
        log_g, log1m_g = self.log_g, self.log1m_g
        logpsi = [0.0] * len(logpi)
        psi = self.prior.log_predictive(py) if self.cover.truncates(len(path)) else None
        for k in range(len(logpi) - 1, -1, -1):
            cid, lp = path[k], logpi[k]
            lg = log_g[cid]
            if psi is None or lg >= 0.0:
                psi = lp
            else:
                # logaddexp(a, b), inline to save a call per context: the
                # same branches and operations, so the same values
                a = lg + lp
                b = log1m_g[cid] + psi
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
        locals_ = [self.local[cid] for cid in path]
        out = []
        for y in ys:
            py = self.prior.prepare(y)
            logpi = [local.log_predictive(py) for local in locals_]
            out.append((logpi, self._phi(path, logpi, py)))
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
        return self.log_lambda[self.cover.root_id]

    # ---- learning ---------------------------------------------------------

    def absorb(self, x, y) -> float:
        """Score y at x against the current posterior, then update.

        Returns the log predictive that was in force before the update,
        so summing returns over a stream gives the prequential log
        evidence. An observation that raises leaves the posterior as it
        was.
        """
        cover = self.cover
        xq = cover.prepare_query(x)
        path = cover.match_levels(xq)
        locals_, log_m = self.local, self.log_m
        py = self.prior.prepare(y)
        # prepare checked y, and a local rejects a y outside its support
        # before it changes; the locals of one model share one support,
        # so only the first update can reject y, before anything changed
        logpi = [locals_[cid].update(py) for cid in path]
        # a new context's parent exists, so new ones extend the path
        path, made = cover.extend(xq, path)
        for cid in made:
            local = self.prior.spawn()
            self._append_state(local, self._w0_fn(cover.contexts[cid].depth))
            logpi.append(local.update(py))
        # the stop posteriors read here change only below
        logmarg = self._phi(path, logpi, py)[0]

        for cid, lp in zip(path, logpi):
            log_m[cid] += lp
        if cover.truncates(len(path)):
            self.log_trunc[path[-1]] += logpi[-1]
        new = []
        for _, kids in cover.observe_and_refine(xq, y, path[-1]):
            for cid, block in kids:
                local = self.prior.spawn()
                w0 = self._w0_fn(cover.contexts[cid].depth)
                self._append_state(local, w0, local.absorb_block([yb for _, yb in block]))
                new.append(cid)
        # a split makes its children after their parent, and every new
        # context lies below the path, so this refreshes children first
        self._refresh_lambda(reversed(path + new))

        self.n_obs += 1
        self.log_evidence += logmarg
        return logmarg

    # ---- sampling ---------------------------------------------------------

    def sample_y(self, x, rng):
        """Draw y from the posterior predictive at x: walk down the
        matched path, stopping at each context with its stop posterior."""
        xq = self.cover.prepare_query(x)
        path = self.cover.match_levels(xq)
        log_g, locals_ = self.log_g, self.local
        for cid in path[:-1]:
            if rng.uniform() < math.exp(log_g[cid]):
                return locals_[cid].sample(rng)
        cid = path[-1]
        if self.cover.truncates(len(path)) and rng.uniform() >= math.exp(log_g[cid]):
            return self.prior.sample(rng)
        return locals_[cid].sample(rng)

    # ---- persistence ------------------------------------------------------

    def to_text(self) -> str:
        """Serialise to a line oriented text snapshot (JSON records).

        The header holds the prior (its ``prior()``) and the cover. A
        context's record holds its stop weight, ``log_m``, ``log_trunc``
        and what its local learnt (``state_dict()``). ``log_lambda`` is
        derived from those and recomputed on load, and a tree density is
        rebuilt from the kd cover's buffers, so raises ``BadConfig`` for
        a tree density on a cover that keeps none.
        """
        self._check_rebuildable()
        meta = {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "depth_weight": self.depth_weight_spec,
            "n_obs": self.n_obs,
            "log_evidence": self.log_evidence,
            "prior": self.prior.prior(),
            "cover": self.cover.state_dict(),
        }
        lines = [json.dumps(meta, sort_keys=True)]
        for cid, local in enumerate(self.local):
            rec = {
                "cid": cid,
                "w0": self.w0[cid],
                "log_m": self.log_m[cid],
                "log_trunc": self.log_trunc[cid],
                "local": local.state_dict(),
            }
            lines.append(json.dumps(rec, sort_keys=True))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text, prior):
        """Rebuild a posterior from ``to_text`` output, format version 5,
        4 or 3.

        The prior must be supplied again: an empty local, which the
        posterior keeps as ``prior``, and whose ``prior()`` must equal
        the snapshot's (version 5: the header's, checked once; versions
        3 and 4: each record's, by ``upgrade_state``). Every context's
        local is the prior's ``load`` of its record. On a kd cover one
        children-first pass over the contexts checks each local's
        counts, lays its tree density out from the ys buffered under it
        and recomputes ``log_lambda`` and the stop pair, all bit for bit.

        Raises ``BadConfig`` on a snapshot of another version or another
        prior, or one whose structure does not hold together: the checks
        of the cover's ``from_state`` and the locals' ``load``, among
        them whole-number ``n_obs``, one state record for each context
        and for no other, in id order as ``to_text`` writes them, a stop
        weight rule whose weights at depth 1 and at the cover's
        ``max_depth`` lie in (0, 1], and counts that agree with what the
        cover routed. The root's local was offered every
        observation; on a kd cover each context's local was offered the
        points buffered in the leaves under it, those add up to
        ``n_obs``, every buffered y is finite and, for a tree density,
        ``dim`` long and, unless a mixture holds the tree, which skips
        it, in the tree's box; elsewhere children hold no more points
        than their parent, and no local is a tree density. ``log_evidence``, ``log_m`` and
        ``log_trunc`` are finite. Not checked, because that would take a
        refit: their values, and the Normal-Wishart sums beyond their
        shapes, finiteness and positive posterior scale.
        """
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise BadConfig("empty snapshot")
        try:
            meta = json.loads(lines[0])
            if meta.get("format") != SNAPSHOT_FORMAT:
                raise BadConfig("not a covermodels snapshot")
            version = meta.get("version")
            if version not in _LOADABLE_VERSIONS:
                raise BadConfig(f"unsupported snapshot version {version!r}")
            return cls._load(meta, lines[1:], prior)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise BadConfig(f"malformed snapshot: {exc!r}") from exc

    @classmethod
    def _load(cls, meta, records, prior):
        obj = cls.__new__(cls)
        obj._setup(
            cover_from_state(meta["cover"]),
            prior,
            meta["depth_weight"],
            as_size(meta["n_obs"], "n_obs", 0),
            float(meta["log_evidence"]),
        )
        old = meta["version"] < 5  # every record repeats the prior
        if not old:
            check_prior(meta["prior"], prior)
        n = len(obj.cover.contexts)  # numbered 0 .. n - 1
        # one parse for every record is faster than one per line
        for cid, rec in enumerate(json.loads("[" + ",".join(records) + "]")):
            if cid >= n or rec["cid"] != cid:
                raise BadConfig(
                    f"state record {cid} names context {rec['cid']!r}, where records "
                    f"name the contexts 0 to {n - 1} in id order"
                )
            w0 = float(rec["w0"])
            if not 0.0 < w0 <= 1.0:
                raise BadConfig(f"stop weight {w0} of context {cid} not in (0, 1]")
            state = upgrade_state(rec["local"], prior) if old else rec["local"]
            local = local_from_state(state, prior)
            obj._append_state(local, w0, float(rec["log_m"]), float(rec["log_trunc"]))
        # no model writes a log_evidence that is not finite
        if not all(map(math.isfinite, chain([obj.log_evidence], obj.log_m, obj.log_trunc))):
            raise BadConfig("snapshot log_evidence, log_m or log_trunc is not finite")
        if len(obj.local) != n:
            raise BadConfig(f"snapshot lacks state for contexts {list(range(len(obj.local), n))}")
        obj._rebuild()
        return obj

    def _check_rebuildable(self):
        """Raise ``BadConfig`` if a local holds state that a snapshot
        leaves out, a tree density's, and the cover keeps no buffers to
        rebuild it from."""
        if self.cover.leaf_ys() is None and prepare_block(self.prior, []) is not None:
            raise BadConfig("a snapshot rebuilds tree densities from a kd cover's buffers")

    def _rebuild(self):
        """Check each local's counts against what the cover routed to
        its context, then set what the records leave out.

        The leaf buffers of a cover that keeps points (``leaf_ys``, a kd
        cover's) must hold ``n_obs`` ys, each finite: every one passed
        the prior's ``prepare`` when it was absorbed, and the next split
        replays it. The prior prepares them all at once; then one pass,
        children first, takes each context's points (its leaf's slice of
        the block, or its children's), checks its local's counts and
        refills it, and ``_refresh_lambda`` runs over the same order. On
        a cover that keeps none the root's local was offered every
        observation, and children hold no more than their parent."""
        cover, locals_ = self.cover, self.local
        leaves = cover.leaf_ys()
        if leaves is None:
            check_seen(locals_[cover.root_id], self.n_obs)
            for cid, ctx in cover.contexts.items():
                if ctx.child_ids:
                    check_nested(locals_[cid], [locals_[d] for d in ctx.child_ids])
            self._check_rebuildable()
            self._refresh_all()
            return
        ys, runs, seen = [], {}, {}
        for cid, buf in leaves:
            runs[cid] = slice(len(ys), len(ys) + len(buf))
            seen[cid] = len(buf)
            ys += buf
        if len(ys) != self.n_obs:
            raise BadConfig(f"leaf buffers hold {len(ys)} points, n_obs is {self.n_obs}")
        if not all(map(math.isfinite, chain.from_iterable(ys))):
            bad = next(y for y in ys if not all(map(math.isfinite, y)))
            raise BadConfig(f"buffered y {list(bad)} is not finite")
        block = prepare_block(self.prior, ys)
        contexts, done = cover.contexts, {}
        order = range(len(locals_) - 1, -1, -1)  # children first
        for cid in order:
            kids, local = contexts[cid].child_ids, locals_[cid]
            if kids:
                seen[cid] = sum(seen[k] for k in kids)
            check_seen(local, seen[cid])
            if block is not None:
                done[cid] = local.refill(block, [done.pop(k) for k in kids] if kids else runs[cid])
        self._refresh_lambda(order)
