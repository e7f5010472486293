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
  walk stops at c given it got there is g_c = w0 * m_c / lambda_c.

g does not depend on y, so the predictive at x, the nested recursion
psi_k = g_k pi_k + (1 - g_k) psi_{k+1} over the path's contexts, root
first, with local predictives pi_k, unrolls to a mixture whose
weights, the law of where the walk stops, are fixed per x:

      psi(y | x) = sum_k w_k * pi_k(y),   w_k = g_k * prod_{j<k} (1 - g_j).

The deepest context takes the rest of the mass, unless the cover
``truncates`` the path: then it takes its share g, and a virtual
continuation, whose pi is the prior's, the remainder. Every query,
absorb and sample reads the weights from ``stop_weights``, and an
update moves each g_k to g_k pi_k / psi_k. ``psi_table`` lists the
terms, a row per context and one for a virtual continuation;
``sample_y`` draws where the walk stops with one uniform.

Each context keeps the pair (log g, log(1 - g)), which changes only
with m or lambda. ``_refresh_lambda`` is the one statement of lambda
and of the pair: one loop over a list of contexts, children first,
which an absorb runs over its path and its new contexts, a load and
``_refresh_all`` over every context and ``set_w0`` over a chain to the
root. A new context has log m = log lambda = 0, so its pair is
(log w0, log(1 - w0)), which its state starts with.

The state is kept in columns: one list per field (``local``, ``w0``,
``log_w0``, ``log1m_w0``, ``log_m``, ``log_trunc``, ``log_lambda``,
``log_g``, ``log1m_g``), indexed by context id. Both covers number
their contexts 0, 1, 2, ... in the order they make them, and a
context's parent is made before it, so a new context's state is
appended and a walk over the ids downward visits children first.

One absorb scores every matched context once. A local's ``update``
returns its predictive from before the update, which is the pi above,
so the pass that updates the locals also supplies every pi. They are
mixed by the stop weights still in force, and only after that are m,
trunc and lambda committed.

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
truncation factor.

One prior serves every context, and several posteriors (the class's
``prior``). Every context's local is its ``spawn`` and every loaded
context's its ``load``, so they all share its checked prior.

A snapshot (format version 6) holds only what the data do not give
back: the prior once, in its header, and per context one row, its id,
stop weight, ``log_m``, ``log_trunc`` and what its local learnt
(counts, sums and mixture weights), plus the cover's split records and
buffered points or suffix links. A tree density learns nothing a
snapshot keeps: a kd cover's load lays each tree out from the buffered
ys, children first (``_rebuild``), and all of it equals the saved
model bit for bit. Versions 3 to 5, which write a keyed record per
context and a suffix cover's suffixes, still load: one adapter turns
each record into a row (``_as_row``) and the suffixes into links
(``upgrade_cover_state``). Versions 3 and 4 also repeat the prior in
every record (``upgrade_state``), and version 3 holds tree counts and
points, which are ignored; versions 1 and 2 are refused.
"""

from __future__ import annotations

import copy
import json
import math
from itertools import accumulate, chain
from operator import add

from .covers import as_size, cover_from_state, is_number, upgrade_cover_state
from .errors import BadConfig
from .local import (
    check_nested,
    check_prior,
    check_seen,
    local_from_state,
    upgrade_state,
)
from .logspace import LOG2, log1mexp

SNAPSHOT_FORMAT = "covermodels-snapshot"
SNAPSHOT_VERSION = 6
_LOADABLE_VERSIONS = (3, 4, 5, 6)
# one encoder for every line, rather than one built per json.dumps call
_dumps = json.JSONEncoder(sort_keys=True).encode


# the per-context columns, each a list indexed by context id
_COLUMNS = (
    "local", "w0", "log_w0", "log1m_w0", "log_m", "log_trunc", "log_lambda", "log_g", "log1m_g",
)


def _as_row(rec, prior, version):
    """A version-3, -4 or -5 keyed record as a version-6 row. Versions 3
    and 4 repeat the prior in the record's local, which ``upgrade_state``
    checks and drops."""
    local = rec["local"] if version == 5 else upgrade_state(rec["local"], prior)
    return [rec["cid"], rec["w0"], rec["log_m"], rec["log_trunc"], local]


def _log_mix(log_weights, log_pis):
    """log sum_k exp(log_weights[k] + log_pis[k]), the mixture over where
    the walk stops: the largest term is shifted out and the rest finish
    with ``log1p``. -inf where every term is -inf, and NaN where any term
    is NaN, which ``max`` alone sees only in some positions."""
    terms = list(map(add, log_weights, log_pis))
    top = max(terms)
    if not top > -math.inf:  # every term is -inf, or max met a NaN first
        return sum(terms)
    del terms[terms.index(top)]
    exp, rest = math.exp, 0.0
    for t in terms:
        rest += exp(t - top)
    return top + math.log1p(rest)


def parse_depth_weight(spec):
    """Resolve a stop weight rule to (tag, callable on depth).

    Accepted: ``"const:c"`` for a constant c in (0, 1], ``"2^-k"`` for
    weight 2**-depth, or a bare number treated as a constant.
    """
    if is_number(spec):
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

    def stop_weights(self, path):
        """Log posterior probability that the walk stops at each context
        of ``path``, a matched chain of ids, root first: log w_k = log g_k
        + sum_{j<k} log(1 - g_j), from the kept stop pairs. Where the
        cover ``truncates`` the path, one more weight goes to the virtual
        continuation past it; otherwise the deepest context takes the
        rest, the mass that reached it. The weights sum to 1."""
        log_g, log1m_g = self.log_g, self.log1m_g
        lw, reach = [], 0.0
        for cid in path[:-1]:
            lw.append(reach + log_g[cid])
            reach += log1m_g[cid]
        # reach is taken before the deepest context's log(1 - g): with
        # g = 1 it is -inf, and the difference would be NaN
        if self.cover.truncates(len(path)):
            lw += (reach + log_g[path[-1]], reach + log1m_g[path[-1]])
        else:
            lw.append(reach)
        return lw

    # ---- prediction -------------------------------------------------------

    def _query(self, x, ys):
        """Score every y of ys at x without changing anything: x is
        prepared and matched once. Returns the path, its ``stop_weights``
        and, per y, the log predictive of each place the walk can stop:
        the path's locals, then the prior where the path truncates."""
        path = self.cover.match_levels(self.cover.prepare_query(x))
        lw = self.stop_weights(path)
        locals_ = [self.local[cid] for cid in path]
        if len(lw) > len(path):
            locals_.append(self.prior)
        pys = map(self.prior.prepare, ys)
        return path, lw, [[local.log_predictive(py) for local in locals_] for py in pys]

    def log_predictives(self, x, ys):
        """Log predictive density (or mass) of each y of ys at x, as a
        list. Does not mutate. One call costs one match and one read of
        the stop weights however many ys it scores."""
        _, lw, logpis = self._query(x, ys)
        return [_log_mix(lw, logpi) for logpi in logpis]

    def predict_logdensity(self, x, y) -> float:
        """Log predictive density (or mass) of y at x. Does not mutate."""
        return self.log_predictives(x, (y,))[0]

    def psi_table(self, x, y):
        """Introspection: the predictive of y at x as a mixture over
        where the walk stops. Returns (rows, log_marginal): coarse to
        fine, one row per context, a dict of cid, depth, log_local (its
        local's log predictive) and log_weight (``stop_weights``); a
        truncated path adds a row of cid None at depth len(path) + 1, the
        virtual continuation, whose log_local is the prior's. The
        marginal is log sum exp(log_weight + log_local) over the rows."""
        path, lw, [logpi] = self._query(x, (y,))
        rows = [
            {"cid": cid, "depth": k + 1, "log_local": lp, "log_weight": w}
            for k, (cid, w, lp) in enumerate(zip(path + [None], lw, logpi))
        ]
        return rows, _log_mix(lw, logpi)

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
        # the stop weights read here change only below
        lw = self.stop_weights(path)
        virtual = [self.prior.log_predictive(py)] if len(lw) > len(path) else []
        logmarg = _log_mix(lw, logpi + virtual)

        for cid, lp in zip(path, logpi):
            log_m[cid] += lp
        if virtual:  # the path truncates
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
        """Draw y from the posterior predictive at x: one uniform picks
        where the walk stops by the cumulative ``stop_weights``, the last
        place taking any rounding remainder, and that place's local, or
        the prior past a truncated path, draws y."""
        path = self.cover.match_levels(self.cover.prepare_query(x))
        lw = self.stop_weights(path)
        u, cum = rng.uniform(), accumulate(map(math.exp, lw[:-1]))
        k = next((k for k, c in enumerate(cum) if u < c), len(lw) - 1)
        return (self.local[path[k]] if k < len(path) else self.prior).sample(rng)

    # ---- persistence ------------------------------------------------------

    def to_text(self) -> str:
        """Serialise to a line oriented text snapshot (JSON lines).

        The header holds the prior (its ``prior()``) and the cover. Each
        context's row, in id order, is ``[cid, w0, log_m, log_trunc,
        state]``: its id, stop weight, ``log_m``, ``log_trunc`` and what
        its local learnt (``state_dict()``). ``log_lambda`` is derived
        from those and recomputed on load, and a tree density is rebuilt
        from the kd cover's buffers, so raises ``BadConfig`` for a tree
        density on a cover that keeps none.
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
        lines = [_dumps(meta)]
        w0, log_m, log_trunc = self.w0, self.log_m, self.log_trunc
        for cid, local in enumerate(self.local):
            lines.append(_dumps([cid, w0[cid], log_m[cid], log_trunc[cid], local.state_dict()]))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text, prior):
        """Rebuild a posterior from ``to_text`` output, format version 6,
        5, 4 or 3.

        The prior must be supplied again: an empty local, which the
        posterior keeps as ``prior``, and whose ``prior()`` must equal
        the snapshot's (versions 5 and 6: the header's, checked once;
        versions 3 and 4: each record's, by ``upgrade_state``). Every
        context's local is the prior's ``load`` of its row's state. On a
        kd cover one children-first pass over the contexts checks each
        local's counts, lays its tree density out from the ys buffered
        under it and recomputes ``log_lambda`` and the stop pair, all
        bit for bit.

        Raises ``BadConfig`` on a snapshot of another version or another
        prior, or one whose structure does not hold together: a header
        that is not a JSON object, the checks of the cover's
        ``from_state`` and the locals' ``load``, among them whole-number
        ``n_obs``, one five-element row for each context and for no
        other, in id order as ``to_text`` writes them, a stop weight rule
        whose weights at depth 1 and at the cover's ``max_depth`` lie in
        (0, 1], and counts that agree with what the cover routed. The
        root's local was offered every observation; on a kd cover each
        context's local was offered the points buffered in the leaves
        under it, those add up to ``n_obs``, every buffered y is finite
        and, for a tree density, ``dim`` long and, unless a mixture holds
        the tree, which skips it, in the tree's box; elsewhere children
        hold no more points than their parent, and no local is a tree
        density. ``log_evidence``, ``w0``, ``log_m`` and ``log_trunc``
        are JSON numbers, ints or floats and not bools or strings, and
        finite. Not checked, because that would take a refit: their
        values, and the Normal-Wishart sums beyond their shapes,
        finiteness and positive posterior scale.
        """
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise BadConfig("empty snapshot")
        try:
            meta = json.loads(lines[0])
            if not isinstance(meta, dict) or meta.get("format") != SNAPSHOT_FORMAT:
                raise BadConfig("not a covermodels snapshot")
            version = meta.get("version")
            if version not in _LOADABLE_VERSIONS:
                raise BadConfig(f"unsupported snapshot version {version!r}")
            # one parse for every row is faster than one per line
            rows = json.loads("[" + ",".join(lines[1:]) + "]")
            if version < 6:
                meta["cover"] = upgrade_cover_state(meta["cover"])
                rows = [_as_row(rec, prior, version) for rec in rows]
            return cls._load(meta, rows, prior)
        except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
            raise BadConfig(f"malformed snapshot: {exc!r}") from exc

    @classmethod
    def _load(cls, meta, rows, prior):
        obj = cls.__new__(cls)
        obj._setup(
            cover_from_state(meta["cover"]),
            prior,
            meta["depth_weight"],
            as_size(meta["n_obs"], "n_obs", 0),
            meta["log_evidence"],
        )
        if meta["version"] >= 5:  # the header holds the prior
            check_prior(meta["prior"], prior)
        n = len(obj.cover.contexts)  # numbered 0 .. n - 1
        for cid, row in enumerate(rows):
            if type(row) is not list or len(row) != 5:
                raise BadConfig(f"state row {cid} is not a list [cid, w0, log_m, log_trunc, state]")
            rid, w0, log_m, log_trunc, state = row
            if cid >= n or rid != cid:
                raise BadConfig(
                    f"state row {cid} names context {rid!r}, where rows "
                    f"name the contexts 0 to {n - 1} in id order"
                )
            if not 0.0 < w0 <= 1.0:
                raise BadConfig(f"stop weight {w0} of context {cid} not in (0, 1]")
            obj._append_state(local_from_state(state, prior), w0, log_m, log_trunc)
        values = [obj.log_evidence, *obj.w0, *obj.log_m, *obj.log_trunc]
        # JSON's numbers are ints and floats; float() would take a bool or a str
        if not {int, float}.issuperset(map(type, values)):
            raise BadConfig("snapshot log_evidence, w0, log_m or log_trunc is not a number")
        # no model writes a log_evidence that is not finite
        if not all(map(math.isfinite, values)):
            raise BadConfig("snapshot log_evidence, log_m or log_trunc is not finite")
        if len(obj.local) != n:
            raise BadConfig(f"snapshot lacks state for contexts {list(range(len(obj.local), n))}")
        obj._rebuild()
        return obj

    def _check_rebuildable(self):
        """Raise ``BadConfig`` if a local holds state that a snapshot
        leaves out, a tree density's, and the cover keeps no buffers to
        rebuild it from."""
        if self.cover.leaf_ys() is None and self.prior.prepare_block([]) is not None:
            raise BadConfig("a snapshot rebuilds tree densities from a kd cover's buffers")

    def _rebuild(self):
        """Check each local's counts against what the cover routed to
        its context, then set what the records leave out.

        The leaf buffers of a cover that keeps points (``leaf_ys``, a kd
        cover's) must hold ``n_obs`` ys, each finite: every one passed
        the prior's ``prepare`` when it was absorbed, and the next split
        replays it. The prior prepares them all at once
        (``prepare_block``), which refuses a y it would not take; then
        one pass, children first, takes each context's points (its
        leaf's slice of the block, or its children's), checks its
        local's counts and refills it, and ``_refresh_lambda`` runs over
        the same order. On a cover that keeps none the root's local was
        offered every observation, and children hold no more than their
        parent."""
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
        block = self.prior.prepare_block(ys)
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
