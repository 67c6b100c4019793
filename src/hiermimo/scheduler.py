"""Joint user selection, power allocation, and time-sharing optimization.

The outer problem maximizes a concave utility of deterministic-equivalent
average rates over randomized policies (a set of composite controls with
time-sharing probabilities). It alternates a simplex-constrained concave
maximization of the probabilities with a weighted-sum-rate oracle that
returns the best user set and powers for the current utility gradient,
either by exhaustive subset enumeration or by greedy user addition. Power
allocation inside the oracle is water filling against the per-BS
deterministic transmit-power budget.
"""

import itertools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .det_equiv import GainCache, ZERO_GAIN, de_rate_power
from .errors import ConvergenceError, ParameterError, ValidationError
from .precoder import CompositeControl, outer_precoder
from .topology import served_and_blocked

log = logging.getLogger(__name__)

ENUMERATION_GUARD = 20
GREEDY_IMPROVE_TOL = 1e-12
# Relative slack of the oracles' upper bounds. A fixed point stops within
# GAIN_TOL (1e-9) of xi, which moves a term w log(1 + p) by about
# w GAIN_TOL / xi: below 1e-6 relative wherever the served gains exceed
# 1e-3, as they do wherever the deterministic equivalent holds.
PRUNE_MARGIN = 1e-6
Q_GRAD_TOL = 1e-8
PROB_SNAP = 1e-10
# Newton steps per face of the simplex in the time-sharing solver
FACE_NEWTON_MAX_ITER = 200


# ---------------------------------------------------------------------------
# utility functions
# ---------------------------------------------------------------------------

@dataclass
class UtilityFunction:
    """Separable concave utility U(r) = sum_k weights[k] * u(r_k + eps), u
    the alpha-fair function (Mo & Walrand, IEEE/ACM ToN 8(5), 2000): log at
    alpha = 1 (proportional fairness), x^(1 - alpha) / (1 - alpha) for any
    other alpha >= 0, the weighted sum rate at alpha = 0 and eps = 0."""

    weights: np.ndarray
    alpha: float = 1.0
    eps: float = 1e-4

    def value_and_grad(self, rbar):
        rbar = np.asarray(rbar, dtype=float)
        if np.any(rbar < 0):
            raise ParameterError("average rates must be non-negative")
        shifted = rbar + self.eps
        if self.alpha == 1.0:
            return float(np.dot(self.weights, np.log(shifted))), self.weights / shifted
        value = float(np.dot(self.weights, shifted ** (1.0 - self.alpha) / (1.0 - self.alpha)))
        return value, self.weights * shifted ** (-self.alpha)

    def curvature(self, rbar):
        """Per-user second derivatives weights[k] * u''(rbar_k) (<= 0)."""
        rbar = np.asarray(rbar, dtype=float)
        if self.alpha == 0.0:
            return np.zeros_like(rbar)
        shifted = rbar + self.eps
        if self.alpha == 1.0:
            return -self.weights / shifted**2
        return -self.alpha * self.weights * shifted ** (-self.alpha - 1.0)

    def value(self, rbar):
        return self.value_and_grad(rbar)[0]


def _default_weights(num_users, weights):
    if weights is None:
        return np.full(num_users, 1.0 / num_users)
    w = np.asarray(weights, dtype=float)
    if w.shape != (num_users,) or np.any(w < 0):
        raise ParameterError("weights must be a non-negative vector, one per user")
    return w


def pfs_utility(num_users, eps=1e-4, weights=None):
    if eps <= 0:
        raise ParameterError("pfs requires eps > 0")
    return UtilityFunction(_default_weights(num_users, weights), alpha=1.0, eps=eps)


def alpha_fair_utility(alpha, num_users, eps=1e-4, weights=None):
    if alpha < 0:
        raise ParameterError("alpha must be non-negative")
    return UtilityFunction(_default_weights(num_users, weights), alpha=float(alpha), eps=eps)


def sum_rate_utility(num_users, weights=None):
    return UtilityFunction(_default_weights(num_users, weights), alpha=0.0, eps=0.0)


# ---------------------------------------------------------------------------
# water filling
# ---------------------------------------------------------------------------

def waterfill(weights, gains, m, p_c):
    """Water filling of one BS's users, p_k = (w_k M xi_k / level - 1)^+ with
    the level set so that (1/M) sum p_i / xi_i meets p_c.

    ``weights`` and ``gains`` are aligned sequences, one entry per user; the
    powers come back as a list in the same order, with the level.

    The level is exact (Palomar & Fonollosa, IEEE TSP 53(2), 2005): with the
    active users sorted by w M xi in descending order, the top j of them
    active give the level L_j = sum_{i<=j} w_i M / (M p_c + sum_{i<=j} 1/xi_i),
    and the largest j with L_j < w_j M xi_j is the one that holds. Users with
    zero weight or zero gain get zero power and leave the budget to the rest;
    with no active user the level is None.
    """
    if p_c <= 0:
        raise ParameterError("p_c must be positive")
    powers = [0.0] * len(weights)
    active = [i for i, (w, xi) in enumerate(zip(weights, gains)) if w > 0.0 and xi > ZERO_GAIN]
    if not active:
        return powers, None
    # plain floats, not NumPy: a BS holds a few users, and the running sums
    # are the sequential sums a cumsum would take
    top = {i: weights[i] * m * gains[i] for i in active}
    budget = m * p_c
    weight_sum = inv_gain_sum = 0.0
    level = None
    for j, i in enumerate(sorted(active, key=lambda i: -top[i])):  # stable: ties keep index order
        weight_sum += weights[i]
        inv_gain_sum += 1.0 / gains[i]
        candidate = m * weight_sum / (budget + inv_gain_sum)
        if j == 0 or candidate < top[i]:  # j = 0 is exact for any p_c > 0
            level = candidate
    for i in active:
        powers[i] = max(top[i] / level - 1.0, 0.0)
    return powers, level


# ---------------------------------------------------------------------------
# weighted sum rate and the selection oracles
# ---------------------------------------------------------------------------

@dataclass
class SelectionValue:
    value: float
    powers: dict  # user -> p over the selection, in sorted order


def _bs_terms(key, rate_weights, m, p_c, cache, memo):
    """Water filling of one BS's selection ``key`` = (n, S_n, B_n): its users'
    powers and terms w_k log(1 + p_k), both in S_n order.

    The water filling depends on S_n and B_n only, so ``memo`` (a dict shared
    by the calls of one oracle, whose rate weights are fixed) keeps each key's
    entry and only a missing key is water-filled; a key whose fixed point
    fails stays missing and raises again on every request.
    """
    entry = memo.get(key)
    if entry is None:
        # Python floats: a BS holds a few users, where NumPy scalars cost more
        weights = [float(rate_weights[k]) for k in key[1]]
        powers, _ = waterfill(weights, cache.gains(*key)[0].tolist(), m, p_c)
        entry = memo[key] = (powers, [w * np.log1p(p) for w, p in zip(weights, powers)])
    return entry


def _upper_value(weights, gains, m, p_c):
    """fsum of w log(1 + p) over the water filling of one BS's users at
    ``gains``. The value of a water filling grows with every gain and with
    every added user, so at upper bounds on the gains it bounds the BS's
    value from above."""
    powers, _ = waterfill(weights, gains, m, p_c)
    return math.fsum(w * math.log1p(p) for w, p in zip(weights, powers))


def _path_gains(corr_set, graph):
    """Per user k, (1/M) tr C_k at its serving BS: an upper bound on k's
    effective gain there under any selection, since xi_k = (1/M) tr(C~_k T)
    with T <= I and the projection C~_k of C_k only lowers the trace."""
    serving = [graph.serving[k] for k in range(graph.num_users)]
    return (corr_set.trace[np.arange(graph.num_users), serving] / corr_set.dim).tolist()


def _prunable(bound, target):
    """Whether a candidate whose value is at most ``bound`` cannot reach
    ``target`` once the gains' error is allowed for."""
    return bound < target - PRUNE_MARGIN * abs(target)


def weighted_sum_rate(
    selected, rate_weights, corr_set, graph, nu, p_c, gain_cache=None, memo=None
):
    """Best weighted sum of DE rates achievable with user set ``selected``:
    water-filled powers against the per-BS DE power budget.

    Each BS with selected users is water-filled by ``_bs_terms``, through
    ``memo`` when one is given. The per-user terms are summed exactly rounded
    (``math.fsum``), so the value depends neither on the memo nor on the
    order of the users: selections that swap one hotspot clone for another
    with the same weight tie exactly.
    """
    selected = tuple(sorted(set(selected)))
    if not selected:
        return SelectionValue(0.0, {})
    cache = gain_cache or GainCache(corr_set, graph, nu)
    memo = {} if memo is None else memo
    m = corr_set.dim
    powers, terms = {}, []
    for n, (users, blocked) in enumerate(served_and_blocked(graph, selected)):
        if users:
            bs_powers, bs_terms = _bs_terms((n, users, blocked), rate_weights, m, p_c, cache, memo)
            powers.update(zip(users, bs_powers))
            terms += bs_terms
    return SelectionValue(math.fsum(terms), {k: powers[k] for k in selected})


def assemble_control(powers, corr_set, graph):
    """Composite control for a power map (user -> p, its keys the selection):
    blocked-complement outer precoders per BS plus the powers."""
    power = {k: float(powers[k]) for k in sorted(powers)}
    outer = {n: outer_precoder(corr_set, users, blocked, n)
             for n, (users, blocked) in enumerate(served_and_blocked(graph, power))}
    return CompositeControl(outer=outer, power=power)


@dataclass
class OracleResult:
    """An oracle's pick: its water-filled powers, whose keys are its user
    set, without precoders (``assemble_control`` builds those for the final
    policy)."""

    powers: dict  # user -> p over the selection, in sorted order
    value: float
    rates: np.ndarray  # DE rate vector over all users
    skipped: int  # evaluated candidates skipped because their fixed point failed
    pruned: int  # candidates not evaluated because their upper bound cannot win

    @property
    def selected(self):
        """The selected users, sorted."""
        return tuple(sorted(self.powers))


def _oracle_result(best, num_users, skipped, pruned):
    """The DE rate of a selected user is log(1 + p_k), 0 for the others."""
    rates = np.zeros(num_users)
    for k, p in best.powers.items():
        rates[k] = np.log1p(p)
    return OracleResult(best.powers, best.value, rates, skipped, pruned)


def _float_weights(rate_weights, graph):
    """The rate weights as Python floats, one per user."""
    if len(rate_weights) != graph.num_users:
        raise ParameterError(
            f"got {len(rate_weights)} rate weights for {graph.num_users} users"
        )
    return [float(w) for w in rate_weights]


def best_control_exhaustive(rate_weights, corr_set, graph, nu, p_c, gain_cache=None):
    """Exact weighted-sum-rate oracle: enumerate every user subset.

    Ties break toward fewer users, then lexicographically, so the empty set
    wins when no selection strictly improves on zero. A subset is evaluated
    only when its upper bound, the sum over BSs of the water filling of S_n
    at the path gains (1/M) tr C_k (memoized per (n, S_n)), reaches the best
    value so far less ``PRUNE_MARGIN``; the others are counted as pruned. An
    evaluated candidate whose gain fixed point fails to converge is skipped
    with a warning rather than abort the search, and counted, as in the
    greedy oracle.
    """
    num_users = graph.num_users
    if num_users > ENUMERATION_GUARD:
        raise ParameterError(
            f"exhaustive enumeration is limited to {ENUMERATION_GUARD} users "
            f"(got {num_users}); use the greedy oracle instead"
        )
    weights = _float_weights(rate_weights, graph)
    cache = gain_cache or GainCache(corr_set, graph, nu)
    m = corr_set.dim
    path_gain = _path_gains(corr_set, graph)
    memo, bounds = {}, {}
    skipped = pruned = 0
    best = SelectionValue(0.0, {})
    for size in range(1, num_users + 1):
        for cand in itertools.combinations(range(num_users), size):
            served = {}
            for k in cand:
                served.setdefault(graph.serving[k], []).append(k)
            bound = 0.0
            for n, users in served.items():
                key = n, tuple(users)
                if key not in bounds:
                    bounds[key] = _upper_value([weights[k] for k in users],
                                               [path_gain[k] for k in users], m, p_c)
                bound += bounds[key]
            if _prunable(bound, best.value):
                pruned += 1
                continue
            try:
                res = weighted_sum_rate(cand, rate_weights, corr_set, graph, nu, p_c, cache, memo)
            except ConvergenceError as exc:
                log.warning("skipping candidate %s: %s", cand, exc)
                skipped += 1
                continue
            if res.value > best.value:
                best = res
    return _oracle_result(best, num_users, skipped, pruned)


def best_control_greedy(rate_weights, corr_set, graph, nu, p_c, gain_cache=None):
    """Greedy weighted-sum-rate oracle: add the best strictly improving user
    until none remains.

    It keeps the current selection's (S_n, B_n) and water-filling entry per
    BS. Adding user k changes S_n at ``serving[k]`` and B_n at the BSs of
    ``neighbor_bs[k]`` only, so a candidate water-fills those BSs (in
    increasing BS order, through the oracle's memo) and takes every other
    BS's terms as they are. Its value is the exactly rounded sum of all
    terms, the value ``weighted_sum_rate`` gives the candidate.

    Candidates whose keys need no fixed-point solve are evaluated first, in
    index order. The others are ranked by an upper bound on their value
    and evaluated in that order until the bound falls below the value to
    beat, less ``PRUNE_MARGIN``; the rest are counted as pruned. The gains
    are a standard interference function (Yates, IEEE JSAC 13(7), 1995):
    serving or blocking one more user lowers every gain. So the bound keeps
    every BS's current terms except at ``serving[k]``, where it water-fills
    S_n at their current gains and k at its path gain (1/M) tr C_k. The
    lowest-index candidate of the highest value wins. A candidate whose gain
    fixed point fails to converge is skipped with a warning and counted.
    """
    num_users = graph.num_users
    weights = _float_weights(rate_weights, graph)
    cache = gain_cache or GainCache(corr_set, graph, nu)
    m = corr_set.dim
    path_gain = _path_gains(corr_set, graph)
    memo = {}
    bounds = {}  # (n, S_n, B_n, k) -> bound on BS n's value once it also serves k
    skipped = pruned = 0
    touched = [sorted((graph.serving[k], *graph.neighbor_bs[k])) for k in range(num_users)]
    split = served_and_blocked(graph, ())  # the current selection's (S_n, B_n) per BS
    entries = [([], [])] * graph.num_bs  # and its (powers, terms) per BS
    current_set = ()
    current_value = 0.0

    def evaluate(k, keys):
        """(value, k, split, entries) of candidate k, or None when its fixed
        point fails."""
        cand_split, cand_entries = split.copy(), entries.copy()
        try:
            for n, users, blocked in keys:
                cand_split[n] = users, blocked
                if users:
                    cand_entries[n] = _bs_terms((n, users, blocked), rate_weights, m, p_c,
                                                cache, memo)
        except ConvergenceError as exc:
            log.warning("skipping candidate %s: %s", tuple(sorted((*current_set, k))), exc)
            return None
        value = math.fsum(itertools.chain.from_iterable(terms for _, terms in cand_entries))
        return value, k, cand_split, cand_entries

    while len(current_set) < num_users:
        ready, pending = [], []
        others = None  # per BS n, the current value of every other BS
        for k in range(num_users):
            if k in current_set:
                continue
            n = graph.serving[k]
            keys = []
            for j in touched[k]:
                users, blocked = split[j]
                if j == n:
                    users = tuple(sorted((*users, k)))
                else:
                    blocked = tuple(sorted((*blocked, k)))
                keys.append((j, users, blocked))
            for key in keys:
                if key[1] and key not in memo and not cache.has(*key):
                    break
            else:  # no key needs a fixed-point solve
                ready.append((None, k, keys))
                continue
            users, blocked = split[n]
            bound_key = n, users, blocked, k
            if bound_key not in bounds:
                gains = cache.gains(n, users, blocked)[0].tolist() if users else []
                gains.append(path_gain[k])
                bounds[bound_key] = _upper_value([weights[i] for i in (*users, k)], gains, m,
                                                 p_c)
            if others is None:
                bs_values = [math.fsum(terms) for _, terms in entries]
                others = [math.fsum(bs_values[:j] + bs_values[j + 1:])
                          for j in range(graph.num_bs)]
            pending.append((others[n] + bounds[bound_key], k, keys))
        pending.sort(key=lambda cand: (-cand[0], cand[1]))  # highest bound first
        best = None  # (value, user, split, entries)
        floor = current_value + GREEDY_IMPROVE_TOL
        candidates = ready + pending
        for i, (bound, k, keys) in enumerate(candidates):
            target = floor if best is None else max(floor, best[0])
            if bound is not None and _prunable(bound, target):
                pruned += len(candidates) - i
                if log.isEnabledFor(logging.DEBUG):
                    log.debug("greedy round %d pruned candidates %s", len(current_set),
                              sorted(k for _, k, _ in candidates[i:]))
                break
            cand = evaluate(k, keys)
            if cand is None:
                skipped += 1
            elif best is None or cand[0] > best[0] or (cand[0] == best[0] and k < best[1]):
                best = cand
        if best is None or best[0] <= floor:
            break
        current_value, k, split, entries = best
        current_set = tuple(sorted((*current_set, k)))
    powers = {}
    for (users, _), (bs_powers, _) in zip(split, entries):
        powers.update(zip(users, bs_powers))
    best = SelectionValue(current_value, {k: powers[k] for k in current_set})
    return _oracle_result(best, num_users, skipped, pruned)


# ---------------------------------------------------------------------------
# time-sharing probabilities
# ---------------------------------------------------------------------------

def project_simplex(v):
    """Euclidean projection onto the probability simplex."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, v.size + 1)
    cond = u + (1.0 - css) / idx > 0
    rho = int(np.max(idx[cond]))
    tau = (css[rho - 1] - 1.0) / rho
    return np.maximum(v - tau, 0.0)


def _face_newton(rates, util, q, active):
    """Maximize the utility over one face of the simplex (fixed support).

    Equality-constrained Newton steps in the active coordinates with a
    feasibility-capped Armijo line search. Returns the face optimum and the
    indices that hit zero on the way.
    """
    idx = np.flatnonzero(active)
    ra = rates[idx]
    ones = np.ones(idx.size)
    for _ in range(FACE_NEWTON_MAX_ITER):
        rbar = q @ rates
        val, mu = util.value_and_grad(rbar)
        grad = ra @ mu
        curv = util.curvature(rbar)
        hess = (ra * curv) @ ra.T
        # KKT system for max: [-H 1; 1^T 0] [d; lam] = [g; 0]
        shift = max(1e-12, 1e-12 * float(np.max(np.abs(hess))))
        kkt = np.zeros((idx.size + 1, idx.size + 1))
        kkt[: idx.size, : idx.size] = -hess + shift * np.eye(idx.size)
        kkt[: idx.size, idx.size] = ones
        kkt[idx.size, : idx.size] = ones
        rhs = np.concatenate([grad, [0.0]])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            break
        direction = sol[: idx.size]
        slope = float(grad @ direction)
        if slope <= 0 or float(np.max(np.abs(direction))) <= 1e-16:
            break
        # cap the step so q stays non-negative
        shrink = direction < 0
        cap = 1.0
        if np.any(shrink):
            cap = min(1.0, float(np.min(q[idx][shrink] / -direction[shrink])))
        step = cap
        accepted = False
        for _ in range(60):
            cand = q.copy()
            cand[idx] = np.maximum(q[idx] + step * direction, 0.0)
            cand /= cand.sum()
            cand_val = util.value(cand @ rates)
            if cand_val >= val + 1e-4 * step * slope:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        q = cand
        if slope * step <= 1e-15 * max(1.0, abs(val)):
            break
    dropped = idx[q[idx] <= PROB_SNAP]
    return q, dropped


def optimize_time_sharing(rates_matrix, util, init=None):
    """Maximize util over time-sharing probabilities for fixed controls.

    rates_matrix has one row of per-user DE rates per control. Active-set
    Newton on the simplex: optimize over the current support, drop
    coordinates that reach zero, re-admit any coordinate whose gradient
    beats the support's common multiplier, until the simplex-projected
    gradient norm falls below Q_GRAD_TOL. Probabilities below 1e-10 are
    snapped to zero and the rest renormalized.
    """
    rates = np.atleast_2d(np.asarray(rates_matrix, dtype=float))
    count = rates.shape[0]
    if count < 1:
        raise ParameterError("need at least one control")
    if count == 1:
        return np.array([1.0])
    if init is None:
        q = np.full(count, 1.0 / count)
    else:
        q = project_simplex(np.asarray(init, dtype=float))
        q[q < PROB_SNAP] = 0.0
        q /= q.sum()
    active = q > 0
    converged = False
    for _ in range(4 * count + 16):
        q, dropped = _face_newton(rates, util, q, active)
        if dropped.size:
            active[dropped] = False
            q[dropped] = 0.0
            q /= q.sum()
        _, mu = util.value_and_grad(q @ rates)
        grad = rates @ mu
        pg = float(np.linalg.norm(project_simplex(q + grad) - q))
        if pg <= Q_GRAD_TOL:
            converged = True
            break
        if dropped.size:
            continue  # optimize the smaller face before re-admitting
        # re-admit the most promising zero coordinate, if any beats the face
        level = float(np.max(grad[active]))
        outside = np.flatnonzero(~active)
        if outside.size == 0:
            break
        best = outside[int(np.argmax(grad[outside]))]
        if grad[best] <= level + 1e-14 * max(1.0, abs(level)):
            break
        active[best] = True
    if not converged:
        log.warning("time-sharing solver stopped at projected gradient %.3e > %.1e", pg,
                    Q_GRAD_TOL)
    q = np.where(q < PROB_SNAP, 0.0, q)
    return q / q.sum()


def _reduce_support(rates, q, max_support):
    """Shrink the support of q without moving the mixed rate vector, walking
    along null directions of the (rates, sum-to-one) constraints."""
    q = q.copy()
    while int(np.count_nonzero(q)) > max_support:
        idx = np.flatnonzero(q)
        a = np.vstack([rates[idx].T, np.ones(idx.size)])
        _, s, vt = np.linalg.svd(a)
        null = vt[-1]
        if float(np.linalg.norm(a @ null)) > 1e-9 * max(float(s[0]), 1.0):
            # constraints are numerically full rank: exact reduction is not
            # possible, drop the weakest member instead
            drop = idx[int(np.argmin(q[idx]))]
            log.warning("support reduction drops control %d with q=%.3e", drop, q[drop])
            q[drop] = 0.0
            q /= q.sum()
            continue
        if not np.any(null > 1e-15):
            null = -null
        steps = q[idx][null > 1e-15] / null[null > 1e-15]
        alpha = float(np.min(steps))
        moved = np.maximum(q[idx] - alpha * null, 0.0)
        moved[moved < PROB_SNAP] = 0.0
        q[idx] = moved
        q /= q.sum()
    return q


# ---------------------------------------------------------------------------
# the policy optimizer
# ---------------------------------------------------------------------------

@dataclass
class ControlPolicy:
    """Time-sharing policy: composite controls used with probabilities q."""

    controls: list
    probs: np.ndarray

    def validate(self, corr_set, graph, nu, p_c, gain_cache=None):
        q = np.asarray(self.probs, dtype=float)
        if len(self.controls) != q.size or q.size == 0:
            raise ValidationError("probability vector length must match controls")
        # written so that a NaN fails it
        if not (np.all((q >= 0) & (q <= 1)) and abs(float(q.sum()) - 1.0) <= 1e-10):
            raise ValidationError("probabilities must lie in [0,1] and sum to one")
        if len(self.controls) > graph.num_users:
            raise ValidationError(
                f"policy holds {len(self.controls)} controls, more than K={graph.num_users}"
            )
        cache = gain_cache or GainCache(corr_set, graph, nu)
        for control in self.controls:
            control.validate(corr_set, graph)
            de = de_rate_power(control, corr_set, graph, nu, cache)
            # the slack scales with the budget: at high SNR one ulp of p_c
            # is more than any absolute slack
            if np.any(de.powers > p_c + 1e-6 * max(1.0, p_c)):
                raise ValidationError(
                    f"a control exceeds the DE power budget: {float(de.powers.max())} > {p_c}"
                )
        return self


@dataclass
class TraceRecord:
    iteration: int
    utility: float
    support: int
    slack: float  # oracle slack at this iteration's gradient
    mixed_rates: np.ndarray = None  # q-mixed DE rates at this iteration
    oracle_rates: np.ndarray = None  # DE rates of the oracle's new control


@dataclass
class PolicyResult:
    policy: ControlPolicy
    trace: list
    certificate: float | None
    certificate_kind: str
    converged: bool
    utility: float
    rate_weights: np.ndarray = field(default=None)
    # oracle candidates over the run, the certificate's included: evaluated
    # ones skipped because their fixed point failed, and ones pruned unevaluated
    skipped_candidates: int = 0
    pruned_candidates: int = 0


def optimize_policy(
    corr_set,
    graph,
    util,
    nu,
    p_c,
    mode="greedy",
    eps_stop=1e-6,
    max_outer=100,
    gain_cache=None,
):
    """Alternating optimization of the time-sharing policy.

    Starts from the oracle's pick (user set and powers) at the raw utility
    weights, then repeats: (1) re-optimize probabilities over the collected
    picks and prune zero-probability ones; (2) take the utility gradient at
    the mixed rates and ask the oracle (exhaustive or greedy per ``mode``)
    for a new pick. Stops when the utility changes by at most eps_stop
    between iterations; only the picks of the final policy get their outer
    precoders. The per-iteration slack gradient @ (oracle rates - mixed
    rates) is recorded; in exhaustive mode its final value certifies global
    optimality, in greedy mode the certificate is the exhaustive-vs-greedy
    oracle gap at the final gradient (when enumeration is feasible).
    """
    if mode not in ("exhaustive", "greedy"):
        raise ParameterError(f"mode must be 'exhaustive' or 'greedy', got {mode!r}")
    if not max_outer >= 1:
        raise ParameterError(f"max_outer must be at least 1, got {max_outer!r}")
    if not eps_stop >= 0:
        raise ParameterError(f"eps_stop must be non-negative, got {eps_stop!r}")
    oracle = best_control_exhaustive if mode == "exhaustive" else best_control_greedy
    cache = gain_cache or GainCache(corr_set, graph, nu)
    num_users = graph.num_users

    picks = [oracle(util.weights, corr_set, graph, nu, p_c, cache)]
    skipped, pruned = picks[0].skipped, picks[0].pruned

    trace = []
    prev_utility = None
    prev_q = None
    converged = False
    for iteration in range(max_outer):
        rates = np.stack([pick.rates for pick in picks], axis=0)
        init = None
        if prev_q is not None:
            init = np.concatenate([prev_q, np.zeros(len(picks) - prev_q.size)])
        q = optimize_time_sharing(rates, util, init=init)
        if int(np.count_nonzero(q)) > num_users:
            q = _reduce_support(rates, q, num_users)
        keep = np.flatnonzero(q)
        picks = [picks[j] for j in keep]
        q = q[keep] / q[keep].sum()
        mixed = q @ rates[keep]
        utility_value, grad = util.value_and_grad(mixed)

        new = oracle(grad, corr_set, graph, nu, p_c, cache)
        skipped += new.skipped
        pruned += new.pruned
        slack = float(grad @ (new.rates - mixed))
        trace.append(
            TraceRecord(iteration, utility_value, len(picks), slack, mixed, new.rates)
        )

        stop = prev_utility is not None and abs(utility_value - prev_utility) <= eps_stop
        prev_utility = utility_value
        prev_q = q
        if stop:
            converged = True
            break
        # the powers' keys are the selection, so equal powers mean the same pick
        if all(new.powers != pick.powers for pick in picks):
            picks.append(new)
    if not converged:
        log.warning("policy optimization hit the outer-iteration cap (%d)", max_outer)

    # precoders for the picks of the final probabilities (a later one may
    # have been appended after them)
    final = picks[: prev_q.size]
    controls = [assemble_control(p.powers, corr_set, graph) for p in final]
    policy = ControlPolicy(controls=controls, probs=prev_q)
    if mode == "exhaustive":
        certificate = trace[-1].slack
        certificate_kind = "optimality_slack"
    else:
        if num_users <= ENUMERATION_GUARD:
            star = best_control_exhaustive(grad, corr_set, graph, nu, p_c, cache)
            skipped += star.skipped
            pruned += star.pruned
            certificate = float(grad @ (star.rates - new.rates))
            certificate_kind = "greedy_gap_bound"
        else:
            certificate = None
            certificate_kind = "unavailable"
    return PolicyResult(
        policy=policy,
        trace=trace,
        certificate=certificate,
        certificate_kind=certificate_kind,
        converged=converged,
        utility=prev_utility,
        rate_weights=grad,
        skipped_candidates=skipped,
        pruned_candidates=pruned,
    )
