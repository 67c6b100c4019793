"""Deterministic equivalents of user rate and BS transmit power.

Under regularized zero forcing inside the outer-precoder subspace, the rate
of a selected user concentrates on log(1 + p_k) and the BS power on
(1/M) sum_i p_i / xi_i, where the effective channel gains xi solve a
fixed-point equation driven by the blocked-complement projections of the
selected users' correlation matrices. The refined ("full") equivalents keep
the O(nu) terms and are used to validate the simplified ones.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NumericalError, ValidationError
from .precoder import interference_nullspace_basis, projected_factor
from .topology import served_and_blocked

log = logging.getLogger(__name__)

GAIN_TOL = 1e-9
GAIN_MAX_ITER = 500
ZERO_GAIN = 1e-12
CONDITION_CAP = 1e12


def _stack(factors):
    """Gram matrix B^H B of the side-by-side factors B = [B_1 ... B_S], and
    the 0/1 block selector E (column i marks the columns of B_i)."""
    stacked = np.concatenate(factors, axis=1)
    owner = np.repeat(np.arange(len(factors)), [f.shape[1] for f in factors])
    blocks = (owner[:, None] == np.arange(len(factors))).astype(float)
    return stacked.conj().T @ stacked, blocks


@dataclass
class GainSolution:
    gains: np.ndarray  # xi per listed user
    iterations: int
    residual: float
    residual_history: list


def _gain_map(gram, blocks, m, nu, gains, counts=None):
    """F(xi), its Jacobian J and B^H T B at ``gains``, all from one solve.

    With B = [B_1 ... B_S], G = B^H B and D = diag(1/(M (nu + xi_j))) repeated
    over each block, push-through gives B^H T B = (I + G D)^-1 G, so F_i is
    the real trace of block i divided by M. Differentiating T gives
    J_ij = tr(C~_i T C~_j T) / (M^2 (nu + xi_j)^2), and
    tr(C~_i T C~_j T) = ||(B^H T B)_ij||_F^2.

    With ``counts``, block i stands for c_i users that share the factor B_i
    and is stacked as sqrt(c_i) B_i; dividing F_i and row i of J by c_i gives
    the map of one such user and its derivative in the shared xi of each group.
    """
    scale = 1.0 / (m * (nu + blocks @ gains))  # diagonal of D
    coupled = np.linalg.solve(np.eye(gram.shape[0]) + gram * scale, gram)  # B^H T B
    cross = blocks.T @ np.abs(coupled) ** 2 @ blocks
    value = np.real(np.diagonal(coupled)) @ blocks / m
    jac = cross / (m * m * (nu + gains) ** 2)
    if counts is not None:
        value = value / counts
        jac = jac / counts[:, None]
    return value, jac, coupled


def solve_effective_gains(factors, nu, tol=GAIN_TOL, max_iter=GAIN_MAX_ITER, init=None,
                          counts=None):
    """Fixed point of xi_i = (1/M) tr(C~_i T), T = ((1/M) sum_j C~_j/(nu+xi_j) + I)^-1,
    for C~_j = B_j B_j^H given by the M x r_j factors B_j.

    Safeguarded Newton iteration (Kelley, Iterative Methods for Linear and
    Nonlinear Equations, SIAM 1995) from ``init``, or from xi = 1 when it is
    None: the step xi + (I - J)^-1 (F(xi) - xi) is taken when it is finite,
    non-negative and lowers the max-abs residual |F(xi) - xi|; otherwise, or
    when I - J is singular, the plain step F(xi). Each map evaluation is one
    (sum r_j) x (sum r_j) solve (see ``_gain_map``; Wagner et al., IEEE TIT
    58(7), 2012). Stops when the residual drops below tol and returns F at
    the last iterate; ``iterations`` counts iterates, and a rejected Newton
    trial costs one extra evaluation.

    ``counts`` gives each factor a multiplicity: factor j then stands for
    c_j users with equal C~_j, hence equal xi, and the solve returns one xi
    per factor, the xi of each of its users.
    """
    if nu <= 0:
        raise ValueError("nu must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if init is not None:
        init = np.asarray(init, dtype=float)
        if init.shape != (len(factors),):
            raise ValueError(f"init must hold one gain per factor ({len(factors)})")
        if not np.all(np.isfinite(init) & (init >= 0.0)):
            raise ValueError("init must be finite and non-negative")
    if counts is not None:
        counts = np.asarray(counts, dtype=float)
        if counts.shape != (len(factors),):
            raise ValueError(f"counts must hold one multiplicity per factor ({len(factors)})")
        if not np.all(np.isfinite(counts) & (counts >= 1.0)):
            raise ValueError("counts must be finite and at least 1")
        factors = [np.sqrt(c) * f for c, f in zip(counts, factors)]
    m = factors[0].shape[0]
    gram, blocks = _stack(factors)
    eye = np.eye(len(factors))

    def evaluate(gains):
        value, jac, _ = _gain_map(gram, blocks, m, nu, gains, counts)
        return gains, value, jac, float(np.max(np.abs(value - gains)))

    gains, value, jac, residual = evaluate(np.ones(len(factors)) if init is None else init)
    history = [residual]
    while residual > tol:
        if len(history) == max_iter:
            raise ConvergenceError(
                f"effective-gain fixed point did not converge in {max_iter} iterations "
                f"(residual {residual:.3e})",
                residual=residual,
                iterations=max_iter,
            )
        try:
            newton = gains + np.linalg.solve(eye - jac, value - gains)
        except np.linalg.LinAlgError:  # I - J is singular
            newton = None
        trial = None
        if newton is not None and np.all(np.isfinite(newton)) and np.all(newton >= 0.0):
            trial = evaluate(newton)
        if trial is None or not trial[3] < residual:
            trial = evaluate(value)  # the plain step
        gains, value, jac, residual = trial
        history.append(residual)
    return GainSolution(value, len(history), residual, history)


@dataclass
class DEResult:
    gains: dict  # user -> xi
    rates: np.ndarray  # per-user DE rate, 0 for unselected users
    powers: np.ndarray  # per-BS DE transmit power
    iterations: int  # max fixed-point iteration count over BSs
    residual: float  # max final residual over BSs


@dataclass
class FullDEResult:
    rates_hat: np.ndarray
    powers_hat: np.ndarray
    gains: dict  # user -> xi
    moments: dict  # bs -> dict with e, cross (e_k columns), coupling, leakage


class GainCache:
    """Memoizes per-BS effective gains, or the failure to find them, keyed
    by (bs, selected, blocked).

    The gains depend on the selection only, not on the rate weights, so one
    cache serves every weighted-sum-rate evaluation in an optimization run.

    Users whose links to a BS have identical factors (the members of a
    hotspot) carry one label there, the lowest such user. The gains depend
    only on the labels of the selected and blocked users and on how often
    each selected label occurs, so keys that agree on these share one solve,
    and clones get bitwise equal gains. The solve runs over the distinct
    labels with their multiplicities as ``counts``, from the last xi the
    cache found for each (BS, label), or from 1 for a label not solved yet.
    """

    def __init__(self, corr_set, graph, nu):
        self.corr_set = corr_set
        self.graph = graph
        self.nu = nu
        self._bases = {}
        self._gains = {}  # (bs, users, blocked) -> (xi, iterations, residual) or the failure
        self._solved = {}  # (bs, labels, counts, blocked labels) -> the same, xi per label
        self._last = {}  # (bs, label) -> last xi solved

    def null_basis(self, bs, blocked):
        key = (bs, blocked)
        if key not in self._bases:
            self._bases[key] = interference_nullspace_basis(self.corr_set, blocked, bs)
        return self._bases[key]

    def projected(self, bs, users, blocked):
        """Projected correlation factors B_k of ``users`` at ``bs``."""
        basis = self.null_basis(bs, blocked)
        return [projected_factor(self.corr_set.link(k, bs), basis) for k in users]

    def gains(self, bs, users, blocked):
        """(xi, iterations, residual) at ``bs`` with ``blocked`` nulled, xi an
        array in ``users`` order.

        A fixed point that failed to converge from the cache's last gains is
        solved again from xi = 1; one that fails from there too is
        remembered, and its ConvergenceError is raised again on every later
        lookup of the key.
        """
        key = (bs, users, blocked)
        if key not in self._gains:
            self._gains[key] = self._from_labels(bs, users, blocked)
        entry = self._gains[key]
        if isinstance(entry, ConvergenceError):
            raise entry.with_traceback(None)
        return entry

    def has(self, bs, users, blocked):
        """Whether ``gains`` already holds an entry for the key, a failure
        included, so that asking for it solves nothing."""
        return (bs, users, blocked) in self._gains

    def _from_labels(self, bs, users, blocked):
        """A key's entry from the solve of its labels, which every key with
        the same labels shares."""
        label_of = self.corr_set.label[:, bs].tolist()
        labels = sorted({label_of[k] for k in users})
        group = [labels.index(label_of[k]) for k in users]
        shared = (bs, tuple(labels), tuple(np.bincount(group).tolist()),
                  tuple(sorted({label_of[k] for k in blocked})))
        if shared not in self._solved:
            self._solved[shared] = self._solve(*shared)
        entry = self._solved[shared]
        if isinstance(entry, ConvergenceError):
            return entry
        xi, iterations, residual = entry
        return xi[group], iterations, residual

    def _solve(self, bs, labels, counts, blocked):
        factors = self.projected(bs, labels, blocked)
        last = [self._last.get((bs, label)) for label in labels]
        starts = [None]  # xi = 1
        if any(xi is not None for xi in last):
            starts.insert(0, np.array([1.0 if xi is None else xi for xi in last]))
        for init in starts:
            try:
                sol = solve_effective_gains(factors, self.nu, init=init, counts=counts)
                break
            except ConvergenceError as exc:
                failure = exc
        else:
            return failure
        self._last.update(((bs, label), xi) for label, xi in zip(labels, sol.gains.tolist()))
        return sol.gains, sol.iterations, sol.residual


def de_rate_power(power, corr_set, graph, nu, gain_cache=None):
    """Deterministic-equivalent rates and powers of one control, the power
    map ``power`` (user -> p, its keys the selection).

    Raises ValidationError when a user carries positive power over a channel
    whose effective gain is numerically zero.
    """
    cache = gain_cache or GainCache(corr_set, graph, nu)
    m = corr_set.dim
    rates = np.zeros(graph.num_users)
    powers = np.zeros(graph.num_bs)
    gains = {}
    worst_iterations = 0
    worst_residual = 0.0
    for n, (users, blocked) in enumerate(served_and_blocked(graph, power)):
        if not users:
            continue
        bs_gains, iters, residual = cache.gains(n, users, blocked)
        worst_iterations = max(worst_iterations, iters)
        worst_residual = max(worst_residual, residual)
        for k, xi in zip(users, bs_gains):
            p = power[k]
            gains[k] = xi
            if xi <= ZERO_GAIN:
                if p > 0:
                    raise ValidationError(
                        f"user {k} has zero effective gain but power {p!r}"
                    )
                continue
            powers[n] += p / xi / m
            rates[k] = np.log1p(p)
    return DEResult(gains, rates, powers, worst_iterations, worst_residual)


def full_de(power, corr_set, graph, nu):
    """Refined deterministic equivalents of the power map ``power``, keeping
    the O(nu) correction terms.

    Per BS, with T the resolvent and C~ the projected correlations, solves
    (I - J) e = u and (I - J) e_k = u_k for the second-order moments and
    evaluates the refined SINR p xi^2 / (nu^2 leakage + (nu + xi)^2) and
    power (1/M) sum_i p_i nu^2 e_i / (nu + xi_i)^2.
    """
    m = corr_set.dim
    cache = GainCache(corr_set, graph, nu)
    rates_hat = np.zeros(graph.num_users)
    powers_hat = np.zeros(graph.num_bs)
    all_gains = {}
    moments = {}
    for n, (users, blocked) in enumerate(served_and_blocked(graph, power)):
        if not users:
            continue
        xi = cache.gains(n, users, blocked)[0]
        count = len(users)
        gram, blocks = _stack(cache.projected(n, users, blocked))
        _, coupling, coupled = _gain_map(gram, blocks, m, nu, xi)
        # tr(C~_i T^2) = ||T B_i||_F^2, and B^H T^2 B = (I + G D)^-1 G (I + D G)^-1
        # = B^H T B - B^H T B D B^H T B
        scale = 1.0 / (m * (nu + blocks @ xi))
        squared = np.real(np.diagonal(coupled) - np.einsum("ij,j,ji->i", coupled, scale, coupled))
        drive = (squared @ blocks) / (nu * nu * m)
        cross_drive = coupling * m * (nu + xi) ** 2 / (nu * nu)  # tr(C~_i T C~_j T) / (nu^2 M)
        system = np.eye(count) - coupling
        cond = np.linalg.cond(system)
        if not np.isfinite(cond) or cond > CONDITION_CAP:
            raise NumericalError(
                f"(I - J) at BS {n} is near singular (condition estimate {cond:.3e})"
            )
        e_vec = np.linalg.solve(system, drive)
        e_mat = np.linalg.solve(system, cross_drive)  # column k solves for u_k
        p_vec = np.array([power[k] for k in users])
        denom_sq = (nu + xi) ** 2
        leakage = np.zeros(count)
        for kk in range(count):
            others = [i for i in range(count) if i != kk]
            # e_mat[kk, i] is component kk of the solution driven by u_i
            leakage[kk] = (
                nu * nu / m * float(np.sum(p_vec[others] * e_mat[kk, others] / denom_sq[others]))
            )
        sinr = p_vec * xi**2 / (nu * nu * leakage + denom_sq)
        powers_hat[n] = float(np.sum(p_vec * nu * nu * e_vec / denom_sq)) / m
        for idx, k in enumerate(users):
            rates_hat[k] = np.log1p(sinr[idx])
            all_gains[k] = xi[idx]
        moments[n] = {
            "users": users,
            "e": e_vec,
            "cross": e_mat,
            "coupling": coupling,
            "leakage": leakage,
        }
    return FullDEResult(rates_hat, powers_hat, all_gains, moments)
