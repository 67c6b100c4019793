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
from .topology import scheduled_neighbors

log = logging.getLogger(__name__)

GAIN_TOL = 1e-9
GAIN_MAX_ITER = 500
ZERO_GAIN = 1e-12
CONDITION_CAP = 1e12


def _stack(factors):
    """Side-by-side factors B = [B_1 ... B_S], their Gram matrix B^H B, and
    the 0/1 block selector E (column i marks the columns of B_i)."""
    stacked = np.concatenate(factors, axis=1)
    owner = np.repeat(np.arange(len(factors)), [f.shape[1] for f in factors])
    blocks = (owner[:, None] == np.arange(len(factors))).astype(float)
    return stacked, stacked.conj().T @ stacked, blocks


@dataclass
class GainSolution:
    gains: np.ndarray  # xi per listed user
    iterations: int
    residual: float
    residual_history: list


def solve_effective_gains(factors, nu, tol=GAIN_TOL, max_iter=GAIN_MAX_ITER):
    """Fixed point of xi_i = (1/M) tr(C~_i T), T = ((1/M) sum_j C~_j/(nu+xi_j) + I)^-1,
    for C~_j = B_j B_j^H given by the M x r_j factors B_j.

    Iterated from xi = 1 until the max-abs change drops below tol. With
    B = [B_1 ... B_S], G = B^H B and D = diag(1/(M (nu + xi_j))) repeated
    over each block, push-through gives B^H T B = (I + G D)^-1 G, so one
    iteration is a single (sum r_j) x (sum r_j) solve and xi_i is the real
    trace of block i divided by M (Wagner et al., IEEE TIT 58(7), 2012).
    """
    if nu <= 0:
        raise ValueError("nu must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    m = factors[0].shape[0]
    _, gram, blocks = _stack(factors)
    eye = np.eye(gram.shape[0])
    gains = np.ones(len(factors))
    history = []
    for it in range(1, max_iter + 1):
        scale = 1.0 / (m * (nu + blocks @ gains))  # diagonal of D
        coupled = np.linalg.solve(eye + gram * scale, gram)  # B^H T B
        new_gains = np.real(np.diagonal(coupled)) @ blocks / m
        residual = float(np.max(np.abs(new_gains - gains)))
        history.append(residual)
        gains = new_gains
        if residual <= tol:
            return GainSolution(gains, it, residual, history)
    raise ConvergenceError(
        f"effective-gain fixed point did not converge in {max_iter} iterations "
        f"(residual {residual:.3e})",
        residual=residual,
        iterations=max_iter,
    )


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
    """Memoizes per-BS effective gains keyed by (bs, selected, blocked).

    The gains depend on the selection only, not on the rate weights, so one
    cache serves every weighted-sum-rate evaluation in an optimization run.
    """

    def __init__(self, corr_set, graph, nu):
        self.corr_set = corr_set
        self.graph = graph
        self.nu = nu
        self._bases = {}
        self._gains = {}

    def null_basis(self, bs, blocked):
        key = (bs, blocked)
        if key not in self._bases:
            self._bases[key] = interference_nullspace_basis(self.corr_set, blocked, bs)
        return self._bases[key]

    def projected(self, bs, users, blocked):
        """Projected correlation factors B_k of ``users`` at ``bs``."""
        basis = self.null_basis(bs, blocked)
        return [projected_factor(self.corr_set.matrix(k, bs).factor(), basis) for k in users]

    def gains(self, bs, users, blocked):
        """xi per user of ``users`` at ``bs`` with ``blocked`` nulled."""
        key = (bs, users, blocked)
        if key not in self._gains:
            sol = solve_effective_gains(self.projected(bs, users, blocked), self.nu)
            self._gains[key] = (
                dict(zip(users, sol.gains)),
                sol.iterations,
                sol.residual,
            )
        return self._gains[key]


def _per_bs_selection(control, graph):
    blocked = scheduled_neighbors(graph, control.selected_union)
    return {
        n: (tuple(sorted(control.selected.get(n, ()))), blocked[n]) for n in range(graph.num_bs)
    }


def de_rate_power(control, corr_set, graph, nu, gain_cache=None):
    """Deterministic-equivalent rates and powers of one composite control.

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
    for n, (users, blocked) in _per_bs_selection(control, graph).items():
        if not users:
            continue
        bs_gains, iters, residual = cache.gains(n, users, blocked)
        worst_iterations = max(worst_iterations, iters)
        worst_residual = max(worst_residual, residual)
        for k in users:
            xi = bs_gains[k]
            p = control.power[k]
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


def full_de(control, corr_set, graph, nu):
    """Refined deterministic equivalents keeping the O(nu) correction terms.

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
    for n, (users, blocked) in _per_bs_selection(control, graph).items():
        if not users:
            continue
        bs_gains, _, _ = cache.gains(n, users, blocked)
        xi = np.array([bs_gains[k] for k in users])
        count = len(users)
        stacked, gram, blocks = _stack(cache.projected(n, users, blocked))
        inverse = np.linalg.inv(np.eye(gram.shape[0]) + gram / (m * (nu + blocks @ xi)))
        # tr(C~_i T C~_j T) = ||(B^H T B)_ij||_F^2 with B^H T B = (I + G D)^-1 G
        cross = blocks.T @ np.abs(inverse @ gram) ** 2 @ blocks
        # tr(C~_i T^2) = ||T B_i||_F^2 with T B = B (I + D G)^-1
        drive = (np.sum(np.abs(stacked @ inverse.conj().T) ** 2, axis=0) @ blocks) / (nu * nu * m)
        coupling = cross / (m * m * (nu + xi[None, :]) ** 2)
        cross_drive = cross / (nu * nu * m)
        system = np.eye(count) - coupling
        cond = np.linalg.cond(system)
        if not np.isfinite(cond) or cond > CONDITION_CAP:
            raise NumericalError(
                f"(I - J) at BS {n} is near singular (condition estimate {cond:.3e})"
            )
        e_vec = np.linalg.solve(system, drive)
        e_mat = np.linalg.solve(system, cross_drive)  # column k solves for u_k
        p_vec = np.array([control.power[k] for k in users])
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
