"""Monte Carlo validation and baseline schemes.

Validates the deterministic equivalents against sampled channels and runs
two reference schemes: per-cell zero forcing under fractional frequency
reuse, and clustered cooperative zero forcing with an optional AR(1) CSI
delay. Every scheme reads its draws in order from one stream derived from
(seed, scheme), so a run is deterministic per seed, and evaluates them in
chunks of a fixed memory budget, each with one sampling call and one stacked
evaluation; a chunk's normals continue the stream where the previous chunk
stopped, so results do not depend on the chunk size. A draw is 2 K N R
normals, one rank-R coefficient vector w per link
(``corrmat.sample_coefficients``), and no scheme forms the M-dimensional
channels h = F w: the inner precoders of the proposed scheme see only the
effective channels h^H F_n = conj(w) F^H F_n, and each FFR cell or CoMP
cluster zero-forces its users' rows h^H Q_n = conj(w) F^H Q_n in a basis
Q_n of their factors at each of its BSs.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .corrmat import sample_channel, sample_coefficients
from .det_equiv import GainCache, de_rate_power
from .errors import ParameterError, ValidationError
from .precoder import (  # noqa: F401 (cross_interference_power: see draw_channels)
    cross_interference_power,
    inner_precoders,
    instantaneous_rate,
    transmit_power,
    zero_forcing,
)
from .rng import COMP_MC, FFR_MC, POLICY_MC, derive_rng
from .topology import scheduled_neighbors

log = logging.getLogger(__name__)


@dataclass
class MonteCarloReport:
    user_rate_mean: np.ndarray
    user_rate_stderr: np.ndarray
    bs_power_mean: np.ndarray
    bs_power_stderr: np.ndarray
    draws: int
    seed: int
    de_rates: np.ndarray = None
    de_powers: np.ndarray = None
    rate_rel_err: np.ndarray = None
    power_rel_err: np.ndarray = None
    max_interference_ratio: float = None
    mean_cross_interference: float = None

    def sum_rate(self):
        return float(np.sum(self.user_rate_mean))

    def worst_decile_rate(self):
        return float(np.quantile(self.user_rate_mean, 0.1))


def _stderr(samples):
    if samples.shape[0] < 2:
        return np.zeros(samples.shape[1:])
    return np.std(samples, axis=0, ddof=1) / np.sqrt(samples.shape[0])


def draw_channels(corr_set, rng, count=None):
    """Realizations of every link channel: one (K, N, M) array, or the next
    ``count`` draws of ``rng`` as one (count, K, N, M) array. No scheme draws
    them; this name, ``sample_channel`` and ``cross_interference_power``
    stay in this module as patch points of the benchmark's tracer
    (perfbench/spans.py)."""
    return sample_channel(corr_set, rng, count)


def _effective_rows(coefficients, bss, rows, gram):
    """The (D, U, W) effective channel rows of ``rows`` at the consecutive
    BSs ``bss``, for the (D, K, N, 1, R) coefficients of D draws: row j's
    coefficients at ``bss`` side by side, conjugated, times its map
    ``gram[j]`` (|bss| R x W), one product per draw and row."""
    picked = coefficients[:, rows, bss[0] : bss[-1] + 1]
    return (picked.reshape(len(coefficients), len(rows), 1, -1).conj() @ gram)[..., 0, :]


def _control_evaluator(control, corr_set, graph, nu):
    """Evaluation of ``control`` on (D, K, N, 1, R) channel coefficients
    (``sample_coefficients``), and the entries of the largest array it builds
    per draw. It maps a chunk to the rates, BS powers, worst
    interference-to-signal ratio and total power leaked onto protected users
    of each draw.

    The inner precoder of BS n sees the effective channels h_kn^H F_n =
    conj(w_kn) A_kn, A_kn = F_kn^H F_n of size R x M_n, which depend on the
    control only. They are set up once for the rows that enter a result:
    the users selected at n (their rates; the outer precoders null every
    other BS, so only the serving BS interferes) and the users blocked at n
    (what n leaks onto them). Each draw then costs R- and M_n-sized
    products per BS, one 1 x R by R x M_n product per user, and gets the
    same digits in any chunk: the inner RZF beams g, the amplitudes eff g,
    and the BS power sum_l p_l ||g_l||^2, F_n being semi-unitary."""
    m = corr_set.dim
    factor = corr_set.factor()
    blocked = scheduled_neighbors(graph, control.selected_union)
    blocks, protected, entries = [], [], 0
    for n, users in control.selected.items():
        if not users:
            continue
        rows = list(users + blocked[n])
        gram = factor[rows, n].conj().swapaxes(-1, -2) @ control.outer[n]  # U x R x M_n
        power = np.array([control.power[k] for k in users])
        leaked = slice(len(protected), len(protected) + len(blocked[n]))
        blocks.append((n, list(users), rows, gram, power, np.eye(len(users), dtype=bool), leaked))
        protected.extend(blocked[n])
        entries = max(entries, len(rows) * max(*gram.shape[1:], len(users)))

    def evaluate(coefficients):
        lead = coefficients.shape[:-4]
        rates = np.zeros((*lead, graph.num_users))
        signal = np.zeros((*lead, graph.num_users))
        powers = np.zeros((*lead, graph.num_bs))
        leak = np.zeros((*lead, len(protected)))
        for n, users, rows, gram, power, own, leaked in blocks:
            effective = _effective_rows(coefficients, (n,), rows, gram)
            inner = inner_precoders(effective[..., : len(users), :], m, nu)
            received = power * np.abs(effective @ inner) ** 2  # (..., U, S)
            served = received[..., : len(users), :]
            signal[..., users] = np.diagonal(served, axis1=-2, axis2=-1)
            rates[..., users] = instantaneous_rate(signal[..., users],
                                                   np.sum(served, axis=-1, where=~own))
            powers[..., n] = transmit_power(inner[..., None, :, :], power)[..., 0]
            leak[..., leaked] = np.sum(received[..., len(users) :, :], axis=-1)
        ratio = leak / (signal[..., protected] + 1.0)
        worst = np.max(ratio, axis=-1, initial=0.0)
        return rates, powers, worst, np.sum(leak, axis=-1)

    return evaluate, entries


# Draws per chunk: as many as keep the largest array that a scheme builds
# for one chunk within this many complex entries, and at least one. Larger
# chunks save per-call overhead but grow every per-chunk array with them.
CHUNK_ENTRIES = 2**13


def _monte_carlo(draw, entries, corr_set, graph, draws, seed, tag):
    """Report of ``draws`` realizations of one scheme, read in order from the
    stream (seed, tag, 0). Their coefficients go to ``draw`` as (D, K, N, 1,
    R) ``sample_coefficients`` rows, D at most CHUNK_ENTRIES // (K N R or
    ``entries``, the largest other array the scheme builds per draw, if
    larger); it maps them to the (D, K) user rates, (D, N) BS powers, (D,)
    worst interference ratios (None if untracked) and (D,) cross
    interference of those draws."""
    if draws < 1:
        raise ParameterError("draws must be at least 1")
    coefficients = graph.num_users * graph.num_bs * corr_set.factor().shape[-1]
    size = max(1, CHUNK_ENTRIES // max(coefficients, entries, 1))
    rng = derive_rng(seed, tag, 0)
    rate_samples = np.zeros((draws, graph.num_users))
    power_samples = np.zeros((draws, graph.num_bs))
    cross_samples = np.zeros(draws)
    ratios = []
    for start in range(0, draws, size):
        chunk = slice(start, start + size)
        coefficients = sample_coefficients(corr_set, rng, min(size, draws - start))
        rates, powers, ratio, cross_samples[chunk] = draw(coefficients)
        rate_samples[chunk], power_samples[chunk] = rates, powers
        ratios.append(ratio)
    return MonteCarloReport(
        user_rate_mean=rate_samples.mean(axis=0),
        user_rate_stderr=_stderr(rate_samples),
        bs_power_mean=power_samples.mean(axis=0),
        bs_power_stderr=_stderr(power_samples),
        draws=draws,
        seed=int(seed),
        max_interference_ratio=None if ratio is None else float(max(map(np.max, ratios))),
        # a running sum adds the draws in order: np.sum would pair them and
        # so move the last digit of a round-off-level mean
        mean_cross_interference=float(np.cumsum(cross_samples)[-1]) / draws,
    )


def monte_carlo_policy(policy, corr_set, graph, nu, draws, seed, gain_cache=None):
    """Empirical rates and powers of a time-sharing policy.

    Every control is evaluated on every draw and mixed by the probabilities
    (the exact conditional average).
    """
    probs = np.asarray(policy.probs, dtype=float)
    evaluators = [_control_evaluator(control, corr_set, graph, nu) for control in policy.controls]
    entries = max((size for _, size in evaluators), default=0)

    def draw(coefficients):
        rates = np.zeros((len(coefficients), graph.num_users))
        powers = np.zeros((len(coefficients), graph.num_bs))
        worst, cross = np.zeros(len(coefficients)), np.zeros(len(coefficients))
        for q, (evaluate, _) in zip(probs, evaluators):
            r, p, ratio, c = evaluate(coefficients)
            rates += q * r
            powers += q * p
            worst = np.maximum(worst, ratio)
            cross += q * c
        return rates, powers, worst, cross

    report = _monte_carlo(draw, entries, corr_set, graph, draws, seed, POLICY_MC)
    cache = gain_cache or GainCache(corr_set, graph, nu)
    de_rates = np.zeros(graph.num_users)
    de_powers = np.zeros(graph.num_bs)
    for q, control in zip(probs, policy.controls):
        de = de_rate_power(control, corr_set, graph, nu, cache)
        de_rates += q * de.rates
        de_powers += q * de.powers
    rate_mean, power_mean = report.user_rate_mean, report.bs_power_mean
    with np.errstate(divide="ignore", invalid="ignore"):
        rate_err = np.where(de_rates > 0, np.abs(rate_mean - de_rates) / de_rates, np.nan)
        power_err = np.where(de_powers > 0, np.abs(power_mean - de_powers) / de_powers, np.nan)
    report.de_rates, report.de_powers = de_rates, de_powers
    report.rate_rel_err, report.power_rel_err = rate_err, power_err
    return report


# ---------------------------------------------------------------------------
# the baselines: zero forcing per cell or cluster in rank-R coordinates
# ---------------------------------------------------------------------------

ZF_NU = 1e-8  # RZF regularizer, relative to the mean squared channel row norm


def _zero_forcing_limit(rows):
    """Zero-forcing beams of every draw's channel rows H, one |S|-row matrix
    per draw of the stack ``rows``, regularized by ZF_NU tr(H H^H) / |S| so
    that the beams stay near the exact zero-forcing limit whatever the
    channel's scale."""
    # tr(H H^H) as the inner product of H's flattened rows with themselves
    flat = rows.reshape(rows.shape[0], 1, -1)
    traces = (flat.conj() @ flat.swapaxes(-1, -2))[:, 0, 0].real
    return zero_forcing(rows, ZF_NU * traces / rows.shape[-2])


def _effective_map(factor, bss, users, rows):
    """The channel rows of a cell or cluster, serving ``users`` from the
    consecutive BSs ``bss``, as a map of the coefficients: the (U, |bss| R,
    |bss| q) block-diagonal array whose block of BS n holds F_jn^H Q_n for
    each of the U ``rows`` j, so that j's coefficients at ``bss`` side by
    side, conjugated, times it give its rows h_jn^H Q_n side by side.

    Q_n (M x q, q = min(M, |users| R)) is the thin QR basis of the served
    users' factors [F_kn] at BS n, taken without a rank threshold: it spans
    every served channel (and every outdated one), so zero-forcing these
    rows E = H Q gives the beams Q y of zero-forcing H, with tr(E E^H) =
    tr(H H^H), ||Q y|| = ||y|| and h^H Q y = e y for any row."""
    m, width = factor.shape[-2:]
    q = min(m, len(users) * width)
    gram = np.zeros((len(rows), len(bss) * width, len(bss) * q), dtype=complex)
    for i, n in enumerate(bss):
        basis = np.linalg.qr(factor[users, n].transpose(1, 0, 2).reshape(m, -1))[0]
        block = factor[rows, n].conj().swapaxes(-1, -2) @ basis
        gram[:, i * width : (i + 1) * width, i * q : (i + 1) * q] = block
    return gram


def _add_received(received, users, others, signal, interference):
    """Adds the (D, U, |S|) powers that a cell's or cluster's beams deliver,
    one column per served user and rows ``users`` then ``others``, to the
    (D, K) ``signal`` of its users and ``interference`` of every row;
    returns the (D,) power that ``others`` receive."""
    served = received[:, : len(users)]
    leaked = np.sum(received[:, len(users) :], axis=-1)
    own = np.eye(len(users), dtype=bool)
    signal[:, users] = np.diagonal(served, axis1=-2, axis2=-1)
    interference[:, users] += np.sum(served, axis=-1, where=~own)
    interference[:, others] += leaked
    return np.sum(leaked, axis=-1)


def _group_entries(groups):
    """The largest array that a baseline builds per draw and group (bss,
    users, others, map): its rows times the wider of its basis and |S|."""
    return max(((len(users) + len(others)) * max(gram.shape[-1], len(users))
                for _, users, others, gram in groups), default=0)


# ---------------------------------------------------------------------------
# baseline 1: per-cell zero forcing under fractional frequency reuse
# ---------------------------------------------------------------------------

def _bs_partition(graph, reuse_partitions):
    """Fixed greedy coloring of the BS adjacency induced by shared users,
    folded onto the requested number of partitions: one partition per BS."""
    touches = {k: set() for k in range(graph.num_users)}
    for (k, n) in graph.edges:
        touches[k].add(n)
    adjacent = {n: set() for n in range(graph.num_bs)}
    for bss in touches.values():
        for a in bss:
            for b in bss:
                if a != b:
                    adjacent[a].add(b)
    color = {}
    for n in range(graph.num_bs):
        used = {color[m] for m in adjacent[n] if m in color}
        c = 0
        while c in used:
            c += 1
        color[n] = c
    return np.array([color[n] % reuse_partitions for n in range(graph.num_bs)])


def ffr_cells(graph, m):
    """The users of every cell, one list per BS; a ValidationError names a
    cell that serves more users than its ``m`` antennas can zero-force."""
    cells = [list(graph.assoc_users[n]) for n in range(graph.num_bs)]
    for n, users in enumerate(cells):
        if len(users) > m:
            raise ValidationError(
                f"ffr_baseline: cell {n} serves {len(users)} users with {m} antennas"
            )
    return cells


def ffr_baseline(corr_set, graph, p_c, reuse_partitions, draws, seed):
    """Per-cell ZF with the band split across reuse partitions.

    Each cell serves all its associated users on its partition with equal
    power and unit-norm ZF beams; co-partition cells interfere, the rest are
    silent. Rates carry the 1/partitions bandwidth share.
    """
    if reuse_partitions < 1:
        raise ParameterError("reuse_partitions must be at least 1")
    partition = _bs_partition(graph, reuse_partitions)
    band = partition[[graph.serving[k] for k in range(graph.num_users)]]
    groups = []
    for n, users in enumerate(ffr_cells(graph, corr_set.dim)):
        if users:
            # the users of the other cells of n's partition share its band
            others = [k for k in range(graph.num_users)
                      if band[k] == partition[n] and graph.serving[k] != n]
            groups.append(((n,), users, others,
                           _effective_map(corr_set.factor(), (n,), users, users + others)))

    def draw(coefficients):
        signal, interference = np.zeros((2, len(coefficients), graph.num_users))
        powers = np.zeros((len(coefficients), graph.num_bs))
        cross = np.zeros(len(coefficients))
        for (n,), users, others, gram in groups:
            rows = _effective_rows(coefficients, (n,), users + others, gram)
            g = _zero_forcing_limit(rows[:, : len(users)])
            beams = g / np.linalg.norm(g, axis=-2, keepdims=True)
            power = np.full(len(users), p_c / len(users))
            cross += _add_received(power * np.abs(rows @ beams) ** 2, users, others,
                                   signal, interference)
            powers[:, n] = transmit_power(beams[:, None], power)[:, 0]
        return instantaneous_rate(signal, interference) / reuse_partitions, powers, None, cross

    return _monte_carlo(draw, _group_entries(groups), corr_set, graph, draws, seed, FFR_MC)


# ---------------------------------------------------------------------------
# baseline 2: clustered cooperative zero forcing with CSI delay
# ---------------------------------------------------------------------------

def comp_clusters(graph, m, cluster_size):
    """The users of every cluster of ``cluster_size`` consecutive BSs, one
    list per cluster; a ValidationError names a ``cluster_size`` that does
    not divide the BSs or a cluster that serves more users than its
    antennas can zero-force."""
    if graph.num_bs % cluster_size != 0:
        raise ValidationError(
            f"comp_baseline: cluster_size {cluster_size} does not divide {graph.num_bs} BSs"
        )
    clusters = [
        [k for n in range(c * cluster_size, (c + 1) * cluster_size) for k in graph.assoc_users[n]]
        for c in range(graph.num_bs // cluster_size)
    ]
    for c, users in enumerate(clusters):
        if len(users) > cluster_size * m:
            raise ValidationError(
                f"comp_baseline: cluster {c} serves {len(users)} users "
                f"with {cluster_size * m} antennas"
            )
    return clusters


def comp_baseline(corr_set, graph, p_c, cluster_size, draws, seed, delay_rho=1.0):
    """Cooperative ZF across fixed clusters of consecutive BSs.

    Precoders come from the (possibly outdated) channel F (rho w +
    sqrt(1 - rho^2) w'), mixed in the rank-R coordinates of h = F w with an
    independent w', while rates use the true h. Every user in a
    cluster gets the same power coefficient, scaled so the most loaded BS
    transmits exactly p_c (the others stay below the budget).
    """
    if cluster_size < 1:
        raise ParameterError("cluster_size must be at least 1")
    if not (0.0 <= delay_rho <= 1.0):
        raise ParameterError("delay_rho must lie in [0, 1]")
    groups = []
    for c, users in enumerate(comp_clusters(graph, corr_set.dim, cluster_size)):
        if users:
            bss = tuple(range(c * cluster_size, (c + 1) * cluster_size))
            others = sorted(set(range(graph.num_users)) - set(users))
            groups.append((bss, users, others,
                           _effective_map(corr_set.factor(), bss, users, users + others)))
    # the AR(1) innovation has a stream of its own, so every delay_rho sees
    # the same true channels and delay_rho = 1 never reads it
    innovation = derive_rng(seed, COMP_MC, 1)

    def draw(coefficients):
        lead = len(coefficients)
        outdated = coefficients
        if delay_rho < 1.0:
            stale = sample_coefficients(corr_set, innovation, lead)
            outdated = delay_rho * coefficients + np.sqrt(1.0 - delay_rho**2) * stale
        # each cluster zero-forces its users' outdated rows; a BS only
        # carries its cluster's beams, so its unit load is the squared norm
        # of its block of them (made contiguous: transmit_power would sum a
        # lone draw's strided blocks in another order than a stack's copy)
        unit_load = np.zeros((lead, graph.num_bs))
        evaluated = []
        for bss, users, others, gram in groups:
            rows = _effective_rows(coefficients, bss, users + others, gram)
            served = rows if outdated is coefficients else _effective_rows(
                outdated, bss, users, gram[: len(users)])
            beams = _zero_forcing_limit(served[:, : len(users)])
            blocks = np.ascontiguousarray(beams).reshape(lead, len(bss), -1, len(users))
            unit_load[:, bss[0] : bss[-1] + 1] = transmit_power(blocks, np.ones(len(users)))
            evaluated.append((rows, beams))
        # one power per cluster, scaled so that its most loaded BS spends p_c
        # (0 for a cluster without users)
        most_loaded = np.max(unit_load.reshape(lead, -1, cluster_size), axis=-1)
        scale = np.divide(p_c, most_loaded, out=np.zeros_like(most_loaded), where=most_loaded > 0)
        signal, interference = np.zeros((2, lead, graph.num_users))
        cross = np.zeros(lead)
        for (bss, users, others, _), (rows, beams) in zip(groups, evaluated):
            power = scale[:, bss[0] // cluster_size, None, None]
            cross += _add_received(power * np.abs(rows @ beams) ** 2, users, others,
                                   signal, interference)
        bs_power = unit_load * np.repeat(scale, cluster_size, axis=-1)
        return instantaneous_rate(signal, interference), bs_power, None, cross

    return _monte_carlo(draw, _group_entries(groups), corr_set, graph, draws, seed, COMP_MC)
