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
(``corrmat.sample_coefficients``). The baselines take its channels h = F w;
the proposed scheme never forms them: its inner precoders see only the
effective channels h^H F_n = conj(w) F^H F_n.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .corrmat import link_channels, sample_channel, sample_coefficients
from .det_equiv import GainCache, de_rate_power
from .errors import ParameterError, ValidationError
from .precoder import (
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
    ``count`` draws of ``rng`` as one (count, K, N, M) array. These are the
    channels of the coefficients that a Monte Carlo chunk reads from the
    same generator."""
    return sample_channel(corr_set, rng, count)


def _beam_owners(groups, num_users):
    """The K x L mask of each user's own beam and the first BS of every beam,
    for beams laid out group by group: each group is (bss, users), one beam
    per user over the stacked antennas of the BSs ``bss``."""
    beam_user = np.array([k for _, users in groups for k in users], dtype=int)
    beam_bs = np.array([bss[0] for bss, users in groups for _ in users], dtype=int)
    return np.arange(num_users)[:, None] == beam_user, beam_bs


def _layout(groups, group_beams, channels):
    """Beams of ``groups`` (see ``_beam_owners``) as one (..., N, M, L) array
    for (..., K, N, M) ``channels``. The beams of a group are (..., |bss| M,
    |users|), one column per user over the stacked antennas of its BSs; the
    rows of every other BS stay zero."""
    *lead, _, num_bs, m = channels.shape
    beams = np.zeros((*lead, num_bs, m, sum(len(users) for _, users in groups)), dtype=complex)
    start = 0
    for (bss, users), v in zip(groups, group_beams):
        stop = start + len(users)
        beams[..., list(bss), :, start:stop] = v.reshape(*lead, len(bss), m, len(users))
        start = stop
    return beams


def _control_evaluator(control, corr_set, graph, nu):
    """Evaluation of ``control`` on (..., K, N, 1, R) channel coefficients
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
            effective = (coefficients[..., rows, n, :, :].conj() @ gram)[..., 0, :]
            inner = inner_precoders(effective[..., : len(users), :], m, nu)
            received = power * np.abs(effective @ inner) ** 2  # (..., U, S)
            served = received[..., : len(users), :]
            rates[..., users] = instantaneous_rate(served, own, ~own)
            signal[..., users] = np.diagonal(served, axis1=-2, axis2=-1)
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
    R) ``sample_coefficients`` rows, D at most CHUNK_ENTRIES // ``entries``
    (the scheme's largest array per draw); it maps them to the (D, K) user
    rates, (D, N) BS powers, (D,) worst interference ratios (None if
    untracked) and (D,) cross interference of those draws."""
    if draws < 1:
        raise ParameterError("draws must be at least 1")
    size = max(1, CHUNK_ENTRIES // entries)
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
    # the chunk's (D, K, N, 1, R) coefficients, or a control's largest array
    entries = max(graph.num_users * graph.num_bs * corr_set.factor().shape[-1], 1,
                  *(size for _, size in evaluators))

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
# baseline 1: per-cell zero forcing under fractional frequency reuse
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


def ffr_baseline(corr_set, graph, p_c, reuse_partitions, draws, seed):
    """Per-cell ZF with the band split across reuse partitions.

    Each cell serves all its associated users on its partition with equal
    power and unit-norm ZF beams; co-partition cells interfere, the rest are
    silent. Rates carry the 1/partitions bandwidth share.
    """
    if reuse_partitions < 1:
        raise ParameterError("reuse_partitions must be at least 1")
    m = corr_set.dim
    for n in range(graph.num_bs):
        if len(graph.assoc_users[n]) > m:
            raise ValidationError(
                f"ffr_baseline: cell {n} serves {len(graph.assoc_users[n])} users with {m} antennas"
            )
    partition = _bs_partition(graph, reuse_partitions)
    load = np.array([len(graph.assoc_users[n]) for n in range(graph.num_bs)])
    serving = np.array([graph.serving[k] for k in range(graph.num_users)])
    groups = [((n,), users) for n, users in graph.assoc_users.items() if users]
    own, beam_bs = _beam_owners(groups, graph.num_users)
    power = p_c / load[beam_bs]
    # the user's own cell and the other cells of its partition share its band
    band = partition[serving][:, None] == partition[beam_bs]
    interferers = band & ~own
    other_cell = band & (serving[:, None] != beam_bs)

    def draw(coefficients):
        channels = link_channels(corr_set, coefficients)
        unit_beams = []
        for (n,), users in groups:
            g = _zero_forcing_limit(channels[:, list(users), n].conj())
            unit_beams.append(g / np.linalg.norm(g, axis=-2, keepdims=True))
        beams = _layout(groups, unit_beams, channels)
        received = cross_interference_power(channels, beams, power)
        rates = instantaneous_rate(received, own, interferers) / reuse_partitions
        cross = np.sum(received, axis=(-2, -1), where=other_cell)
        return rates, transmit_power(beams, power), None, cross

    entries = graph.num_users * graph.num_bs * m  # the channels; beams and powers are smaller
    return _monte_carlo(draw, entries, corr_set, graph, draws, seed, FFR_MC)


# ---------------------------------------------------------------------------
# baseline 2: clustered cooperative zero forcing with CSI delay
# ---------------------------------------------------------------------------

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
    if graph.num_bs % cluster_size != 0:
        raise ValidationError(
            f"comp_baseline: cluster_size {cluster_size} does not divide {graph.num_bs} BSs"
        )
    if not (0.0 <= delay_rho <= 1.0):
        raise ParameterError("delay_rho must lie in [0, 1]")
    m = corr_set.dim
    clusters = [
        tuple(range(c * cluster_size, (c + 1) * cluster_size))
        for c in range(graph.num_bs // cluster_size)
    ]
    members = [[k for n in bss for k in graph.assoc_users[n]] for bss in clusters]
    for c, users in enumerate(members):
        if len(users) > cluster_size * m:
            raise ValidationError(
                f"comp_baseline: cluster {c} serves {len(users)} users "
                f"with {cluster_size * m} antennas"
            )
    serving = np.array([graph.serving[k] for k in range(graph.num_users)])
    groups = [(bss, users) for bss, users in zip(clusters, members) if users]
    own, beam_bs = _beam_owners(groups, graph.num_users)
    beam_cluster = beam_bs // cluster_size
    other_cluster = (serving // cluster_size)[:, None] != beam_cluster
    # the AR(1) innovation has a stream of its own, so every delay_rho sees
    # the same true channels and delay_rho = 1 never reads it
    innovation = derive_rng(seed, COMP_MC, 1)

    def draw(coefficients):
        channels = outdated = link_channels(corr_set, coefficients)
        if delay_rho < 1.0:
            stale = sample_coefficients(corr_set, innovation, len(coefficients))
            mixed = delay_rho * coefficients + np.sqrt(1.0 - delay_rho**2) * stale
            outdated = link_channels(corr_set, mixed)
        # each cluster zero-forces its users' outdated channels, stacked over its BSs
        cluster_beams = []
        for bss, users in groups:
            rows = outdated[:, users, bss[0] : bss[-1] + 1].reshape(len(channels), len(users), -1)
            cluster_beams.append(_zero_forcing_limit(rows.conj()))
        beams = _layout(groups, cluster_beams, channels)
        # one power per cluster, scaled so that its most loaded BS spends p_c;
        # a BS only carries its cluster's beams, so its power is its unit load
        # times that cluster's power (0 for a cluster without users)
        unit_load = transmit_power(beams, np.ones(beam_bs.size))
        most_loaded = np.max(unit_load.reshape(len(channels), -1, cluster_size), axis=-1)
        scale = np.divide(p_c, most_loaded, out=np.zeros_like(most_loaded), where=most_loaded > 0)
        power = scale[:, beam_cluster]
        received = cross_interference_power(channels, beams, power)
        cross = np.sum(received, axis=(-2, -1), where=other_cluster)
        bs_power = unit_load * np.repeat(scale, cluster_size, axis=-1)
        return instantaneous_rate(received, own, ~own), bs_power, None, cross

    entries = graph.num_users * graph.num_bs * m  # the channels; beams and powers are smaller
    return _monte_carlo(draw, entries, corr_set, graph, draws, seed, COMP_MC)
