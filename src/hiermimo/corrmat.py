"""Spatial correlation matrices and channel sampling.

A link between a base station and a user is described by an M x M Hermitian
PSD correlation matrix whose trace equals M times the link path gain.
Instantaneous channels are drawn as h = sqrt(M) * C^(1/2) z with z i.i.d.
complex Gaussian of variance 1/M per entry, so E[h h^H] = C.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ValidationError
from .rng import CORRELATION, as_rng, derive_rng

# eigenvalues below RANK_TOL * lambda_max count as numerically zero
RANK_TOL = 1e-9
HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-10
TRACE_TOL = 1e-10
# users and hotspots keep at least this distance from their cell's BS
MIN_DIST_M = 35.0


@dataclass
class CorrelationMatrix:
    """One link's spatial correlation matrix with its declared rank and gain."""

    entries: np.ndarray
    rank_hint: int
    path_gain: float
    _eig: tuple = field(default=None, repr=False, compare=False)
    _sqrt: np.ndarray = field(default=None, repr=False, compare=False)
    _factor: np.ndarray = field(default=None, repr=False, compare=False)

    @property
    def dim(self):
        return self.entries.shape[0]

    def trace(self):
        return float(np.real(np.trace(self.entries)))

    def eig(self):
        """Eigendecomposition (ascending eigenvalues), cached."""
        if self._eig is None:
            w, v = np.linalg.eigh(self.entries)
            self._eig = (w, v)
        return self._eig

    def basis(self):
        """Orthonormal basis of the numerical column space (M x r)."""
        w, v = self.eig()
        top = w[-1]
        if top <= 0.0:
            return np.zeros((self.dim, 0), dtype=complex)
        keep = w > RANK_TOL * top
        return np.ascontiguousarray(v[:, keep])

    def numerical_rank(self):
        return self.basis().shape[1]

    def sqrt(self):
        """Hermitian PSD square root via eigendecomposition. Cached.

        Eigenvalues below the numerical-rank threshold are clamped to exact
        zero (not just negatives): sub-rank junk of order eps*lambda_max
        would otherwise enter the square root at sqrt(eps) amplitude and
        push sampled channels measurably outside the declared rank's span.
        """
        if self._sqrt is None:
            w, v = self.eig()
            clamped = np.where(w > RANK_TOL * max(float(w[-1]), 0.0), w, 0.0)
            self._sqrt = (v * np.sqrt(clamped)) @ v.conj().T
        return self._sqrt

    def factor(self):
        """Factor F (M x r) with C = F F^H up to the numerical-rank clamp of
        ``sqrt()``: one column sqrt(lambda) v per kept eigenpair. Cached."""
        if self._factor is None:
            w, v = self.eig()
            keep = w > RANK_TOL * max(float(w[-1]), 0.0)
            self._factor = np.ascontiguousarray(v[:, keep] * np.sqrt(w[keep]))
        return self._factor

    def validate(self):
        a = self.entries
        m = self.dim
        if a.shape != (m, m):
            raise ValidationError("correlation matrix must be square")
        w, _ = self.eig()
        scale = max(float(w[-1]), abs(float(w[0])))
        herm_err = float(np.max(np.abs(a - a.conj().T)))
        if scale > 0 and herm_err > HERMITIAN_TOL * scale:
            raise ValidationError(f"not Hermitian: deviation {herm_err:.3e}")
        if scale > 0 and float(w[0]) < -PSD_TOL * scale:
            raise ValidationError(f"not PSD: min eigenvalue {w[0]:.3e}")
        if scale > 0:
            rank = int(np.count_nonzero(w > RANK_TOL * w[-1]))
            if rank > self.rank_hint:
                raise ValidationError(
                    f"numerical rank {rank} exceeds declared rank {self.rank_hint}"
                )
        target = m * self.path_gain
        tr = self.trace()
        if abs(tr - target) > TRACE_TOL * max(target, 1e-300):
            raise ValidationError(f"trace {tr!r} != M * path_gain {target!r}")
        return self


def random_clustered_correlation(m, rank, path_gain, seed):
    """Random rank-limited correlation: C = path_gain * normalize(A A^H).

    A is M x rank with i.i.d. unit complex Gaussian entries; the Gram matrix
    is rescaled so its trace equals M before applying the path gain.
    """
    if not (1 <= rank <= m):
        raise ParameterError(f"rank must satisfy 1 <= rank <= {m}, got {rank}")
    if path_gain < 0:
        raise ParameterError("path_gain must be non-negative")
    rng = as_rng(seed)
    a = (rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))) / np.sqrt(2.0)
    gram = a @ a.conj().T
    gram = 0.5 * (gram + gram.conj().T)
    if path_gain == 0.0:
        return CorrelationMatrix(np.zeros((m, m), dtype=complex), rank, 0.0)
    entries = (path_gain * m / np.real(np.trace(gram))) * gram
    return CorrelationMatrix(entries, rank, float(path_gain))


# Gauss-Legendre order for the angular integral; exceeds 1e-8 accuracy for
# spreads down to about one degree.
ONE_RING_QUAD_ORDER = 256


def one_ring_correlation(m, center_angle, angular_spread, antenna_spacing, path_gain):
    """Uniform-linear-array correlation for a ring of scatterers.

    Entry (p, q) is the average of exp(-2j pi spacing (p - q) sin(angle))
    over departure angles uniform on [center - spread, center + spread],
    scaled by path_gain. Evaluated by fixed-order Gauss-Legendre quadrature,
    which keeps the result exactly Hermitian PSD (a nonnegative combination
    of steering outer products).
    """
    if not (0.0 < angular_spread < np.pi):
        raise ParameterError("angular_spread must lie in (0, pi)")
    if antenna_spacing <= 0:
        raise ParameterError("antenna_spacing must be positive")
    if path_gain < 0:
        raise ParameterError("path_gain must be non-negative")
    nodes, weights = np.polynomial.legendre.leggauss(ONE_RING_QUAD_ORDER)
    angles = center_angle + angular_spread * nodes
    steering = np.exp(
        -2j * np.pi * antenna_spacing * np.arange(m)[:, None] * np.sin(angles)[None, :]
    )
    entries = (path_gain / 2.0) * (steering * weights) @ steering.conj().T
    entries = 0.5 * (entries + entries.conj().T)
    mat = CorrelationMatrix(entries, m, float(path_gain))
    mat.rank_hint = max(mat.numerical_rank(), 1)
    return mat


def path_gain_log_distance(distance_m, exponent=3.76, ref_gain_db=0.0):
    """Linear path gain 10^((ref_gain_db - 10 exponent log10(d)) / 10).

    ref_gain_db is the noise-referenced gain at 1 m, i.e. it folds the
    transmit-power / noise-floor normalization into the link budget.
    """
    if distance_m <= 0:
        raise ParameterError("distance_m must be positive")
    return 10.0 ** ((ref_gain_db - 10.0 * exponent * np.log10(distance_m)) / 10.0)


def sample_channel(corr, seed):
    """Draw h = sqrt(M) C^(1/2) z, z i.i.d. CN(0, 1/M). Deterministic per seed."""
    rng = as_rng(seed)
    m = corr.dim
    z = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / np.sqrt(2.0 * m)
    return np.sqrt(m) * (corr.sqrt() @ z)


@dataclass
class CorrelationSet:
    """All link correlation matrices of a network plus serving assignments."""

    num_bs: int
    num_users: int
    matrices: dict  # (user, bs) -> CorrelationMatrix
    serving: dict  # user -> serving bs
    cluster_ids: dict  # user -> sub-area cluster id

    @property
    def dim(self):
        return next(iter(self.matrices.values())).dim

    def matrix(self, user, bs):
        return self.matrices[(user, bs)]

    def users(self):
        return range(self.num_users)

    def validate(self):
        dims = set()
        for k in range(self.num_users):
            for n in range(self.num_bs):
                if (k, n) not in self.matrices:
                    raise ValidationError(f"missing correlation matrix for link ({k}, {n})")
                mat = self.matrices[(k, n)]
                mat.validate()
                dims.add(mat.dim)
        if len(dims) != 1:
            raise ValidationError(f"inconsistent antenna counts {sorted(dims)}")
        for k in range(self.num_users):
            if not (0 <= self.serving.get(k, -1) < self.num_bs):
                raise ValidationError(f"user {k} has no valid serving BS")
        # users sharing a cluster under any BS must share the normalized matrix
        by_cluster = {}
        for k in range(self.num_users):
            by_cluster.setdefault(self.cluster_ids[k], []).append(k)
        for members in by_cluster.values():
            ref = members[0]
            for k in members[1:]:
                for n in range(self.num_bs):
                    a, b = self.matrices[(ref, n)], self.matrices[(k, n)]
                    na = a.entries / a.path_gain if a.path_gain > 0 else a.entries
                    nb = b.entries / b.path_gain if b.path_gain > 0 else b.entries
                    if not np.allclose(na, nb, rtol=1e-12, atol=1e-12):
                        raise ValidationError(
                            f"users {ref} and {k} share cluster but not matrices at BS {n}"
                        )
        return self


def serving_from_traces(matrices, num_users, num_bs):
    """Strongest-link assignment: argmax of trace, ties to the lowest BS index."""
    serving = {}
    for k in range(num_users):
        traces = [matrices[(k, n)].trace() for n in range(num_bs)]
        serving[k] = int(np.argmax(traces))
    return serving


def build_hotspot_network(
    num_bs,
    num_users,
    m,
    rank,
    seed,
    inter_site_m=500.0,
    hotspots_per_cell=2,
    hotspot_fraction=2.0 / 3.0,
    pathloss_exponent=3.76,
    ref_gain_db=90.0,
    min_dist_m=MIN_DIST_M,
):
    """Generate a line-of-cells network with clustered user hotspots.

    Base stations sit on a line, inter_site_m apart. Each cell owns
    hotspots_per_cell hotspots placed uniformly inside the cell disc; a
    hotspot_fraction share of the cell's users sit at hotspot centers and
    share one correlation matrix per BS (the local-clustering assumption),
    the rest get independent matrices at their own positions. Normalized
    matrices are random rank-limited Gram factors; gains follow the
    log-distance model.
    """
    if num_bs < 1 or num_users < 1:
        raise ParameterError("need at least one BS and one user")
    if not inter_site_m > 2.0 * min_dist_m:
        # the cell disc (radius inter_site_m / 2) must reach past min_dist_m,
        # or the rejection sampler below never returns
        raise ParameterError(
            f"inter_site_m must exceed 2 * min_dist_m = {2.0 * min_dist_m!r}, "
            f"got {inter_site_m!r}"
        )
    rng = derive_rng(seed, CORRELATION, 0)
    bs_pos = np.stack([np.arange(num_bs) * inter_site_m, np.zeros(num_bs)], axis=1)
    cell_radius = inter_site_m / 2.0

    def random_point_near(center, radius, min_dist=0.0):
        while True:
            r = radius * np.sqrt(rng.uniform())
            phi = rng.uniform(0.0, 2.0 * np.pi)
            p = center + r * np.array([np.cos(phi), np.sin(phi)])
            if np.linalg.norm(p - center) >= min_dist:
                return p

    hotspot_centers = {}
    for n in range(num_bs):
        for h in range(hotspots_per_cell):
            hotspot_centers[(n, h)] = random_point_near(bs_pos[n], cell_radius, min_dist_m)

    # round-robin user-to-cell assignment, hotspot users first within each cell
    cell_of = {k: k % num_bs for k in range(num_users)}
    per_cell = {n: [k for k in range(num_users) if cell_of[k] == n] for n in range(num_bs)}
    positions = {}
    cluster_of = {}
    next_free_cluster = num_bs * hotspots_per_cell
    for n in range(num_bs):
        users = per_cell[n]
        num_hot = int(round(hotspot_fraction * len(users))) if hotspots_per_cell > 0 else 0
        for i, k in enumerate(users):
            if i < num_hot:
                h = i % hotspots_per_cell
                positions[k] = hotspot_centers[(n, h)]
                cluster_of[k] = n * hotspots_per_cell + h
            else:
                positions[k] = random_point_near(bs_pos[n], cell_radius, min_dist_m)
                cluster_of[k] = next_free_cluster
                next_free_cluster += 1

    # one normalized matrix per (cluster, bs); all members share it
    normalized = {}
    for cluster in sorted(set(cluster_of.values())):
        for n in range(num_bs):
            normalized[(cluster, n)] = random_clustered_correlation(
                m, rank, 1.0, derive_rng(seed, CORRELATION, 1, cluster, n)
            )

    matrices = {}
    for k in range(num_users):
        for n in range(num_bs):
            dist = max(float(np.linalg.norm(positions[k] - bs_pos[n])), 1.0)
            gain = path_gain_log_distance(dist, pathloss_exponent, ref_gain_db)
            base = normalized[(cluster_of[k], n)]
            matrices[(k, n)] = CorrelationMatrix(gain * base.entries, rank, gain)

    serving = serving_from_traces(matrices, num_users, num_bs)
    # keep the intended cell assignment when it is also the strongest link;
    # otherwise strongest link wins (users near a cell border)
    cs = CorrelationSet(num_bs, num_users, matrices, serving, cluster_of)
    return cs.validate()


def dump_correlation_set(corr_set, path):
    """Plain-text dump: header "M N K", serving row, cluster row, then one
    row-major line of "re,im" tokens per (user, bs) matrix in (k, n) order."""
    lines = [f"{corr_set.dim} {corr_set.num_bs} {corr_set.num_users}"]
    lines.append(" ".join(str(corr_set.serving[k]) for k in range(corr_set.num_users)))
    lines.append(" ".join(str(corr_set.cluster_ids[k]) for k in range(corr_set.num_users)))
    for k in range(corr_set.num_users):
        for n in range(corr_set.num_bs):
            flat = corr_set.matrix(k, n).entries.reshape(-1)
            lines.append(" ".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in flat))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_correlation_set(path):
    """Read a ``dump_correlation_set`` file; ValidationError when it is
    truncated or malformed."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = lines[0].split() if lines else []
    if len(header) != 3:
        raise ValidationError("header must hold M, the BS count and the user count")
    m, num_bs, num_users = (int(tok) for tok in header)
    if len(lines) != 3 + num_users * num_bs:
        raise ValidationError(
            f"{len(lines)} lines, want 3 + {num_users} users x {num_bs} BSs"
        )
    serving = {k: int(tok) for k, tok in enumerate(lines[1].split())}
    clusters = {k: int(tok) for k, tok in enumerate(lines[2].split())}
    if len(serving) != num_users or len(clusters) != num_users:
        raise ValidationError(f"serving and cluster rows must list {num_users} users")
    matrices = {}
    row = 3
    for k in range(num_users):
        for n in range(num_bs):
            toks = lines[row].split()
            row += 1
            if len(toks) != m * m:
                raise ValidationError(f"matrix ({k},{n}) has {len(toks)} entries, want {m * m}")
            pairs = (tok.split(",") for tok in toks)
            vals = np.array([complex(float(re), float(im)) for re, im in pairs]).reshape(m, m)
            gain = float(np.real(np.trace(vals))) / m
            mat = CorrelationMatrix(vals, m, gain)
            mat.rank_hint = max(mat.numerical_rank(), 1)
            matrices[(k, n)] = mat
    return CorrelationSet(num_bs, num_users, matrices, serving, clusters).validate()
