"""Outer/inner precoder construction and instantaneous rate/power evaluation.

The outer precoder of BS n is a semi-unitary basis confined to the
orthogonal complement of the blocked users' correlation ranges, so the BS
radiates zero statistical power toward every protected neighbor. The inner
precoder is regularized zero forcing on the effective (outer-projected)
channels h^H F_n, which have M_n entries, not M.
"""

import math
from dataclasses import dataclass

import numpy as np

from .corrmat import RANK_TOL
from .errors import ParameterError, ValidationError
from .topology import served_and_blocked

SEMI_UNITARY_TOL = 1e-9
ZERO_ICI_TOL = 1e-8


def projected_factor(factor, null_basis):
    """Blocked-complement projection B = F - U (U^H F) of a correlation
    factor, so that B B^H = (I - U U^H) F F^H (I - U U^H); F itself when the
    basis is empty."""
    return factor - null_basis @ (null_basis.conj().T @ factor)


def interference_nullspace_basis(corr_set, blocked, bs):
    """Orthonormal basis of the combined column space of the blocked users'
    correlation matrices at BS ``bs`` (equivalently, of their PSD sum).

    Built by stacking each matrix's own eigenbasis and re-orthonormalizing,
    which pins every individual range down to machine precision relative to
    that matrix's scale; an eigendecomposition of the summed matrix would
    only resolve weak users' ranges relative to the strongest one.
    """
    m = corr_set.dim
    pieces = [corr_set.matrix(k, bs).basis() for k in sorted(set(blocked))]
    pieces = [p for p in pieces if p.shape[1] > 0]
    if not pieces:
        return np.zeros((m, 0), dtype=complex)
    stack = np.concatenate(pieces, axis=1)
    u, s, _ = np.linalg.svd(stack, full_matrices=False)
    keep = s > RANK_TOL * s[0]
    return np.ascontiguousarray(u[:, keep])


def outer_precoder(corr_set, selected, blocked, bs):
    """Semi-unitary basis spanning the blocked-complement projection of the
    selected users' summed correlation range; empty (M x 0) when annihilated.

    With the selected factors side by side, F = [F_1 ... F_S], the sum is
    F F^H and its projection B B^H with B = ``projected_factor(F, U)`` for
    the blocked users' ``interference_nullspace_basis`` U. The eigenpairs
    (w, v) of the small Gram matrix B^H B give the singular values sqrt(w)
    and left singular vectors B v / sqrt(w) of B, whose span above the rank
    threshold is the basis; one QR pass, after re-projecting against U,
    makes it orthonormal to machine precision.
    """
    selected = tuple(sorted(set(selected)))
    blocked = tuple(sorted(set(blocked)))
    if set(selected) & set(blocked):
        raise ParameterError("selected and blocked user sets must be disjoint")
    empty = np.zeros((corr_set.dim, 0), dtype=complex)
    if not selected:
        return empty
    stacked = np.concatenate([corr_set.matrix(k, bs).factor() for k in selected], axis=1)
    if stacked.shape[1] == 0:  # every selected link has zero gain
        return empty
    null_basis = interference_nullspace_basis(corr_set, blocked, bs)
    projected = projected_factor(stacked, null_basis)
    w, v = np.linalg.eigh(projected.conj().T @ projected)
    # the trace bounds the largest eigenvalue of the unprojected sum F F^H,
    # so only a sum projected to almost nothing needs that eigenvalue itself
    if w[-1] <= RANK_TOL * float(np.sum(np.abs(stacked) ** 2)):
        top_raw = float(np.linalg.eigvalsh(stacked.conj().T @ stacked)[-1])
        if w[-1] <= RANK_TOL * max(top_raw, 1e-300):
            return empty
    keep = w > RANK_TOL * w[-1]
    basis = projected @ (v[:, keep] / np.sqrt(w[keep]))
    # the re-projection pushes residual alignment with the blocked subspace
    # down to machine precision squared
    basis, _ = np.linalg.qr(projected_factor(basis, null_basis))
    return np.ascontiguousarray(basis)


def zero_forcing(channels, reg):
    """Regularized zero-forcing beams H^H (H H^H + reg I)^(-1), one column
    per row of the |S| x D ``channels`` H (rows h^H, so row @ beam is the
    received amplitude), from one |S| x |S| solve. By the push-through
    identity this is (H^H H + reg I)^(-1) H^H; a small ``reg`` tends to the
    pseudo-inverse, also where H has dependent rows.

    A stack of channels (..., |S|, D) takes one ``reg`` per matrix (or one
    for all) and gives the (..., D, |S|) beams from one stacked solve."""
    reg = np.asarray(reg)
    if np.any(reg <= 0):
        raise ParameterError("zero-forcing regularizer must be positive")
    gram = channels @ channels.conj().swapaxes(-1, -2)
    gram += reg[..., None, None] * np.eye(channels.shape[-2])
    # the Gram matrix is Hermitian, so (G^-1 H)^H = H^H G^-1
    return np.linalg.solve(gram, channels).conj().swapaxes(-1, -2)


@dataclass
class CompositeControl:
    """One joint choice of outer precoders, selected users, and powers."""

    outer: dict  # bs -> M x M_n ndarray
    selected: dict  # bs -> tuple of selected users, sorted
    power: dict  # user -> allocated power (selected users only)

    @property
    def selected_union(self):
        out = []
        for users in self.selected.values():
            out.extend(users)
        return tuple(sorted(out))

    def validate(self, corr_set, graph):
        sel = self.selected_union
        for k in sel:
            if not (0 <= k < graph.num_users):
                raise ValidationError(f"unknown user {k} is selected")
        if len(sel) != len(set(sel)):
            raise ValidationError("a user is selected at more than one BS")
        for n, users in self.selected.items():
            for k in users:
                if graph.serving[k] != n:
                    raise ValidationError(f"user {k} selected at non-serving BS {n}")
        for k in sel:
            p = self.power.get(k)
            if p is None or not np.isfinite(p) or p < 0:
                raise ValidationError(f"user {k} has invalid power {p!r}")
        for n, (_, blocked) in enumerate(served_and_blocked(graph, sel)):
            f = self.outer.get(n)
            if f is None:
                raise ValidationError(f"missing outer precoder for BS {n}")
            if f.ndim != 2 or f.shape[0] != corr_set.dim:
                raise ValidationError(
                    f"outer precoder at BS {n} has shape {f.shape}, not "
                    f"{corr_set.dim} x m_n"
                )
            m_n = f.shape[1]
            if m_n > 0:
                gram_err = float(
                    np.linalg.norm(f.conj().T @ f - np.eye(m_n), ord="fro")
                )
                if gram_err > SEMI_UNITARY_TOL:
                    raise ValidationError(
                        f"outer precoder at BS {n} not semi-unitary ({gram_err:.3e})"
                    )
            for k in blocked:
                # theta = F_k F_k^H: ||f^H theta||_F^2 = tr(X G X^H) with
                # X = f^H F_k and G = F_k^H F_k, and ||theta||_F = ||G||_F
                fk = corr_set.matrix(k, n).factor()
                gram = fk.conj().T @ fk
                denom = float(np.linalg.norm(gram, ord="fro"))
                if denom == 0.0 or m_n == 0:
                    continue
                x = f.conj().T @ fk
                leak = float(np.sqrt(max(np.real(np.sum((x @ gram) * x.conj())), 0.0)))
                if leak > ZERO_ICI_TOL * denom:
                    raise ValidationError(
                        f"BS {n} leaks onto protected user {k}: {leak / denom:.3e}"
                    )
        return self


def inner_precoders(effective, m, nu):
    """RZF inner precoders of one BS: the (..., M_n, |S_n|) zero-forcing
    beams of its selected users' effective channels h^H F_n, given as the
    (..., |S_n|, M_n) rows ``effective``, with regularizer M nu (the full
    antenna count M, not M_n); one stacked solve for all realizations."""
    return zero_forcing(effective, m * nu)


def cross_interference_power(channels, beams, power):
    """K x L matrix of the power p_l |h_k^H b_l|^2 that user k receives from
    beam l, for (K, N, M) channels, (N, M, L) beams and L beam powers, each
    with an optional leading draw axis. Beam l holds its per-antenna weights
    at the BSs it uses and zero rows elsewhere, so a cooperative beam adds
    its BSs coherently.

    This is the M-dimensional evaluation of a realization; every scheme
    evaluates its draws in rank-R coordinates instead, and the tests hold
    them to this one. The amplitudes are one matrix product over the
    stacked (BS, antenna) index; |h^H b| = |h^T conj(b)|, so the beams are
    conjugated rather than the (larger) channels.
    """
    *lead, num_users, num_bs, m = channels.shape
    flat_beams = beams.conj().reshape(*lead, num_bs * m, beams.shape[-1])
    amplitude = channels.reshape(*lead, num_users, num_bs * m) @ flat_beams
    return np.asarray(power)[..., None, :] * np.abs(amplitude) ** 2


def instantaneous_rate(signal, interference):
    """log(1 + SINR) per user from the power of its own beam, ``signal`` (0
    for a user that is not served, whose rate is 0), and the power of the
    beams that interfere with it, ``interference``, plus unit noise."""
    return np.log1p(signal / (interference + 1.0))


def transmit_power(beams, power):
    """Transmit power of every BS: sum_l p_l ||b_l||^2 over its antennas.

    For b_l = F g_l with F semi-unitary this is sum_l p_l ||g_l||^2, the
    trace form tr(P Heff (Heff^H Heff + M nu I)^(-2) Heff^H) of the inner
    precoder, so (1, M_n, L) inner beams give the power of their BS. The
    Monte Carlo layer takes the same powers from Gram matrices, without
    beams (``harness._norms``); the tests hold it to this definition.

    The sum is one einsum over a fused (draw, BS) axis, the powers repeated
    for every BS: over a separate draw axis, einsum would sum the draws of a
    stack in another order than a lone realization, so the same draw would
    give other last digits in another chunk. The squared magnitudes are laid
    out in C order whatever the layout of ``beams``, since einsum's order of
    summation follows the memory layout of its operands.
    """
    *lead, num_bs, m, num_beams = beams.shape
    fused = math.prod(lead) * num_bs
    gains = np.abs(beams.reshape(fused, m, num_beams), order="C") ** 2
    per_bs = np.broadcast_to(np.asarray(power)[..., None, :], (*lead, num_bs, num_beams))
    return np.einsum("xml,xl->x", gains, per_bs.reshape(fused, num_beams)).reshape(*lead, num_bs)
