"""Gradient-based layer sensitivity: per-layer nuclear norms of the
Q/K/V gradient matrices over a probe dataset.

The nuclear norm is computed from scratch by one-sided (Hestenes) Jacobi
on the matrix itself, never on its Gram matrix, so small singular values
keep their accuracy (Demmel & Veselic, 1992). A column-pivoted Householder
QR first reduces each matrix to a square triangular factor R whose rows are
graded, which cuts the number of sweeps (Drmac & Veselic, 2008). The rows
of R are then orthogonalised in Brent-Luk round-robin order: each round
rotates n/2 disjoint row pairs of every matrix in a stack at once. The
test suite checks the result against an independent full-SVD oracle.
"""
from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteInput
from .tinylm import Batch, ModelParams, loss_and_backward

_JACOBI_MAX_SWEEPS = 30


def _pivoted_qr_r(a: np.ndarray) -> np.ndarray:
    """R factors of column-pivoted Householder QR, for a stack of tall
    matrices (k, m, n) with m >= n; returns the (k, n, n) triangles."""
    a = a.copy()
    k, _, n = a.shape
    stack = np.arange(k)
    for j in range(n):
        rest = a[:, j:, j:]
        pivot = j + np.argmax(np.einsum("kij,kij->kj", rest, rest), axis=1)
        a[stack, :, j], a[stack, :, pivot] = a[stack, :, pivot], a[stack, :, j]
        x = a[:, j:, j]
        # the reflector does not depend on the scale of v; scaling x to a
        # largest entry of 1 keeps v.v away from underflow
        big = np.abs(x).max(axis=1)
        v = x / np.where(big > 0.0, big, 1.0)[:, None]
        norm = np.sqrt(np.einsum("ki,ki->k", v, v))
        head = np.where(v[:, 0] >= 0.0, -norm, norm)
        v[:, 0] -= head
        vv = np.einsum("ki,ki->k", v, v)
        scale = np.divide(2.0, vv, out=np.zeros(k), where=big > 0.0)
        rest = a[:, j:, j + 1:]
        rest -= (scale[:, None] * v)[:, :, None] * np.einsum("ki,kij->kj", v, rest)[:, None, :]
        a[:, j, j] = head * big
        a[:, j + 1:, j] = 0.0
    return np.triu(a[:, :n, :])


def _round_robin(n: int) -> np.ndarray:
    """The slot gather that moves a Brent-Luk round to the next one: with
    pairs in slots (2i, 2i+1), n - 1 rounds meet every pair of rows once
    and bring the rows back to their starting slots."""
    # circle method: player list L pairs L[i] with L[n-1-i]; the next
    # round keeps L[0] and rotates the rest by one place
    slot = [2 * i if i < n // 2 else 2 * (n - 1 - i) + 1 for i in range(n)]
    source = [0, n - 1] + list(range(1, n - 1))
    perm = np.empty(n, dtype=np.intp)
    for i in range(n):
        perm[slot[i]] = slot[source[i]]
    return perm


def _row_norms_after_jacobi(r: np.ndarray) -> np.ndarray:
    """Orthogonalise the rows of a stack of square matrices by one-sided
    Jacobi rotations; the row norms are then the singular values."""
    k, n, width = r.shape
    if n % 2:
        r = np.concatenate([r, np.zeros((k, 1, width))], axis=1)
        n += 1
    perm = _round_robin(n)
    tol = width * np.finfo(np.float64).eps
    x = r.reshape(k, n // 2, 2, width)
    rotation = np.empty((k, n // 2, 2, 2))
    for _ in range(_JACOBI_MAX_SWEEPS):
        rotated = False
        for _ in range(n - 1):
            top, bottom = x[:, :, 0], x[:, :, 1]
            alpha = np.einsum("kij,kij->ki", top, top)
            beta = np.einsum("kij,kij->ki", bottom, bottom)
            gamma = np.einsum("kij,kij->ki", top, bottom)
            # relative test only: an absolute floor would drop the small
            # singular values the nuclear norm must keep
            active = np.abs(gamma) > tol * np.sqrt(alpha * beta)
            if active.any():
                rotated = True
                # a tiny gamma may overflow zeta, or the denominator of t,
                # to inf; t is then 0, the correct limit of the rotation
                with np.errstate(over="ignore"):
                    zeta = np.divide(beta - alpha, 2.0 * gamma, out=np.zeros_like(gamma),
                                     where=active)
                    t = np.where(zeta >= 0.0, 1.0, -1.0) / (np.abs(zeta) + np.hypot(1.0, zeta))
                t[~active] = 0.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                rotation[..., 0, 0] = c
                rotation[..., 0, 1] = -s
                rotation[..., 1, 0] = s
                rotation[..., 1, 1] = c
                x = rotation @ x
            x = np.take(x.reshape(k, n, width), perm, axis=1).reshape(k, n // 2, 2, width)
        if not rotated:
            break
    x = x.reshape(k, n, width)
    return np.sqrt(np.einsum("kij,kij->ki", x, x))


def nuclear_norms(stack: np.ndarray) -> np.ndarray:
    """Nuclear norms (sums of singular values) of a stack of same-shape
    matrices, shape (k, m, n), as a length-k float64 array."""
    g = np.asarray(stack, dtype=np.float64)
    if g.ndim != 3:
        raise ValueError("nuclear_norms expects a stack of 2-D matrices")
    if not np.all(np.isfinite(g)):
        raise NonFiniteInput("matrix contains NaN or infinity")
    if g.shape[1] < g.shape[2]:
        g = g.transpose(0, 2, 1)
    k = g.shape[0]
    if g.size == 0:
        return np.zeros(k)
    # exact power-of-two scaling keeps the squared row norms in range
    _, exponent = np.frexp(np.abs(g).max(axis=(1, 2)))
    g = np.ldexp(g, -exponent[:, None, None])
    sigma = _row_norms_after_jacobi(_pivoted_qr_r(g))
    return np.ldexp(np.sort(sigma, axis=1).sum(axis=1), exponent)


def nuclear_norm(matrix: np.ndarray) -> float:
    """Sum of the singular values of one matrix (see `nuclear_norms`)."""
    g = np.asarray(matrix, dtype=np.float64)
    if g.ndim != 2:
        raise ValueError("nuclear_norm expects a 2-D matrix")
    return float(nuclear_norms(g[None])[0])


@dataclass(frozen=True)
class ProbeSpec:
    dataset_id: str
    batch_count: int
    seed: int


@dataclass
class LayerNorms:
    layer: int
    q_norm: float
    k_norm: float
    v_norm: float


@dataclass
class GradientReport:
    probe: ProbeSpec
    rows: list[LayerNorms] = field(default_factory=list)


def layer_gradient_report(params: ModelParams, batches: list[Batch],
                          dataset_id: str = "", seed: int = 0,
                          accumulate: bool = True) -> GradientReport:
    """Per-layer nuclear norms of the Q/K/V gradients over the probe.
    No parameter is updated. With accumulate=True (default) gradients
    are summed across batches before norming; otherwise the report
    carries the mean of per-batch norms."""
    config = params.config
    keys = [(layer, name) for layer in range(config.n_layers)
            for name in ("W_Q", "W_K", "W_V")]
    total = None
    # a non-finite gradient ends in NonFiniteInput from nuclear_norms, so
    # numpy need not warn of it as well
    with np.errstate(all="ignore"):
        for batch in batches:
            _, grads = loss_and_backward(params, batch, need=keys)
            stack = np.stack([grads[key] for key in keys])
            term = stack if accumulate else nuclear_norms(stack)
            total = term if total is None else total + term
        values = nuclear_norms(total) if accumulate else total / len(batches)
    norms = dict(zip(keys, values.tolist()))
    report = GradientReport(
        probe=ProbeSpec(dataset_id=dataset_id, batch_count=len(batches), seed=seed))
    for layer in range(config.n_layers):
        report.rows.append(LayerNorms(
            layer=layer,
            q_norm=norms[(layer, "W_Q")],
            k_norm=norms[(layer, "W_K")],
            v_norm=norms[(layer, "W_V")],
        ))
    return report


# ---------------------------------------------------------------------------
# Rendering

def report_to_csv(report: GradientReport) -> str:
    out = io.StringIO()
    out.write(f"# dataset={report.probe.dataset_id}\n")
    out.write(f"# batches={report.probe.batch_count}\n")
    out.write(f"# seed={report.probe.seed}\n")
    out.write("layer,q_norm,k_norm,v_norm\n")
    for row in report.rows:
        out.write(f"{row.layer},{row.q_norm!r},{row.k_norm!r},{row.v_norm!r}\n")
    return out.getvalue()


def ascii_bars(report: GradientReport, width: int = 48) -> str:
    """One bar chart per matrix kind for eyeballing the layer profile."""
    lines = []
    for label, getter in (("Q", lambda r: r.q_norm), ("K", lambda r: r.k_norm),
                          ("V", lambda r: r.v_norm)):
        values = [getter(r) for r in report.rows]
        peak = max(values) if values else 0.0
        lines.append(f"nuclear norm of grad {label} per layer")
        for row, value in zip(report.rows, values):
            n_chars = int(round(width * value / peak)) if peak > 0 else 0
            lines.append(f"  L{row.layer:02d} |{'#' * n_chars} {value:.6g}")
        lines.append("")
    return "\n".join(lines)
