"""Gradient-based layer sensitivity: per-layer nuclear norms of the
Q/K/V gradient matrices over a probe dataset.

The nuclear norm is computed from scratch, for a whole stack of matrices
at once, in two steps of fixed cost. Householder bidiagonalization (Golub
& Kahan, 1965) reduces each matrix to an upper bidiagonal one with the
same singular values. These are the non-negative eigenvalues of the
Golub-Kahan tridiagonal, whose diagonal is zero and whose off-diagonals
interleave the bidiagonal's diagonal and superdiagonal. Bisection on that
tridiagonal (Demmel & Kahan, 1990) finds every singular value from Sturm
counts, never from a Gram matrix, so small singular values keep their
accuracy. 52 halvings of the Gershgorin bracket find each singular value
to within 2^-52 * sigma_max, so the sum of n is within n * 2^-52 *
sigma_max (1.4e-14 relative at n = 64) plus the rounding of the
reflectors and the counts. The test suite checks the result against an
independent full-SVD oracle.
"""
from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .errors import ForgeError, NonFiniteInput
from .tinylm import Batch, ModelParams, loss_and_backward

_HALVINGS = 52


def _reflector(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Householder reflectors I - tau v v^T that take each row of a (k, l)
    stack x to (beta, 0, ..., 0); returns v, tau and beta."""
    # the reflector does not depend on the scale of v; scaling x to a
    # largest entry of 1 keeps v.v away from underflow
    big = np.abs(x).max(axis=1)
    v = x / np.where(big > 0.0, big, 1.0)[:, None]
    norm = np.sqrt(np.einsum("ki,ki->k", v, v))
    head = np.where(v[:, 0] >= 0.0, -norm, norm)
    v[:, 0] -= head
    tau = np.divide(2.0, np.einsum("ki,ki->k", v, v), out=np.zeros(len(x)), where=big > 0.0)
    return v, tau, head * big


def _golub_kahan_offdiagonals(a: np.ndarray) -> np.ndarray:
    """Bidiagonalize a stack of tall matrices (k, m, n), m >= n, by a left
    and then a right reflector per column; returns the (k, 2n - 1)
    off-diagonals (d1, f1, d2, ..., dn) of each Golub-Kahan tridiagonal,
    d the bidiagonal's diagonal and f its superdiagonal."""
    a = a.copy()
    k, _, n = a.shape
    e = np.empty((k, 2 * n - 1))
    for j in range(n):
        v, tau, e[:, 2 * j] = _reflector(a[:, j:, j])
        rest = a[:, j:, j + 1:]
        rest -= (tau[:, None] * v)[:, :, None] * np.einsum("ki,kij->kj", v, rest)[:, None, :]
        if j + 1 < n:
            v, tau, e[:, 2 * j + 1] = _reflector(a[:, j, j + 1:])
            rest = a[:, j + 1:, j + 1:]
            rest -= np.einsum("kij,kj->ki", rest, v)[:, :, None] * (tau[:, None] * v)[:, None, :]
    return e


def _singular_values(e: np.ndarray) -> np.ndarray:
    """The n singular values, ascending, of each of k bidiagonals given by
    their Golub-Kahan off-diagonals e (k, 2n - 1), by bisection on (k, n)
    lanes: lane i of a matrix brackets its i-th smallest singular value."""
    k, n = e.shape[0], (e.shape[1] + 1) // 2
    edges = np.pad(np.abs(e), ((0, 0), (1, 1)))
    # the Gershgorin bound of the tridiagonal, at most twice sigma_max
    hi = np.repeat((edges[:, :-1] + edges[:, 1:]).max(axis=1, keepdims=True), n, axis=1)
    lo = np.zeros((k, n))
    lane = np.arange(n)
    # a zero pivot then divides tiny by zero: the next pivot is +-inf and
    # the one after it exactly -x, so no NaN can arise
    e2 = np.maximum(e * e, np.finfo(np.float64).tiny).T[:, :, None].copy()
    pivots = np.empty((2 * n, k, n))
    with np.errstate(all="ignore"):
        for _ in range(_HALVINGS):
            x = 0.5 * (lo + hi)
            neg_x = np.negative(x, out=pivots[0])
            for j in range(2 * n - 1):
                np.divide(e2[j], pivots[j], out=pivots[j + 1])
                np.subtract(neg_x, pivots[j + 1], out=pivots[j + 1])
            # the tridiagonal has n eigenvalues -sigma <= 0 below any x > 0,
            # so the negative pivots less n count the sigma below x
            below = np.count_nonzero(np.signbit(pivots), axis=0) - n
            above = below > lane
            np.copyto(hi, x, where=above)
            np.copyto(lo, x, where=~above)
    return 0.5 * (lo + hi)


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
    # exact power-of-two scaling keeps the squares in the Sturm counts in range
    _, exponent = np.frexp(np.abs(g).max(axis=(1, 2)))
    g = np.ldexp(g, -exponent[:, None, None])
    sigma = _singular_values(_golub_kahan_offdiagonals(g))
    return np.ldexp(sigma.sum(axis=1), exponent)


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
    if not batches:
        raise ForgeError("the gradient probe holds no batches")
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
