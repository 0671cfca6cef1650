"""Independent oracles for the model workloads.

Everything here is written from the model definition in the forge README
and `tinylm` docstrings (pre-norm residual blocks, causal multi-head
attention, exact-erf GELU MLP, RMS norms with eps 1e-6 and learned gains,
learned absolute positions, tied input/output embedding), in float64 and
with different array code (einsum, `math.erf`), so a fault in the
program's forward, backward, decode or evaluation does not reproduce here.
"""
from __future__ import annotations

import math

import numpy as np

from forge import tinylm

NORM_EPS = 1e-6
_erf = np.vectorize(math.erf, otypes=[np.float64])


def _rms(x: np.ndarray, gain: np.ndarray) -> np.ndarray:
    return x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + NORM_EPS) * gain


def reference_logits(params, ids: np.ndarray) -> np.ndarray:
    """Float64 logits [B,T,V] for token ids [B,T]."""
    cfg = params.config
    p = {key: np.asarray(value, dtype=np.float64) for key, value in params.tensors.items()}
    ids = np.asarray(ids, dtype=np.int64)
    b, t = ids.shape
    heads, dh = cfg.n_heads, cfg.d_model // cfg.n_heads
    visible = np.tril(np.ones((t, t), dtype=bool))
    x = p[(None, "tok_emb")][ids] + p[(None, "pos_emb")][:t]
    for layer in range(cfg.n_layers):
        h = _rms(x, p[(layer, "attn_gain")])
        q, k, v = (np.reshape(h @ p[(layer, name)], (b, t, heads, dh))
                   for name in ("W_Q", "W_K", "W_V"))
        scores = np.einsum("bqhd,bkhd->bhqk", q, k) / math.sqrt(dh)
        scores = np.where(visible, scores, -np.inf)
        weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights /= weights.sum(axis=-1, keepdims=True)
        z = np.einsum("bhqk,bkhd->bqhd", weights, v).reshape(b, t, cfg.d_model)
        x = x + z @ p[(layer, "W_O")]
        u = _rms(x, p[(layer, "mlp_gain")]) @ p[(layer, "W_1")]
        x = x + (0.5 * u * (1.0 + _erf(u / math.sqrt(2.0)))) @ p[(layer, "W_2")]
    return _rms(x, p[(None, "final_gain")]) @ p[(None, "tok_emb")].T


def reference_nll(params, ids: np.ndarray, mask: np.ndarray) -> tuple[float, int]:
    """Summed next-token NLL over supervised positions t >= 1, and their count."""
    logits = reference_logits(params, ids)[:, :-1, :]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    target_logp = np.take_along_axis(logp, np.asarray(ids)[:, 1:, None], axis=-1)[..., 0]
    supervised = np.asarray(mask)[:, 1:].astype(bool)
    return float(-(target_logp * supervised).sum()), int(supervised.sum())


def reference_loss(params, ids: np.ndarray, mask: np.ndarray) -> float:
    total, count = reference_nll(params, ids, mask)
    return total / count


def _shifted(params, direction: dict, step: float):
    out = params.clone()
    for key, d in direction.items():
        out.tensors[key] = out.tensors[key] + step * d
    return out


def check_forward(params, batches, atol: float) -> list[str]:
    """`tinylm.forward` logits against the reference, batch by batch."""
    problems = []
    for i, batch in enumerate(batches):
        got, _ = tinylm.forward(params, batch)
        want = reference_logits(params, batch.ids)
        err = float(np.max(np.abs(got.astype(np.float64) - want)))
        if not err <= atol:
            problems.append(f"forward batch {i}: max |logit error| {err:.3g} > {atol:g}")
    return problems


def check_gradient(params64, batch, rng: np.random.Generator, n_directions: int = 3,
                   eps: float = 1e-4, rtol: float = 1e-6) -> list[str]:
    """Central finite differences of the reference loss along random
    unit-norm directions against the directional derivative of
    `loss_and_backward` (float64 parameters). At eps 1e-4 the truncation
    and rounding errors are both near 1e-9 relative."""
    problems = []
    loss, grads = tinylm.loss_and_backward(params64, batch)
    want_loss = reference_loss(params64, batch.ids, batch.mask)
    if not abs(loss - want_loss) <= rtol * abs(want_loss):
        problems.append(f"loss {loss!r} != reference {want_loss!r}")
    for i in range(n_directions):
        direction = {key: rng.standard_normal(t.shape) for key, t in params64.tensors.items()}
        norm = math.sqrt(sum(float(np.sum(d * d)) for d in direction.values()))
        direction = {key: d / norm for key, d in direction.items()}
        analytic = sum(float(np.sum(grads[key] * d)) for key, d in direction.items())
        plus = reference_loss(_shifted(params64, direction, eps), batch.ids, batch.mask)
        minus = reference_loss(_shifted(params64, direction, -eps), batch.ids, batch.mask)
        numeric = (plus - minus) / (2.0 * eps)
        err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12)
        if not err <= rtol:
            problems.append(f"direction {i}: analytic {analytic!r} vs finite "
                            f"difference {numeric!r} (rel {err:.3g})")
    return problems


def check_decode(params, prompt, decoded, margin: float) -> list[str]:
    """Every greedily decoded token must be the argmax of the reference
    logits for its prefix. `margin` absorbs float32 near-ties: a token
    whose reference logit is within `margin` of the maximum is accepted."""
    problems = []
    seq = list(prompt)
    window = params.config.max_seq_len
    for step, token in enumerate(decoded):
        logits = reference_logits(params, np.array([seq[-window:]]))[0, -1]
        if not logits[token] >= logits.max() - margin:
            problems.append(f"decode step {step}: token {token} is not the argmax "
                            f"{int(np.argmax(logits))} (gap {logits.max() - logits[token]:.3g})")
        seq.append(int(token))
    return problems


def check_evaluate(params, eval_set, result, rtol: float) -> list[str]:
    """`evaluate`'s mean_ce against the token-weighted reference NLL."""
    total, count = 0.0, 0
    for sample in eval_set.samples:
        seq = list(sample.prompt) + list(sample.response)
        mask = [0] * len(sample.prompt) + [1] * len(sample.response)
        nll, n = reference_nll(params, np.array([seq]), np.array([mask]))
        total += nll
        count += n
    want = total / count
    problems = []
    if not abs(result.mean_ce - want) <= rtol * abs(want):
        problems.append(f"{eval_set.task_id}: mean_ce {result.mean_ce!r} != reference {want!r}")
    if result.sample_count != len(eval_set.samples):
        problems.append(f"{eval_set.task_id}: sample_count {result.sample_count}")
    return problems


def svd_nuclear_norm(matrix: np.ndarray) -> float:
    return float(np.linalg.svd(np.asarray(matrix, dtype=np.float64), compute_uv=False).sum())
