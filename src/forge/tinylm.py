"""Small decoder-only transformer with explicit forward and backward passes.

Parameters and gradients are addressable per layer and per matrix so
selective tuning and gradient analysis are first-class. Pre-norm residual
blocks, causal multi-head attention, GELU MLP, RMS norms with learned
gains, learned absolute positions, input/output embeddings tied.

Backward always populates gradients for every parameter; freezing is the
optimizer's job. Default dtype is float32; pass float64 for
high-precision gradient checks.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import erf

from .errors import AllMasked

NORM_EPS = 1e-6
_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

LAYER_TENSORS = ("attn_gain", "W_Q", "W_K", "W_V", "W_O", "mlp_gain", "W_1", "W_2")
GLOBAL_TENSORS = ("tok_emb", "pos_emb", "final_gain")

ParamKey = tuple[int | None, str]  # (layer index, name); None = global


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int
    d_model: int
    n_heads: int
    d_ff: int
    vocab_size: int
    max_seq_len: int
    init_seed: int = 0

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        for name in ("n_layers", "d_model", "n_heads", "d_ff", "vocab_size", "max_seq_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        return cls(**json.loads(text))


def param_paths(config: ModelConfig) -> list[tuple[int | None, str, tuple[int, ...]]]:
    """Stable enumeration of (layer, name, shape) used by init order,
    checkpoints, freezing masks, and reports."""
    d, f = config.d_model, config.d_ff
    paths: list[tuple[int | None, str, tuple[int, ...]]] = [
        (None, "tok_emb", (config.vocab_size, d)),
        (None, "pos_emb", (config.max_seq_len, d)),
    ]
    shapes = {
        "attn_gain": (d,), "W_Q": (d, d), "W_K": (d, d), "W_V": (d, d),
        "W_O": (d, d), "mlp_gain": (d,), "W_1": (d, f), "W_2": (f, d),
    }
    for layer in range(config.n_layers):
        for name in LAYER_TENSORS:
            paths.append((layer, name, shapes[name]))
    paths.append((None, "final_gain", (d,)))
    return paths


def layer_keys(layer: int) -> list[ParamKey]:
    return [(layer, name) for name in LAYER_TENSORS]


def global_keys() -> list[ParamKey]:
    return [(None, name) for name in GLOBAL_TENSORS]


class ModelParams:
    """Full parameter set, addressable by (layer, name)."""

    def __init__(self, config: ModelConfig, tensors: dict[ParamKey, np.ndarray]):
        self.config = config
        self.tensors = tensors

    def __getitem__(self, key: ParamKey) -> np.ndarray:
        return self.tensors[key]

    def __setitem__(self, key: ParamKey, value: np.ndarray) -> None:
        self.tensors[key] = value

    def keys(self) -> list[ParamKey]:
        return [(layer, name) for layer, name, _ in param_paths(self.config)]

    @property
    def dtype(self) -> np.dtype:
        return self.tensors[(None, "tok_emb")].dtype

    def clone(self) -> "ModelParams":
        return ModelParams(self.config, {k: v.copy() for k, v in self.tensors.items()})

    def astype(self, dtype) -> "ModelParams":
        return ModelParams(self.config, {k: v.astype(dtype) for k, v in self.tensors.items()})

    def tensor_bytes(self, key: ParamKey) -> bytes:
        return self.tensors[key].tobytes()


def init(config: ModelConfig, dtype=np.float32) -> ModelParams:
    """Deterministic seeded init: weight matrices ~ U(-1/sqrt(fan_in),
    +1/sqrt(fan_in)), norm gains 1, embeddings ~ U(-0.02, 0.02).
    Identical seed gives bit-identical parameters.

    The residual-output matrices W_O and W_2 carry an extra
    1/sqrt(2*n_layers) factor; without it the randomly initialized
    blocks swamp the embedding signal at depth and training stalls.
    """
    rng = np.random.default_rng(config.init_seed)
    residual_scale = 1.0 / math.sqrt(2 * config.n_layers)
    tensors: dict[ParamKey, np.ndarray] = {}
    for layer, name, shape in param_paths(config):
        if name.endswith("gain"):
            t = np.ones(shape)
        elif name in ("tok_emb", "pos_emb"):
            t = rng.uniform(-0.02, 0.02, size=shape)
        else:
            bound = 1.0 / math.sqrt(shape[0])
            if name in ("W_O", "W_2"):
                bound *= residual_scale
            t = rng.uniform(-bound, bound, size=shape)
        tensors[(layer, name)] = t.astype(dtype)
    return ModelParams(config, tensors)


def zero_grads(params: ModelParams) -> dict[ParamKey, np.ndarray]:
    return {k: np.zeros_like(v) for k, v in params.tensors.items()}


@dataclass
class Batch:
    """Token ids [B,T] plus a loss mask [B,T]; mask=1 marks supervised
    (response) tokens. The token at a masked position t>=1 is predicted
    from the logits at position t-1; a mask at position 0 is ignored."""

    ids: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.mask = np.asarray(self.mask)
        if self.ids.shape != self.mask.shape or self.ids.ndim != 2:
            raise ValueError("ids and mask must both be [B,T]")

    def validate(self, config: ModelConfig) -> None:
        if self.ids.shape[1] > config.max_seq_len:
            raise ValueError(f"sequence length {self.ids.shape[1]} exceeds max_seq_len")
        if self.ids.min() < 0 or self.ids.max() >= config.vocab_size:
            raise ValueError("token id out of vocabulary range")


def _rmsnorm(x: np.ndarray, gain: np.ndarray):
    ms = np.mean(x * x, axis=-1, keepdims=True)
    r = np.sqrt(ms + NORM_EPS)
    xhat = x / r
    return xhat * gain, xhat, r


def _rmsnorm_backward(dy, gain, xhat, r):
    dgain = np.sum(dy * xhat, axis=(0, 1))
    u = dy * gain
    mean_ux = np.mean(u * xhat, axis=-1, keepdims=True)
    dx = (u - xhat * mean_ux) / r
    return dx, dgain


def _gelu(x: np.ndarray):
    cdf = 0.5 * (1.0 + erf(x / _SQRT2))
    return x * cdf, cdf


def _gelu_backward(dy, x, cdf):
    pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
    return dy * (cdf + x * pdf)


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)


def _softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def forward(params: ModelParams, batch: Batch) -> tuple[np.ndarray, dict]:
    """Run the model; returns logits [B,T,V] and the activation cache
    needed by the backward pass (attention probs under key 'probs')."""
    config = params.config
    batch.validate(config)
    ids = batch.ids
    b, t = ids.shape
    dtype = params.dtype

    x = (params[(None, "tok_emb")][ids] + params[(None, "pos_emb")][:t]).astype(dtype)
    causal = np.triu(np.ones((t, t), dtype=bool), k=1)
    scale = 1.0 / math.sqrt(config.head_dim)

    cache: dict = {"x0": x, "layers": [], "probs": []}
    for layer in range(config.n_layers):
        lc: dict = {"x_in": x}
        normed1, xhat1, r1 = _rmsnorm(x, params[(layer, "attn_gain")])
        lc.update(normed1=normed1, xhat1=xhat1, r1=r1)

        q = _split_heads(normed1 @ params[(layer, "W_Q")], config.n_heads)
        k = _split_heads(normed1 @ params[(layer, "W_K")], config.n_heads)
        v = _split_heads(normed1 @ params[(layer, "W_V")], config.n_heads)
        scores = (q @ k.transpose(0, 1, 3, 2)) * scale
        scores = np.where(causal, -np.inf, scores)
        probs = _softmax(scores)
        z = _merge_heads(probs @ v)
        attn_out = z @ params[(layer, "W_O")]
        lc.update(q=q, k=k, v=v, probs=probs, z=z)
        cache["probs"].append(probs)

        x = x + attn_out
        lc["x_mid"] = x
        normed2, xhat2, r2 = _rmsnorm(x, params[(layer, "mlp_gain")])
        pre = normed2 @ params[(layer, "W_1")]
        act, cdf = _gelu(pre)
        mlp_out = act @ params[(layer, "W_2")]
        lc.update(normed2=normed2, xhat2=xhat2, r2=r2, pre=pre, act=act, cdf=cdf)
        x = x + mlp_out
        cache["layers"].append(lc)

    normed_f, xhat_f, r_f = _rmsnorm(x, params[(None, "final_gain")])
    cache.update(x_final=x, normed_f=normed_f, xhat_f=xhat_f, r_f=r_f)
    logits = normed_f @ params[(None, "tok_emb")].T
    return logits, cache


def masked_positions(batch: Batch) -> np.ndarray:
    """Effective supervision mask [B,T-1] over tokens 1..T-1."""
    return batch.mask[:, 1:].astype(bool)


def loss_and_backward(params: ModelParams, batch: Batch, loss_scale: float = 1.0
                      ) -> tuple[float, dict[ParamKey, np.ndarray]]:
    """Mean masked next-token cross-entropy plus gradients for ALL
    parameters (freezing is the optimizer's concern, and the sensitivity
    analysis needs gradients on frozen layers too)."""
    config = params.config
    logits, cache = forward(params, batch)
    ids = batch.ids
    b, t = ids.shape
    dtype = params.dtype

    if t < 2:
        raise AllMasked("sequence too short to supervise any position")
    m = masked_positions(batch)
    n_masked = int(m.sum())
    if n_masked == 0:
        raise AllMasked("loss mask selects no position")

    pred = logits[:, :-1, :]
    targets = ids[:, 1:]
    shifted = pred - np.max(pred, axis=-1, keepdims=True)
    logz = np.log(np.sum(np.exp(shifted), axis=-1))
    target_logit = np.take_along_axis(shifted, targets[..., None], axis=-1)[..., 0]
    nll = logz - target_logit
    loss = float(np.sum(nll * m) / n_masked) * loss_scale

    probs = np.exp(shifted - logz[..., None])
    dpred = probs
    np.put_along_axis(
        dpred, targets[..., None],
        np.take_along_axis(dpred, targets[..., None], axis=-1) - 1.0, axis=-1)
    dpred = dpred * (m[..., None] * (loss_scale / n_masked))
    dlogits = np.zeros_like(logits)
    dlogits[:, :-1, :] = dpred

    grads = zero_grads(params)
    emb = params[(None, "tok_emb")]

    # head (tied embedding) and final norm
    dnormed_f = dlogits @ emb
    grads[(None, "tok_emb")] += np.einsum("btv,btd->vd", dlogits, cache["normed_f"])
    dx, dgain_f = _rmsnorm_backward(dnormed_f, params[(None, "final_gain")],
                                    cache["xhat_f"], cache["r_f"])
    grads[(None, "final_gain")] += dgain_f

    scale = 1.0 / math.sqrt(config.head_dim)
    for layer in range(config.n_layers - 1, -1, -1):
        lc = cache["layers"][layer]

        # MLP branch
        dmlp_out = dx
        grads[(layer, "W_2")] += lc["act"].reshape(-1, config.d_ff).T @ \
            dmlp_out.reshape(-1, config.d_model)
        dact = dmlp_out @ params[(layer, "W_2")].T
        dpre = _gelu_backward(dact, lc["pre"], lc["cdf"])
        grads[(layer, "W_1")] += lc["normed2"].reshape(-1, config.d_model).T @ \
            dpre.reshape(-1, config.d_ff)
        dnormed2 = dpre @ params[(layer, "W_1")].T
        dx_mid, dgain2 = _rmsnorm_backward(dnormed2, params[(layer, "mlp_gain")],
                                           lc["xhat2"], lc["r2"])
        grads[(layer, "mlp_gain")] += dgain2
        dx = dx + dx_mid

        # attention branch
        dattn_out = dx
        grads[(layer, "W_O")] += lc["z"].reshape(-1, config.d_model).T @ \
            dattn_out.reshape(-1, config.d_model)
        dz = _split_heads(dattn_out @ params[(layer, "W_O")].T, config.n_heads)
        dprobs = dz @ lc["v"].transpose(0, 1, 3, 2)
        dv = lc["probs"].transpose(0, 1, 3, 2) @ dz
        dscores = lc["probs"] * (dprobs - np.sum(dprobs * lc["probs"], axis=-1, keepdims=True))
        dq = (dscores @ lc["k"]) * scale
        dk = (dscores.transpose(0, 1, 3, 2) @ lc["q"]) * scale

        dq_m, dk_m, dv_m = (_merge_heads(g) for g in (dq, dk, dv))
        normed1_flat = lc["normed1"].reshape(-1, config.d_model)
        grads[(layer, "W_Q")] += normed1_flat.T @ dq_m.reshape(-1, config.d_model)
        grads[(layer, "W_K")] += normed1_flat.T @ dk_m.reshape(-1, config.d_model)
        grads[(layer, "W_V")] += normed1_flat.T @ dv_m.reshape(-1, config.d_model)
        dnormed1 = (dq_m @ params[(layer, "W_Q")].T
                    + dk_m @ params[(layer, "W_K")].T
                    + dv_m @ params[(layer, "W_V")].T)
        dx_in, dgain1 = _rmsnorm_backward(dnormed1, params[(layer, "attn_gain")],
                                          lc["xhat1"], lc["r1"])
        grads[(layer, "attn_gain")] += dgain1
        dx = dx + dx_in

    # embeddings
    np.add.at(grads[(None, "tok_emb")], ids, dx)
    grads[(None, "pos_emb")][:t] += dx.sum(axis=0)
    return loss, grads


def _extend(params: ModelParams, tokens: np.ndarray, start: int,
            keys: list[np.ndarray], values: list[np.ndarray]) -> np.ndarray:
    """Run tokens [B,T] at positions start..start+T-1, attending to the
    cached keys and values of the positions before them. Stores their own
    K and V in the cache and returns the logits [B,V] of the last one."""
    config = params.config
    end = start + tokens.shape[1]
    x = (params[(None, "tok_emb")][tokens] + params[(None, "pos_emb")][start:end]).astype(params.dtype)
    future = np.arange(end) > np.arange(start, end)[:, None]
    scale = 1.0 / math.sqrt(config.head_dim)
    for layer in range(config.n_layers):
        normed1, _, _ = _rmsnorm(x, params[(layer, "attn_gain")])
        q = _split_heads(normed1 @ params[(layer, "W_Q")], config.n_heads)
        keys[layer][:, :, start:end] = _split_heads(normed1 @ params[(layer, "W_K")], config.n_heads)
        values[layer][:, :, start:end] = _split_heads(normed1 @ params[(layer, "W_V")], config.n_heads)
        k, v = keys[layer][:, :, :end], values[layer][:, :, :end]
        scores = np.where(future, -np.inf, (q @ k.transpose(0, 1, 3, 2)) * scale)
        x = x + _merge_heads(_softmax(scores) @ v) @ params[(layer, "W_O")]
        normed2, _, _ = _rmsnorm(x, params[(layer, "mlp_gain")])
        act, _ = _gelu(normed2 @ params[(layer, "W_1")])
        x = x + act @ params[(layer, "W_2")]
    normed_f, _, _ = _rmsnorm(x[:, -1], params[(None, "final_gain")])
    return normed_f @ params[(None, "tok_emb")].T


def decode_batch(params: ModelParams, prompts: np.ndarray, n_tokens: int) -> np.ndarray:
    """Greedily extend each row of prompts [B,P] (all of one length) by
    n_tokens; returns the new tokens [B,n_tokens].

    The prompts run through the model once, filling a key/value cache,
    then each step runs one position per layer against it. Positions are
    absolute, so once prompt plus output passes max_seq_len every later
    step re-runs the last max_seq_len tokens from position 0, the window
    of a full re-forward per step. Logits differ from a full forward
    only in rounding (other matrix shapes), so what is compared against
    it is the tokens."""
    config = params.config
    prompts = np.asarray(prompts, dtype=np.int64)
    b, p = prompts.shape
    ids = np.empty((b, p + n_tokens), dtype=np.int64)
    ids[:, :p] = prompts
    if n_tokens == 0:
        return ids[:, p:]
    window = prompts[:, -config.max_seq_len:]
    Batch(ids=window, mask=np.zeros(window.shape)).validate(config)
    shape = (b, config.n_heads, min(window.shape[1] + n_tokens - 1, config.max_seq_len),
             config.head_dim)
    keys = [np.empty(shape, dtype=params.dtype) for _ in range(config.n_layers)]
    values = [np.empty(shape, dtype=params.dtype) for _ in range(config.n_layers)]
    ids[:, p] = np.argmax(_extend(params, window, 0, keys, values), axis=-1)
    for t in range(p + 1, p + n_tokens):
        if t <= config.max_seq_len:
            last = _extend(params, ids[:, t - 1:t], t - 1, keys, values)
        else:
            last = _extend(params, ids[:, t - config.max_seq_len:t], 0, keys, values)
        ids[:, t] = np.argmax(last, axis=-1)
    return ids[:, p:]


def greedy_decode(params: ModelParams, prompt_ids: list[int], n_tokens: int) -> list[int]:
    """Greedily extend one prompt by n_tokens (decode_batch with B=1)."""
    return decode_batch(params, np.array([prompt_ids], dtype=np.int64), n_tokens)[0].tolist()


# ---------------------------------------------------------------------------
# Checkpoint format: manifest.json + flat little-endian float32 blob

def save_checkpoint(params: ModelParams, out_dir: str | Path) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    offset = 0
    blobs = []
    for layer, name, shape in param_paths(params.config):
        data = np.ascontiguousarray(params[(layer, name)], dtype="<f4").tobytes()
        entries.append({"layer": layer, "name": name, "shape": list(shape),
                        "offset": offset, "length": len(data)})
        offset += len(data)
        blobs.append(data)
    manifest = {"config": json.loads(params.config.to_json()), "tensors": entries}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    (out_dir / "params.bin").write_bytes(b"".join(blobs))


def load_checkpoint(in_dir: str | Path, dtype=np.float32) -> ModelParams:
    in_dir = Path(in_dir)
    manifest = json.loads((in_dir / "manifest.json").read_text(encoding="utf-8"))
    config = ModelConfig(**manifest["config"])
    blob = (in_dir / "params.bin").read_bytes()
    tensors: dict[ParamKey, np.ndarray] = {}
    for entry in manifest["tensors"]:
        raw = blob[entry["offset"]:entry["offset"] + entry["length"]]
        arr = np.frombuffer(raw, dtype="<f4").reshape(entry["shape"]).astype(dtype)
        layer = entry["layer"]
        tensors[(layer, entry["name"])] = arr
    return ModelParams(config, tensors)

