"""Small decoder-only transformer with explicit forward and backward passes.

Parameters and gradients are addressable per layer and per matrix so
selective tuning and gradient analysis are first-class. Pre-norm residual
blocks, causal multi-head attention, GELU MLP, RMS norms with learned
gains, learned absolute positions, input/output embeddings tied.

The block math is written once, in block_forward and block_backward;
the training forward, the cache-free forward of evaluation and the
greedy decoder all run it. Backward computes a weight gradient only for
a needed key (all by default), runs the gradient chain down to the
lowest block with a needed key, and can start from the residual stream
at a block boundary instead of the embeddings; a frozen block below
every trained one then costs at most its forward pass. Default dtype is
float32; pass float64 for high-precision gradient checks.
"""
from __future__ import annotations

import functools
import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AllMasked, ForgeError
from .records import check_range, read_config, read_json, read_object

NORM_EPS = 1e-6
_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

LAYER_TENSORS = ("attn_gain", "W_Q", "W_K", "W_V", "W_O", "mlp_gain", "W_1", "W_2")
GLOBAL_TENSORS = ("tok_emb", "pos_emb", "final_gain")

ParamKey = tuple[int | None, str]  # (layer index, name); None = global

# The most parameters a model config may ask for. The float32 tensors of
# such a model, its gradients and its two Adam moments take 1.6 GB; a
# config above it is refused before anything is allocated.
MAX_PARAMS = 100_000_000


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int
    d_model: int
    n_heads: int
    d_ff: int
    vocab_size: int
    max_seq_len: int
    init_seed: int = 0
    RANGES = {"n_layers": "[1, inf)", "d_model": "[1, inf)", "n_heads": "[1, inf)",
              "d_ff": "[1, inf)", "vocab_size": "[1, inf)", "max_seq_len": "[1, inf)",
              "init_seed": "[0, inf)"}

    def __post_init__(self):
        for name, interval in self.RANGES.items():
            check_range(name, getattr(self, name), interval)
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if self.param_count > MAX_PARAMS:
            raise ValueError(f"model config has {self.param_count:,} parameters, more than "
                             f"the ceiling of {MAX_PARAMS:,}")

    @property
    def param_count(self) -> int:
        """The number of parameters, from the shapes param_paths lists,
        found without listing every block."""
        shared, block = _tensor_shapes(self)
        return (sum(math.prod(shape) for shape in shared.values())
                + self.n_layers * sum(math.prod(shape) for shape in block.values()))

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads


def _tensor_shapes(config: ModelConfig) -> tuple[dict[str, tuple[int, ...]],
                                                 dict[str, tuple[int, ...]]]:
    """The shapes of the global tensors, and of each block's tensors."""
    d, f = config.d_model, config.d_ff
    shared = {"tok_emb": (config.vocab_size, d), "pos_emb": (config.max_seq_len, d),
              "final_gain": (d,)}
    block = {"attn_gain": (d,), "W_Q": (d, d), "W_K": (d, d), "W_V": (d, d),
             "W_O": (d, d), "mlp_gain": (d,), "W_1": (d, f), "W_2": (f, d)}
    return shared, block


def param_paths(config: ModelConfig) -> list[tuple[int | None, str, tuple[int, ...]]]:
    """Stable enumeration of (layer, name, shape) used by init order,
    checkpoints, freezing masks, and reports."""
    shared, block = _tensor_shapes(config)
    return ([(None, name, shared[name]) for name in ("tok_emb", "pos_emb")]
            + [(layer, name, block[name])
               for layer in range(config.n_layers) for name in LAYER_TENSORS]
            + [(None, "final_gain", shared["final_gain"])])


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
    _erf()
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


@functools.cache
def _erf():
    """scipy.special.erf, imported on first use, so that a process that
    never builds or loads a model (refine, make-synth) never pays for
    importing scipy. init and load_checkpoint call it, so that the row
    workers forked after them inherit the module instead of importing it
    each."""
    from scipy.special import erf
    return erf


def _gelu(x: np.ndarray):
    cdf = 0.5 * (1.0 + _erf()(x / _SQRT2))
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


def embed(params: ModelParams, ids: np.ndarray) -> np.ndarray:
    """The residual stream [B,T,d] entering block 0 for token ids [B,T]
    at positions 0..T-1."""
    pos = params[(None, "pos_emb")][:ids.shape[1]]
    return (params[(None, "tok_emb")][ids] + pos).astype(params.dtype)


def block_forward(params: ModelParams, layer: int, x: np.ndarray,
                  cache: dict | None = None) -> np.ndarray:
    """Block `layer` on the residual stream x [B,T,d] at positions
    0..T-1, each attending to itself and the positions before it; returns
    the stream after it. A cache dict receives the activations
    block_backward needs."""
    config = params.config
    t = x.shape[1]
    normed1, xhat1, r1 = _rmsnorm(x, params[(layer, "attn_gain")])
    q = _split_heads(normed1 @ params[(layer, "W_Q")], config.n_heads)
    k = _split_heads(normed1 @ params[(layer, "W_K")], config.n_heads)
    v = _split_heads(normed1 @ params[(layer, "W_V")], config.n_heads)
    future = np.arange(t) > np.arange(t)[:, None]
    scale = 1.0 / math.sqrt(config.head_dim)
    scores = np.where(future, -np.inf, (q @ k.transpose(0, 1, 3, 2)) * scale)
    probs = _softmax(scores)
    z = _merge_heads(probs @ v)
    x = x + z @ params[(layer, "W_O")]
    normed2, xhat2, r2 = _rmsnorm(x, params[(layer, "mlp_gain")])
    pre = normed2 @ params[(layer, "W_1")]
    act, cdf = _gelu(pre)
    if cache is not None:
        cache.update(normed1=normed1, xhat1=xhat1, r1=r1, q=q, k=k, v=v, probs=probs, z=z,
                     normed2=normed2, xhat2=xhat2, r2=r2, pre=pre, act=act, cdf=cdf)
    return x + act @ params[(layer, "W_2")]


def block_backward(params: ModelParams, layer: int, lc: dict, dy: np.ndarray,
                   need: set[ParamKey], below: bool, grads: dict[ParamKey, np.ndarray]
                   ) -> np.ndarray | None:
    """Backward through block `layer` from the gradient dy at its output,
    given the activations block_forward cached in lc. Stores the gradients
    of the layer's tensors in need into grads and returns the gradient at
    the block input, or None unless below. The chain's last step, back
    through the attention norm, runs only if below or attn_gain is needed."""
    config = params.config
    d, f = config.d_model, config.d_ff

    # MLP branch
    if (layer, "W_2") in need:
        grads[(layer, "W_2")] = lc["act"].reshape(-1, f).T @ dy.reshape(-1, d)
    dpre = _gelu_backward(dy @ params[(layer, "W_2")].T, lc["pre"], lc["cdf"])
    if (layer, "W_1") in need:
        grads[(layer, "W_1")] = lc["normed2"].reshape(-1, d).T @ dpre.reshape(-1, f)
    dx_mid, dgain2 = _rmsnorm_backward(dpre @ params[(layer, "W_1")].T,
                                       params[(layer, "mlp_gain")], lc["xhat2"], lc["r2"])
    if (layer, "mlp_gain") in need:
        grads[(layer, "mlp_gain")] = dgain2
    dx = dy + dx_mid

    # attention branch
    if (layer, "W_O") in need:
        grads[(layer, "W_O")] = lc["z"].reshape(-1, d).T @ dx.reshape(-1, d)
    scale = 1.0 / math.sqrt(config.head_dim)
    probs = lc["probs"]
    dz = _split_heads(dx @ params[(layer, "W_O")].T, config.n_heads)
    dprobs = dz @ lc["v"].transpose(0, 1, 3, 2)
    dv = probs.transpose(0, 1, 3, 2) @ dz
    dscores = probs * (dprobs - np.sum(dprobs * probs, axis=-1, keepdims=True))
    dq = (dscores @ lc["k"]) * scale
    dk = (dscores.transpose(0, 1, 3, 2) @ lc["q"]) * scale
    dqkv = {"W_Q": _merge_heads(dq), "W_K": _merge_heads(dk), "W_V": _merge_heads(dv)}
    normed1_flat = lc["normed1"].reshape(-1, d)
    for name, g in dqkv.items():
        if (layer, name) in need:
            grads[(layer, name)] = normed1_flat.T @ g.reshape(-1, d)
    if not below and (layer, "attn_gain") not in need:
        return None
    dnormed1 = (dqkv["W_Q"] @ params[(layer, "W_Q")].T
                + dqkv["W_K"] @ params[(layer, "W_K")].T
                + dqkv["W_V"] @ params[(layer, "W_V")].T)
    dx_in, dgain1 = _rmsnorm_backward(dnormed1, params[(layer, "attn_gain")],
                                      lc["xhat1"], lc["r1"])
    if (layer, "attn_gain") in need:
        grads[(layer, "attn_gain")] = dgain1
    return dx + dx_in if below else None


def _forward(params: ModelParams, x: np.ndarray, first: int, keep_from: int | None
             ) -> tuple[np.ndarray, dict | None]:
    """Blocks first.. on the residual stream x entering block first, then
    the tied head. The cache holds the activations of blocks keep_from..
    and of the head; keep_from=None keeps none."""
    config = params.config
    cache = None if keep_from is None else {"layers": {}, "probs": []}
    for layer in range(first, config.n_layers):
        lc = None
        if cache is not None and layer >= keep_from:
            lc = cache["layers"][layer] = {}
        x = block_forward(params, layer, x, cache=lc)
        if lc is not None:
            cache["probs"].append(lc["probs"])
    normed_f, xhat_f, r_f = _rmsnorm(x, params[(None, "final_gain")])
    if cache is not None:
        cache.update(x_final=x, normed_f=normed_f, xhat_f=xhat_f, r_f=r_f)
    return normed_f @ params[(None, "tok_emb")].T, cache


def forward(params: ModelParams, batch: Batch, keep: bool = True) -> tuple[np.ndarray, dict | None]:
    """Run the model; returns logits [B,T,V] and the activation cache
    needed by the backward pass (attention probs under key 'probs'), or
    None in place of the cache when keep is false."""
    batch.validate(params.config)
    return _forward(params, embed(params, batch.ids), 0, 0 if keep else None)


def masked_positions(batch: Batch) -> np.ndarray:
    """Effective supervision mask [B,T-1] over tokens 1..T-1."""
    return batch.mask[:, 1:].astype(bool)


def next_token_nll(logits: np.ndarray, ids: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Negative log-likelihood [B,T-1] of tokens 1..T-1 of ids [B,T], each
    under the logits [B,T,V] before it, plus the max-shifted logits
    [B,T-1,V] and their log-partition [B,T-1] that the backward reuses."""
    pred = logits[:, :-1, :]
    shifted = pred - np.max(pred, axis=-1, keepdims=True)
    logz = np.log(np.sum(np.exp(shifted), axis=-1))
    target_logit = np.take_along_axis(shifted, ids[:, 1:, None], axis=-1)[..., 0]
    return logz - target_logit, shifted, logz


def loss_and_backward(params: ModelParams, batch: Batch, loss_scale: float = 1.0,
                      need=None, boundary: tuple[int, np.ndarray] | None = None
                      ) -> tuple[float, dict[ParamKey, np.ndarray]]:
    """Mean masked next-token cross-entropy plus the gradients of the
    parameters in need (default: all of them), keyed like params.

    Work that feeds only gradients outside need is skipped: the weight
    gradients of other tensors, the embedding gradients unless an
    embedding is needed, and the backward chain below the lowest block
    needed. A boundary (layer, x) gives the residual stream x entering
    block layer, as these parameters' embeddings and lower blocks would
    compute it; the forward pass then starts there, so nothing below
    layer may be needed. The results are bit-identical to those of the
    full pass."""
    config = params.config
    batch.validate(config)
    keys = params.keys()
    need = set(keys) if need is None else set(need)
    if not need <= set(keys):
        raise ValueError(f"no such parameters: {sorted(need - set(keys), key=str)}")
    ids = batch.ids
    t = ids.shape[1]
    if t < 2:
        raise AllMasked("sequence too short to supervise any position")
    m = masked_positions(batch)
    n_masked = int(m.sum())
    if n_masked == 0:
        raise AllMasked("loss mask selects no position")

    embeddings = bool(need & {(None, "tok_emb"), (None, "pos_emb")})
    stop = 0 if embeddings else min(
        (layer for layer, _ in need if layer is not None), default=config.n_layers)
    first, x = (0, embed(params, ids)) if boundary is None else boundary
    if first > stop:
        raise ValueError(f"a needed gradient lies below the boundary at block {first}")
    logits, cache = _forward(params, x, first, stop)

    nll, shifted, logz = next_token_nll(logits, ids)
    loss = float(np.sum(nll * m) / n_masked) * loss_scale
    if not need:
        return loss, {}

    targets = ids[:, 1:]
    probs = np.exp(shifted - logz[..., None])
    dpred = probs
    np.put_along_axis(
        dpred, targets[..., None],
        np.take_along_axis(dpred, targets[..., None], axis=-1) - 1.0, axis=-1)
    dpred = dpred * (m[..., None] * (loss_scale / n_masked))
    dlogits = np.zeros_like(logits)
    dlogits[:, :-1, :] = dpred

    grads: dict[ParamKey, np.ndarray] = {}
    emb = params[(None, "tok_emb")]

    # head (tied embedding) and final norm
    dnormed_f = dlogits @ emb
    if (None, "tok_emb") in need:
        grads[(None, "tok_emb")] = np.einsum("btv,btd->vd", dlogits, cache["normed_f"])
    dx, dgain_f = _rmsnorm_backward(dnormed_f, params[(None, "final_gain")],
                                    cache["xhat_f"], cache["r_f"])
    grads[(None, "final_gain")] = dgain_f

    for layer in range(config.n_layers - 1, stop - 1, -1):
        dx = block_backward(params, layer, cache["layers"][layer], dx, need,
                            layer > stop or embeddings, grads)

    # embeddings
    if (None, "tok_emb") in need:
        np.add.at(grads[(None, "tok_emb")], ids, dx)
    if (None, "pos_emb") in need:
        grads[(None, "pos_emb")] = np.zeros_like(params[(None, "pos_emb")])
        grads[(None, "pos_emb")][:t] += dx.sum(axis=0)
    return loss, {key: grads[key] for key in keys if key in need}


def greedy_decode(params: ModelParams, prompt_ids: list[int], n_tokens: int) -> list[int]:
    """Greedily extend one prompt by n_tokens: each step runs one forward
    over the last max_seq_len tokens and appends the argmax of its last
    position. No command decodes; the benchmark checks this decoder."""
    ids = list(prompt_ids)
    for _ in range(n_tokens):
        window = ids[-params.config.max_seq_len:]
        batch = Batch(ids=np.array([window]), mask=np.zeros((1, len(window))))
        logits, _ = forward(params, batch, keep=False)
        ids.append(int(np.argmax(logits[0, -1])))
    return ids[len(prompt_ids):]


# ---------------------------------------------------------------------------
# Checkpoint format: manifest.json + flat little-endian float32 blob

def _layout(config: ModelConfig) -> list[dict]:
    """The manifest's tensor table: one entry per param_paths entry, in
    that order, packed end to end in params.bin as little-endian float32."""
    table, offset = [], 0
    for layer, name, shape in param_paths(config):
        length = 4 * math.prod(shape)
        table.append({"layer": layer, "name": name, "shape": list(shape),
                      "offset": offset, "length": length})
        offset += length
    return table


def save_checkpoint(params: ModelParams, out_dir: str | Path) -> None:
    """Write params to out_dir as params.bin and manifest.json. Both are
    written under temporary names in out_dir, then renamed over the old
    files, params.bin first and the manifest last; a save that fails
    before the renames leaves the previous checkpoint as it was. The
    manifest holds the sha256 of params.bin, so a save that fails between
    the renames leaves a checkpoint that does not load."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    table = _layout(params.config)
    blob = b"".join(np.ascontiguousarray(params[(e["layer"], e["name"])], dtype="<f4").tobytes()
                    for e in table)
    manifest = {"config": dict(sorted(vars(params.config).items())), "tensors": table,
                "params_sha256": hashlib.sha256(blob).hexdigest()}
    staged = {name: out_dir / f"{name}.tmp" for name in ("params.bin", "manifest.json")}
    try:
        staged["params.bin"].write_bytes(blob)
        staged["manifest.json"].write_text(json.dumps(manifest, indent=2), encoding="utf-8")
        for name, path in staged.items():
            os.replace(path, out_dir / name)
    finally:
        for path in staged.values():
            path.unlink(missing_ok=True)


def load_checkpoint(in_dir: str | Path, dtype=np.float32) -> ModelParams:
    """Read a checkpoint that save_checkpoint wrote. The manifest's tensor
    table must be the layout of its model config, entry for entry and
    type for type; params.bin must match the manifest's sha256 when it
    has one (manifests written before the hash have none), hold exactly
    the table's bytes, and every value must be finite."""
    _erf()
    path = Path(in_dir) / "manifest.json"
    manifest = read_object(read_json(path), {"tensors": list, ...: object}, str(path),
                           ("config", "tensors"))
    config = read_config(ModelConfig, manifest["config"], "model config", f"{path} 'config'")
    table, layout = manifest["tensors"], _layout(config)
    # canonical JSON, not ==, which takes 4096.0 for 4096 and true for 1
    for i, (entry, laid_out) in enumerate(zip(table, layout)):
        got, want = json.dumps(entry, sort_keys=True), json.dumps(laid_out, sort_keys=True)
        if got != want:
            raise ForgeError(f"{path} tensor entry {i} is {got}, not the model config's {want}")
    if len(table) != len(layout):
        raise ForgeError(f"{path}: {len(table)} tensor entries, not the model config's "
                         f"{len(layout)}")
    blob = (path.parent / "params.bin").read_bytes()
    if "params_sha256" in manifest and (
            manifest["params_sha256"] != hashlib.sha256(blob).hexdigest()):
        raise ForgeError(f"{path}: params.bin does not match the manifest's 'params_sha256'; "
                         "the checkpoint was changed or its save was interrupted")
    size = layout[-1]["offset"] + layout[-1]["length"]
    if len(blob) != size:
        raise ForgeError(f"{path}: params.bin holds {len(blob)} bytes, not the tensor "
                         f"table's {size}")
    flat = np.frombuffer(blob, dtype="<f4")
    tensors: dict[ParamKey, np.ndarray] = {}
    for e in layout:
        key, start = (e["layer"], e["name"]), e["offset"] // 4
        values = flat[start:start + e["length"] // 4]
        if not np.isfinite(values).all():
            raise ForgeError(f"{path.parent / 'params.bin'}: tensor {key} holds a "
                             "non-finite value")
        tensors[key] = values.reshape(e["shape"]).astype(dtype)
    return ModelParams(config, tensors)
