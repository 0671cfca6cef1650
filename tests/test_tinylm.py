"""Model tests: seeded init, forward contracts, the finite-difference
gradient oracle, param-path enumeration, and the checkpoint codec."""
import dataclasses
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from forge.errors import AllMasked, ForgeError
from forge.tinylm import (
    Batch,
    GLOBAL_TENSORS,
    LAYER_TENSORS,
    ModelConfig,
    block_forward,
    embed,
    forward,
    global_keys,
    greedy_decode,
    init,
    layer_keys,
    load_checkpoint,
    loss_and_backward,
    param_paths,
    save_checkpoint,
)

from helpers import params_digest, run_python

CFG = ModelConfig(n_layers=2, d_model=32, n_heads=4, d_ff=64,
                  vocab_size=32, max_seq_len=16, init_seed=7)


def _batch(rng, b=3, t=10, vocab=32, mask_from=4):
    ids = rng.integers(0, vocab, size=(b, t))
    mask = np.zeros((b, t), dtype=np.int64)
    mask[:, mask_from:] = 1
    return Batch(ids=ids, mask=mask)


def test_init_deterministic():
    a, b = init(CFG), init(CFG)
    assert params_digest(a) == params_digest(b)


def test_init_seed_changes_params():
    other = ModelConfig(**{**CFG.__dict__, "init_seed": 8})
    assert params_digest(init(CFG)) != params_digest(init(other))


def test_init_gains_are_one():
    params = init(CFG)
    for layer, name, _ in param_paths(CFG):
        if name.endswith("gain"):
            assert np.all(params[(layer, name)] == 1.0)


def test_param_paths_contents():
    paths = param_paths(CFG)
    keys = [(layer, name) for layer, name, _ in paths]
    assert (0, "W_Q") in keys and (1, "W_Q") in keys
    # 8 tensors per layer plus token/positional embeddings and final gain
    # (the tied output head shares the token embedding, so no extra path)
    assert len(paths) == 8 * CFG.n_layers + 3
    assert paths == param_paths(CFG)  # stable across calls
    assert set(LAYER_TENSORS) == {n for l, n, _ in paths if l is not None and l == 0}
    assert set(GLOBAL_TENSORS) == {n for l, n, _ in paths if l is None}


def test_forward_shapes_and_prob_rows():
    params = init(CFG)
    batch = _batch(np.random.default_rng(0))
    logits, cache = forward(params, batch)
    assert logits.shape == (3, 10, CFG.vocab_size)
    assert sorted(cache["layers"]) == list(range(CFG.n_layers))
    for layer_cache in cache["layers"].values():
        sums = layer_cache["probs"].sum(axis=-1)
        assert np.allclose(sums, 1.0, atol=1e-6)


def test_forward_residual_identity_with_zero_blocks():
    params = init(CFG)
    for layer in range(CFG.n_layers):
        for name in ("W_Q", "W_K", "W_V", "W_O", "W_1", "W_2"):
            params[(layer, name)][:] = 0.0
    batch = _batch(np.random.default_rng(1))
    logits, cache = forward(params, batch)
    tok = params[(None, "tok_emb")][batch.ids]
    pos = params[(None, "pos_emb")][:batch.ids.shape[1]]
    assert np.allclose(cache["x_final"], tok + pos, atol=0)
    # and the logits are the tied-head projection of the final norm of it
    assert np.allclose(logits, cache["normed_f"] @ params[(None, "tok_emb")].T)


def test_forward_is_causal():
    params = init(CFG)
    rng = np.random.default_rng(2)
    batch = _batch(rng)
    logits_a, _ = forward(params, batch)
    ids2 = batch.ids.copy()
    ids2[:, 7] = (ids2[:, 7] + 3) % CFG.vocab_size
    logits_b, _ = forward(params, Batch(ids=ids2, mask=batch.mask))
    assert np.array_equal(logits_a[:, :7], logits_b[:, :7])
    assert not np.array_equal(logits_a[:, 7:], logits_b[:, 7:])


def test_loss_uniform_at_zero_embeddings():
    params = init(CFG, dtype=np.float64)
    params[(None, "tok_emb")][:] = 0.0
    params[(None, "pos_emb")][:] = 0.0
    loss, _ = loss_and_backward(params, _batch(np.random.default_rng(3)))
    assert abs(loss - np.log(CFG.vocab_size)) < 1e-12


def test_loss_all_masked_raises():
    params = init(CFG)
    ids = np.zeros((2, 6), dtype=np.int64)
    with pytest.raises(AllMasked):
        loss_and_backward(params, Batch(ids=ids, mask=np.zeros((2, 6))))
    # a mask only on position 0 supervises nothing
    mask = np.zeros((2, 6))
    mask[:, 0] = 1
    with pytest.raises(AllMasked):
        loss_and_backward(params, Batch(ids=ids, mask=mask))


def test_gradients_cover_every_path_and_are_finite():
    params = init(CFG)
    _, grads = loss_and_backward(params, _batch(np.random.default_rng(4)))
    for layer, name, shape in param_paths(CFG):
        g = grads[(layer, name)]
        assert g.shape == tuple(shape)
        assert np.all(np.isfinite(g))
        assert np.any(g != 0.0), (layer, name)


def test_backward_deterministic_and_read_only():
    params = init(CFG)
    before = params_digest(params)
    batch = _batch(np.random.default_rng(5))
    loss1, grads1 = loss_and_backward(params, batch)
    loss2, grads2 = loss_and_backward(params, batch)
    assert loss1 == loss2
    assert all(np.array_equal(grads1[k], grads2[k]) for k in grads1)
    assert params_digest(params) == before


def test_gradcheck_central_differences():
    """Finite-difference oracle over >=200 sampled parameters in float64."""
    params = init(CFG, dtype=np.float64)
    rng = np.random.default_rng(11)
    batch = _batch(rng)
    _, grads = loss_and_backward(params, batch)

    h = 1e-4
    checked = 0
    worst = 0.0
    for key in params.keys():
        flat = params[key].reshape(-1)
        n = min(11, flat.size)
        for i in rng.choice(flat.size, size=n, replace=False):
            orig = flat[i]
            flat[i] = orig + h
            lp, _ = loss_and_backward(params, batch)
            flat[i] = orig - h
            lm, _ = loss_and_backward(params, batch)
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            an = grads[key].reshape(-1)[i]
            rel = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
            worst = max(worst, rel)
            checked += 1
    assert checked >= 200
    assert worst < 1e-4, f"worst relative error {worst}"


def test_loss_scale_scales_gradients():
    params = init(CFG, dtype=np.float64)
    batch = _batch(np.random.default_rng(6))
    loss1, grads1 = loss_and_backward(params, batch)
    loss3, grads3 = loss_and_backward(params, batch, loss_scale=3.0)
    assert abs(loss3 - 3.0 * loss1) < 1e-12
    for key in grads1:
        assert np.allclose(grads3[key], 3.0 * grads1[key], rtol=1e-9, atol=1e-15)


DEEP = ModelConfig(n_layers=4, d_model=16, n_heads=2, d_ff=32,
                   vocab_size=32, max_seq_len=16, init_seed=9)
# the trainable sets of every mode on DEEP: FFT, stage 1 and stage 2 of
# bottom-1/top-2, each single layer, the sensitivity probe's Q/K/V, and
# the globals alone (the embeddings need the whole backward chain)
NEED_SETS = {
    "all": None,
    "stage1": set(layer_keys(0)),
    "stage2": set(layer_keys(2)) | set(layer_keys(3)),
    **{f"layer{l}": set(layer_keys(l)) for l in range(DEEP.n_layers)},
    "qkv": {(l, n) for l in range(DEEP.n_layers) for n in ("W_Q", "W_K", "W_V")},
    "globals": set(global_keys()),
}


def _boundaries(params, batch):
    """The residual stream entering each block (and leaving the last)."""
    xs = [embed(params, batch.ids)]
    for layer in range(params.config.n_layers):
        xs.append(block_forward(params, layer, xs[-1]))
    return xs


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", list(NEED_SETS))
def test_needed_gradients_equal_the_full_backward(dtype, name):
    """A needed set returns exactly its keys, each bit-identical to the
    full backward, and so does every boundary at or below its lowest
    layer."""
    params = init(DEEP, dtype)
    need = NEED_SETS[name]
    batch = _batch(np.random.default_rng(12), b=4, t=12)
    loss, full = loss_and_backward(params, batch)
    want = params.keys() if need is None else [k for k in params.keys() if k in need]
    layers = [layer for layer, _ in want]
    lowest = 0 if None in layers else min(layers)
    xs = _boundaries(params, batch)
    for boundary in [None] + [(layer, xs[layer]) for layer in range(lowest + 1)]:
        got_loss, got = loss_and_backward(params, batch, need=need, boundary=boundary)
        assert got_loss == loss
        assert list(got) == want
        for key in want:
            assert got[key].dtype == dtype
            assert got[key].tobytes() == full[key].tobytes(), (key, boundary and boundary[0])


def test_forward_blocks_compose_to_the_logits():
    params = init(DEEP)
    batch = _batch(np.random.default_rng(13))
    logits, cache = forward(params, batch)
    assert np.array_equal(_boundaries(params, batch)[-1], cache["x_final"])
    bare, no_cache = forward(params, batch, keep=False)
    assert no_cache is None and np.array_equal(bare, logits)


def test_needed_set_and_boundary_are_checked():
    params = init(DEEP)
    batch = _batch(np.random.default_rng(14))
    x2 = _boundaries(params, batch)[2]
    with pytest.raises(ValueError, match="below"):
        loss_and_backward(params, batch, need=set(layer_keys(1)), boundary=(2, x2))
    with pytest.raises(ValueError, match="below"):
        loss_and_backward(params, batch, need={(None, "pos_emb")}, boundary=(2, x2))
    with pytest.raises(ValueError, match="no such"):
        loss_and_backward(params, batch, need={(9, "W_Q")})
    loss, grads = loss_and_backward(params, batch, need=set())
    assert grads == {} and loss == loss_and_backward(params, batch)[0]


def test_greedy_decode_deterministic():
    """Repeatable, and past max_seq_len it sees only the last window: a
    long decode extends a short one, and a prompt longer than the window
    decodes like its last max_seq_len tokens."""
    params = init(CFG)
    out1 = greedy_decode(params, [1, 2, 3], 5)
    out2 = greedy_decode(params, [1, 2, 3], 5)
    assert out1 == out2 and len(out1) == 5
    assert all(0 <= t < CFG.vocab_size for t in out1)
    assert greedy_decode(params, [1, 2, 3], 2 * CFG.max_seq_len)[:5] == out1
    prompt = [t % CFG.vocab_size for t in range(CFG.max_seq_len + 5)]
    assert (greedy_decode(params, prompt, 4)
            == greedy_decode(params, prompt[-CFG.max_seq_len:], 4))
    assert greedy_decode(params, [1, 2, 3], 0) == []


def test_checkpoint_round_trip(tmp_path):
    params = init(CFG)
    save_checkpoint(params, tmp_path / "ckpt")
    loaded = load_checkpoint(tmp_path / "ckpt")
    assert loaded.config == CFG
    assert params_digest(loaded) == params_digest(params)


def test_a_failed_checkpoint_save_leaves_the_previous_checkpoint(tmp_path, monkeypatch):
    ckpt = tmp_path / "ckpt"
    save_checkpoint(init(CFG), ckpt)
    before = {path.name: path.read_bytes() for path in ckpt.iterdir()}
    writes = []

    def failing(write):
        def second_write_fails(self, *args, **kwargs):
            writes.append(self.name)
            if len(writes) == 2:
                raise OSError("disk full")
            return write(self, *args, **kwargs)
        return second_write_fails

    monkeypatch.setattr(Path, "write_bytes", failing(Path.write_bytes))
    monkeypatch.setattr(Path, "write_text", failing(Path.write_text))
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(init(dataclasses.replace(CFG, init_seed=CFG.init_seed + 1)), ckpt)
    assert len(writes) == 2
    assert {path.name: path.read_bytes() for path in ckpt.iterdir()} == before
    assert params_digest(load_checkpoint(ckpt)) == params_digest(init(CFG))


def test_a_save_interrupted_between_its_renames_does_not_load(tmp_path, monkeypatch):
    """The new params.bin beside the old manifest.json fails the
    manifest's hash instead of loading as a mix."""
    ckpt = tmp_path / "ckpt"
    save_checkpoint(init(CFG), ckpt)
    replaces = []
    real_replace = os.replace

    def second_replace_fails(src, dst):
        replaces.append(dst)
        if len(replaces) == 2:
            raise OSError("interrupted")
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", second_replace_fails)
    with pytest.raises(OSError, match="interrupted"):
        save_checkpoint(init(dataclasses.replace(CFG, init_seed=CFG.init_seed + 1)), ckpt)
    monkeypatch.undo()
    assert [Path(dst).name for dst in replaces] == ["params.bin", "manifest.json"]
    with pytest.raises(ForgeError, match="params.bin does not match"):
        load_checkpoint(ckpt)


def test_a_manifest_without_a_hash_still_loads(tmp_path):
    params = init(CFG)
    save_checkpoint(params, tmp_path / "ckpt")
    manifest_path = tmp_path / "ckpt" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["params_sha256"]
    manifest_path.write_text(json.dumps(manifest, indent=2))
    assert params_digest(load_checkpoint(tmp_path / "ckpt")) == params_digest(params)


def test_checkpoint_blob_is_flat_f32_in_path_order(tmp_path):
    params = init(CFG)
    save_checkpoint(params, tmp_path / "ckpt")
    blob = (tmp_path / "ckpt" / "params.bin").read_bytes()
    offset = 0
    for layer, name, shape in param_paths(CFG):
        expected = np.ascontiguousarray(params[(layer, name)], dtype="<f4").tobytes()
        assert blob[offset:offset + len(expected)] == expected, (layer, name)
        offset += len(expected)
    assert offset == len(blob)


# a fresh interpreter with the CFG model and a fixed batch, for the tests
# that need a process where nothing has loaded scipy yet
_MODEL_CODE = ("import hashlib, sys\n"
               "import numpy as np\n"
               "from forge import tinylm\n"
               f"config = tinylm.ModelConfig(**{CFG.__dict__!r})\n"
               "batch = tinylm.Batch(ids=np.arange(30).reshape(3, 10) % 32,\n"
               "                     mask=np.ones((3, 10)))\n")


def _logits_digest(params):
    batch = Batch(ids=np.arange(30).reshape(3, 10) % 32, mask=np.ones((3, 10)))
    return hashlib.sha256(forward(params, batch, keep=False)[0].tobytes()).hexdigest()


def test_a_model_loads_only_the_erf_extension_of_scipy(tmp_path):
    # building, loading and running a model never imports scipy or its
    # scipy.special package, only the extension module that holds erf
    save_checkpoint(init(CFG), tmp_path)
    code = _MODEL_CODE + (
        "tinylm.init(config)\n"
        "params = tinylm.load_checkpoint(sys.argv[1])\n"
        "before = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "tinylm.forward(params, batch)\n"
        "print(before, sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    done = run_python(code, str(tmp_path))
    assert (done.returncode, done.stdout) == (0, "[] ['scipy.special._special_ufuncs']\n"), done.stderr


@pytest.mark.parametrize("scipy_first", [False, True])
def test_erf_is_the_scipy_special_ufunc_whichever_loads_first(scipy_first):
    load = "import scipy.special\n"
    code = ("from forge import tinylm\n"
            + (load if scipy_first else "")
            + "erf = tinylm._erf()\n"
            + ("" if scipy_first else load)
            + "print(erf is scipy.special.erf)\n")
    done = run_python(code)
    assert (done.returncode, done.stdout) == (0, "True\n"), done.stderr


def test_gelu_on_edge_inputs_raises_no_warning():
    # erf is loaded here, on first use, under the warnings filter
    code = ("import math, warnings\n"
            "import numpy as np\n"
            "from forge import tinylm\n"
            "edges = [0.0, -0.0, math.nan, math.inf, 1.0, -1.0, 3.92, -3.92, 8.0, -8.0]\n"
            "with warnings.catch_warnings(), np.errstate(all='ignore'):\n"
            "    warnings.simplefilter('error')\n"
            "    for dtype in (np.float32, np.float64):\n"
            "        tiny = np.finfo(dtype).smallest_subnormal\n"
            "        x = np.array(edges + [tiny], dtype=dtype)\n"
            "        y, cdf = tinylm._gelu(x)\n"
            "        assert y.dtype == cdf.dtype == dtype, (y.dtype, cdf.dtype)\n"
            "        print(y[0], y[3], np.isnan(y[2]), y[-1] == 0.5 * tiny)\n")
    done = run_python(code)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0.0 inf True True\n" * 2


def test_without_the_erf_extension_gelu_falls_back_to_scipy_special():
    # a scipy that has no _special_ufuncs extension: the file lookup
    # misses, and the package import gives the same ufunc and the same bits
    code = _MODEL_CODE + (
        # no suffix for the lookup to try, so it finds no file; the import
        # system took its own copy of the suffixes at start-up
        "import importlib.machinery\n"
        "importlib.machinery.EXTENSION_SUFFIXES = []\n"
        "erf = tinylm._erf()\n"
        "fell_back = 'scipy.special' in sys.modules\n"
        "import scipy.special\n"
        "logits = tinylm.forward(tinylm.init(config), batch, keep=False)[0]\n"
        "print(fell_back, erf is scipy.special.erf, hashlib.sha256(logits.tobytes()).hexdigest())\n")
    done = run_python(code)
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"True True {_logits_digest(init(CFG))}\n"


def test_batch_validation():
    params = init(CFG)
    too_long = Batch(ids=np.zeros((1, 17), dtype=np.int64), mask=np.zeros((1, 17)))
    with pytest.raises(ValueError):
        forward(params, too_long)
    bad_vocab = Batch(ids=np.full((1, 4), 99), mask=np.zeros((1, 4)))
    with pytest.raises(ValueError):
        forward(params, bad_vocab)


def test_layer_keys_cover_layer_tensors():
    assert layer_keys(3) == [(3, name) for name in LAYER_TENSORS]
