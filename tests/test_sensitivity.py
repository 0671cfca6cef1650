"""Nuclear norm (vs a full-SVD oracle) and the gradient report."""
import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import forge
from forge.errors import ForgeError, NonFiniteInput
from forge.sensitivity import (
    GradientReport,
    LayerNorms,
    ProbeSpec,
    ascii_bars,
    layer_gradient_report,
    nuclear_norm,
    nuclear_norms,
    report_to_csv,
)
from forge.tinylm import Batch, ModelConfig, init, loss_and_backward

from helpers import params_digest, svd_nuclear_norm

# a numpy warning is a fault here: the report and the norms expect their
# overflows and non-finite values and say so without one
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

CFG = ModelConfig(n_layers=3, d_model=32, n_heads=4, d_ff=64,
                  vocab_size=32, max_seq_len=16, init_seed=5)


def test_identity_and_diagonal_analytic():
    assert abs(nuclear_norm(np.eye(3)) - 3.0) < 1e-12
    assert abs(nuclear_norm(np.diag([3.0, -4.0])) - 7.0) < 1e-12
    assert nuclear_norm(np.zeros((4, 4))) == 0.0


def test_non_finite_rejected():
    bad = np.ones((3, 3))
    bad[1, 1] = np.nan
    with pytest.raises(NonFiniteInput):
        nuclear_norm(bad)
    bad[1, 1] = np.inf
    with pytest.raises(NonFiniteInput):
        nuclear_norm(bad)


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (4, 4), (8, 8),
                                   (16, 16), (12, 16), (16, 9)])
def test_matches_svd_oracle_shapes(shape):
    rng = np.random.default_rng(hash(shape) % 2**31)
    for _ in range(20):
        m = rng.standard_normal(shape)
        mine = nuclear_norm(m)
        oracle = svd_nuclear_norm(m)
        assert abs(mine - oracle) / max(oracle, 1e-30) < 1e-8


def test_matches_svd_oracle_100_random_up_to_16():
    rng = np.random.default_rng(123)
    for _ in range(100):
        rows = int(rng.integers(1, 17))
        cols = int(rng.integers(1, 17))
        m = rng.standard_normal((rows, cols)) * float(rng.uniform(0.1, 10))
        mine = nuclear_norm(m)
        oracle = svd_nuclear_norm(m)
        assert abs(mine - oracle) / max(oracle, 1e-30) < 1e-8


def test_unitary_invariance():
    rng = np.random.default_rng(7)
    for _ in range(10):
        m = rng.standard_normal((10, 10))
        u, _ = np.linalg.qr(rng.standard_normal((10, 10)))
        v, _ = np.linalg.qr(rng.standard_normal((10, 10)))
        a = nuclear_norm(m)
        b = nuclear_norm(u @ m @ v.T)
        assert abs(a - b) / a < 1e-7


@pytest.mark.parametrize("shape", [(64, 64), (64, 32), (32, 64)])
def test_graded_spectrum_matches_svd_oracle(shape):
    # singular values from 1 down to 1e-11: squaring them into a Gram
    # matrix would lose the small ones that the sum still needs
    rng = np.random.default_rng(sum(shape))
    rank = min(shape)
    u, _ = np.linalg.qr(rng.standard_normal((shape[0], rank)))
    v, _ = np.linalg.qr(rng.standard_normal((shape[1], rank)))
    m = u @ np.diag(np.logspace(0, -11, rank)) @ v.T
    oracle = svd_nuclear_norm(m)
    assert abs(nuclear_norm(m) - oracle) / oracle < 1e-8


def test_stack_matches_single_matrices():
    rng = np.random.default_rng(11)
    stack = rng.standard_normal((5, 9, 6)) * rng.uniform(1e-3, 1e3, (5, 1, 1))
    got = nuclear_norms(stack)
    assert got.shape == (5,)
    for value, m in zip(got, stack):
        assert value == nuclear_norm(m)
        assert abs(value - svd_nuclear_norm(m)) / value < 1e-8


def test_stack_rejects_bad_input():
    with pytest.raises(ValueError):
        nuclear_norms(np.ones((3, 3)))
    stack = np.ones((4, 3, 3))
    stack[2, 0, 1] = np.inf
    with pytest.raises(NonFiniteInput):
        nuclear_norms(stack)


@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, (6, 6), elements=st.floats(-100, 100)),
       st.floats(min_value=-50, max_value=50))
def test_absolute_homogeneity(m, c):
    base = nuclear_norm(m)
    scaled = nuclear_norm(c * m)
    assert abs(scaled - abs(c) * base) <= 1e-9 * max(abs(c) * base, 1.0)


def test_exact_zero_sturm_pivot():
    # the first bisection point is 0.25, where the last Sturm pivot is 0
    assert nuclear_norm(np.diag([0.5, 0.25])) == 0.75


@pytest.mark.parametrize("tiny", [1e-310, 5e-309])
def test_subnormal_entries(tiny):
    # a subnormal beside a 1 squares to 0 in the Sturm counts
    assert nuclear_norm(np.array([[1.0, 0.0], [tiny, 0.0]])) == 1.0


def test_zero_matrix_in_a_stack():
    # its bisection bracket is [0, 0] while the others' are not
    stack = np.stack([np.zeros((3, 3)), np.diag([3.0, 2.0, 1.0]), np.eye(3)])
    got = nuclear_norms(stack)
    assert got[0] == 0.0
    np.testing.assert_allclose(got[1:], [6.0, 3.0], rtol=1e-14)


@pytest.mark.parametrize("column", [0, 3])
def test_zero_column_matches_svd_oracle(column):
    # a zero first column makes the tridiagonal's first off-diagonal zero,
    # and a later one is mixed into its neighbours by the right reflectors
    m = np.random.default_rng(column).standard_normal((7, 6))
    m[:, column] = 0.0
    oracle = svd_nuclear_norm(m)
    assert abs(nuclear_norm(m) - oracle) / oracle < 1e-12


def test_rank_one_matches_svd_oracle():
    # 63 singular values of zero, each found to within 2^-52 of the largest
    rng = np.random.default_rng(64)
    m = np.outer(rng.standard_normal(64), rng.standard_normal(64))
    oracle = svd_nuclear_norm(m)
    assert abs(nuclear_norm(m) - oracle) / oracle < 1e-12


def test_src_uses_no_linalg():
    # the SVD oracle in helpers.py must stay independent of the code it checks
    for path in sorted(Path(forge.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            assert not any("linalg" in name.split(".") for name in names), \
                f"{path.name}:{node.lineno} uses linalg"


# ---------------------------------------------------------------------------
# gradient report

def _probe_batches(n=3):
    rng = np.random.default_rng(9)
    batches = []
    for _ in range(n):
        ids = rng.integers(0, CFG.vocab_size, size=(4, 12))
        mask = np.zeros((4, 12), dtype=np.int64)
        mask[:, 5:] = 1
        batches.append(Batch(ids=ids, mask=mask))
    return batches


def test_report_shape_and_read_only():
    params = init(CFG)
    before = params_digest(params)
    report = layer_gradient_report(params, _probe_batches(), dataset_id="probe", seed=9)
    assert params_digest(params) == before
    assert len(report.rows) == CFG.n_layers
    assert [r.layer for r in report.rows] == list(range(CFG.n_layers))
    assert all(r.q_norm >= 0 and r.k_norm >= 0 and r.v_norm >= 0
               for r in report.rows)
    assert report.probe == ProbeSpec("probe", 3, 9)


def test_report_deterministic():
    params = init(CFG)
    a = layer_gradient_report(params, _probe_batches())
    b = layer_gradient_report(params, _probe_batches())
    for ra, rb in zip(a.rows, b.rows):
        assert (ra.q_norm, ra.k_norm, ra.v_norm) == (rb.q_norm, rb.k_norm, rb.v_norm)


def test_per_batch_mode_differs_from_accumulated():
    params = init(CFG)
    acc = layer_gradient_report(params, _probe_batches(), accumulate=True)
    per = layer_gradient_report(params, _probe_batches(), accumulate=False)
    # mean of norms >= norm of mean-ish sums only up to scaling; just pin
    # that the flag changes the statistic
    assert any(a.q_norm != p.q_norm for a, p in zip(acc.rows, per.rows))


@pytest.mark.parametrize("accumulate", [True, False])
def test_report_norms_match_single_norms_and_svd(accumulate):
    params = init(CFG)
    batches = _probe_batches()
    report = layer_gradient_report(params, batches, accumulate=accumulate)
    grads = [loss_and_backward(params, batch)[1] for batch in batches]
    for row in report.rows:
        for name, got in zip(("W_Q", "W_K", "W_V"), (row.q_norm, row.k_norm, row.v_norm)):
            per_batch = [g[(row.layer, name)] for g in grads]
            if accumulate:
                acc = sum(per_batch[1:], per_batch[0])
                mine, oracle = nuclear_norm(acc), svd_nuclear_norm(acc)
            else:
                mine = sum(nuclear_norm(g) for g in per_batch) / len(batches)
                oracle = sum(svd_nuclear_norm(g) for g in per_batch) / len(batches)
            assert abs(got - mine) / mine < 1e-12
            assert abs(got - oracle) / oracle < 1e-8


@pytest.mark.parametrize("accumulate", [True, False])
def test_report_rejects_an_empty_probe(accumulate):
    with pytest.raises(ForgeError, match="probe holds no batches"):
        layer_gradient_report(init(CFG), [], accumulate=accumulate)


def test_report_rejects_non_finite_gradient():
    params = init(CFG)
    params[(1, "W_V")][0, 0] = np.inf
    with pytest.raises(NonFiniteInput):
        layer_gradient_report(params, _probe_batches())


def test_csv_text_writes_floats_that_read_back_exactly():
    report = GradientReport(
        probe=ProbeSpec("set-a", 4, 17),
        rows=[LayerNorms(0, 1.25, 0.5, 0.3333333333333333),
              LayerNorms(1, 2.5e-7, 19.0, 0.1)])
    assert report_to_csv(report) == ("# dataset=set-a\n"
                                     "# batches=4\n"
                                     "# seed=17\n"
                                     "layer,q_norm,k_norm,v_norm\n"
                                     "0,1.25,0.5,0.3333333333333333\n"
                                     "1,2.5e-07,19.0,0.1\n")


def test_csv_has_expected_header_and_rows():
    params = init(CFG)
    report = layer_gradient_report(params, _probe_batches())
    text = report_to_csv(report)
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "layer,q_norm,k_norm,v_norm"
    assert len(lines) == 1 + CFG.n_layers


def test_ascii_bars_monotone():
    report = GradientReport(
        probe=ProbeSpec("x", 1, 0),
        rows=[LayerNorms(0, 1.0, 4.0, 0.0), LayerNorms(1, 3.0, 2.0, 0.0),
              LayerNorms(2, 9.0, 1.0, 0.0)])
    text = ascii_bars(report)
    q_lines = [l for l in text.splitlines() if l.strip().startswith("L")][:3]
    lengths = [l.count("#") for l in q_lines]
    assert lengths == sorted(lengths)
    assert lengths[-1] > lengths[0]
