"""Tests of the benchmark's own oracles, corpus generator and harness.

    python3 -m pytest bench/tests -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import corpus as corpus_mod
import oracles
import run as run_mod
import tracing
import workloads
from forge import errors, records, refinery, scorers, synth, tinylm
from replay_scorer import respond

BENCH = Path(__file__).resolve().parent.parent
TINY = tinylm.ModelConfig(n_layers=2, d_model=16, n_heads=2, d_ff=32, vocab_size=12,
                          max_seq_len=10, init_seed=3)


def _tiny(dtype=np.float64):
    params = tinylm.init(TINY, dtype=dtype)
    rng = np.random.default_rng(0)
    for key, value in params.tensors.items():  # leave the init's unit gains
        params.tensors[key] = (value + 0.1 * rng.standard_normal(value.shape)).astype(dtype)
    ids = rng.integers(0, TINY.vocab_size, size=(3, 7))
    mask = np.zeros_like(ids)
    mask[:, 3:] = 1
    return params, tinylm.Batch(ids=ids, mask=mask)


def test_reference_forward_matches_tinylm():
    params, batch = _tiny()
    assert oracles.check_forward(params, [batch], atol=1e-10) == []
    assert oracles.check_forward(params.astype(np.float32), [batch], atol=1e-4) == []


def test_reference_forward_sees_a_changed_tensor():
    params, batch = _tiny()
    other = params.clone()
    other.tensors[(1, "W_1")] = other.tensors[(1, "W_1")] * 1.01
    got, _ = tinylm.forward(other, batch)
    assert np.max(np.abs(got - oracles.reference_logits(params, batch.ids))) > 1e-6


def test_gradient_check_passes_and_catches_a_wrong_gradient(monkeypatch):
    params, batch = _tiny()
    assert oracles.check_gradient(params, batch, np.random.default_rng(1)) == []
    real = tinylm.loss_and_backward

    def skewed(p, b, loss_scale=1.0):
        loss, grads = real(p, b, loss_scale)
        grads[(0, "W_V")] = grads[(0, "W_V")] * 1.5
        return loss, grads

    monkeypatch.setattr(tinylm, "loss_and_backward", skewed)
    assert oracles.check_gradient(params, batch, np.random.default_rng(1))


def test_decode_and_evaluate_checks():
    params, _ = _tiny(np.float32)
    samples = [synth.Sample(prompt=(2, 5, 6, 1), response=(7, 8, 9)),
               synth.Sample(prompt=(3, 4, 1), response=(10, 11))]
    eval_set = synth.EvalSet("t", samples)
    for sample in samples:
        decoded = tinylm.greedy_decode(params, list(sample.prompt), len(sample.response))
        assert oracles.check_decode(params, sample.prompt, decoded, margin=1e-4) == []
        logits = oracles.reference_logits(params, np.array([sample.prompt]))[0, -1]
        wrong = [int(np.argmin(logits))] + decoded[1:]
        assert oracles.check_decode(params, sample.prompt, wrong, margin=1e-4)
    result = synth.evaluate(params, eval_set)
    assert oracles.check_evaluate(params, eval_set, result, rtol=1e-5) == []
    off = synth.EvalResult("t", result.mean_ce * (1 + 1e-4), result.exact_match, 2)
    assert oracles.check_evaluate(params, eval_set, off, rtol=1e-5)


def test_simhash_reference_agrees_with_the_program():
    assert corpus_mod.fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    rng = np.random.default_rng(5)
    for _ in range(50):
        toks = [f"w{int(i)}" for i in rng.integers(0, 40, int(rng.integers(1, 12)))]
        assert corpus_mod.simhash(toks) == refinery.simhash64(toks)


class _InProcessReplay(scorers.Scorer):
    def __init__(self, table):
        self.table = table

    def score(self, requests):
        return [scorers._parse_response_line(json.dumps(respond(self.table, json.loads(r.to_wire()))))
                for r in requests]


def _pipeline(corpus, scorer, tmp_path):
    dev = tmp_path / "dev.tsv"
    dev.write_text(corpus.dev_sidecar, encoding="utf-8")
    return refinery.run_pipeline(corpus.lines, refinery.RefineryConfig(), langid_scorer=scorer,
                                 quality_scorer=scorer,
                                 dev_records=list(records.read_records(corpus.dev_lines)),
                                 dev_scorer=scorers.SidecarScorer(dev))


@pytest.fixture(scope="module")
def corpus():
    return corpus_mod.build_corpus(7)


def test_corpus_counts_are_exact(corpus, tmp_path):
    c = corpus_mod
    c.verify_conflicts(corpus)
    stages = corpus.expected_stages
    assert stages["clean"]["kept"] == (sum(c.GOOD) + 4 * c.N_CLUSTERS + c.N_DUPLICATES
                                       + c.N_SHORT + c.N_MISMATCH)
    assert stages["prefilter"]["dropped"] == c.N_SHORT + c.N_MISMATCH
    assert stages["dedup"]["dropped"] == c.N_DUPLICATES + c.N_CLUSTERS
    assert stages["langid"]["dropped"] == c.N_WRONG_LANG + c.N_LOW_CONF
    assert stages["quality"]["dropped"] == c.N_HIGH_LOSS
    assert len(corpus.lines) == stages["clean"]["kept"] + c.N_MALFORMED + c.N_BLANK
    result = _pipeline(corpus, _InProcessReplay(corpus.replay), tmp_path)
    report = json.loads(result.report.to_json())
    assert report["stages"] == stages
    assert report["malformed_lines"] == corpus.expected_malformed == c.N_MALFORMED
    assert report["thresholds"] == corpus.expected_thresholds
    assert [r.seq for r in result.records] == corpus.expected_seqs
    for record in result.records:
        row = corpus.rows[record.seq]
        assert (record.src_line, record.tgt_line) == (row.src_line, row.tgt_line)


def test_verify_conflicts_rejects_an_unplanned_near_duplicate():
    corpus = corpus_mod.build_corpus(8)
    victim = next(row for row in corpus.rows if row.role == "good" and row.src == "en")
    twin = next(row for row in corpus.rows if row.role == "good" and row.src == "en"
                and row is not victim)
    twin.src_line, twin.tgt_line = victim.src_line, victim.tgt_line
    with pytest.raises(AssertionError):
        corpus_mod.verify_conflicts(corpus)


def test_replay_child_over_the_line_protocol(corpus, tmp_path):
    table = tmp_path / "replay.json"
    table.write_text(json.dumps(corpus.replay), encoding="utf-8")
    with scorers.SubprocessScorer([sys.executable, str(BENCH / "replay_scorer.py"),
                                   str(table)]) as child:
        over_pipe = _pipeline(corpus, child, tmp_path)
        with pytest.raises(errors.ProtocolViolation):
            child.score([scorers.langid_request(0, "text that was never planned")])
    in_process = _pipeline(corpus, _InProcessReplay(corpus.replay), tmp_path)
    assert [s.to_json() for s in over_pipe.samples] == [s.to_json() for s in in_process.samples]


def test_tail_level():
    assert [tracing.tail_level(n) for n in (1, 39, 40, 99, 100, 1000, 10000)] == [
        500, 500, 750, 750, 900, 990, 999]
    assert tracing.percentile(list(range(1, 101)), 900) == 90
    assert tracing.percentile(list(range(1, 10001)), 999) == 9990


def test_relative_run_pairs_each_round_with_the_references_beside_it():
    # the second round took twice as long while the host ran half as fast: same cost
    assert run_mod.relative_run([2.0, 4.0], [1.0, 1.0, 3.0]) == 2.0
    assert run_mod.relative_run([3.0], [0.5, 0.5]) == 6.0


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run_mod.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "refine", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
