"""CLI tests: exit codes, wiring, reproducibility of primary outputs,
and the make-synth -> refine -> train -> eval smoke chain."""
import json
import sys

import pytest

from forge.cli import build_parser, main

MODEL_CONFIG = {
    "n_layers": 4, "d_model": 32, "n_heads": 4, "d_ff": 64,
    "vocab_size": 64, "max_seq_len": 32, "init_seed": 0,
}


def _write_model_config(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MODEL_CONFIG), encoding="utf-8")
    return path


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["refine", "--output", "x"])  # missing --input
    assert err.value.code == 2


def test_global_flags_before_or_after_the_subcommand():
    parser = build_parser()
    rest = ["eval", "--checkpoint", "ckpt", "--data", "data"]
    args = parser.parse_args(["--seed", "5", "--threads", "3", "--deterministic"] + rest)
    assert (args.seed, args.threads, args.deterministic) == (5, 3, True)
    args = parser.parse_args(rest + ["--seed", "5", "--threads", "3"])
    assert (args.seed, args.threads, args.deterministic) == (5, 3, False)
    args = parser.parse_args(rest)
    assert (args.seed, args.threads, args.deterministic) == (None, 1, False)


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_overlapping_stages_is_domain_error(tmp_path, capsys):
    data = tmp_path / "synth"
    assert main(["make-synth", "--task", "translation", "--n", "50",
                 "--seed", "1", "--out", str(data)]) == 0
    model = _write_model_config(tmp_path)
    code = main(["train", "--mode", "two-stage", "--k", "4", "--m", "15",
                 "--data", str(data), "--model-config", str(model),
                 "--out", str(tmp_path / "run")])
    assert code == 1
    assert "overlap" in capsys.readouterr().err.lower()


def test_make_synth_outputs(tmp_path):
    out = tmp_path / "synth"
    assert main(["make-synth", "--task", "translation", "--n", "120",
                 "--seed", "3", "--out", str(out)]) == 0
    assert (out / "records.jsonl").exists()
    assert (out / "train.jsonl").exists()
    assert (out / "eval.jsonl").exists()
    meta = json.loads((out / "meta.json").read_text())
    assert meta["task"] == "translation" and meta["n"] == 120

    out2 = tmp_path / "general"
    assert main(["make-synth", "--task", "general", "--n", "120",
                 "--seed", "3", "--out", str(out2)]) == 0
    assert (out2 / "train.jsonl").exists() and not (out2 / "records.jsonl").exists()


def test_make_synth_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["make-synth", "--task", "translation", "--n", "80",
                     "--seed", "9", "--out", str(out)]) == 0
    for name in ("records.jsonl", "train.jsonl", "eval.jsonl"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_refine_report_and_reruns_byte_identical(tmp_path, fixture_paths):
    outs = []
    for tag in ("one", "two"):
        out = tmp_path / f"refined_{tag}.jsonl"
        report = tmp_path / f"report_{tag}.json"
        code = main([
            "refine", "--input", str(fixture_paths["input"]),
            "--output", str(out), "--emit", "records",
            "--langid-scorer", str(fixture_paths["langid"]),
            "--quality-scorer", str(fixture_paths["quality"]),
            "--dev-set", str(fixture_paths["dev_records"]),
            "--dev-scorer", str(fixture_paths["dev"]),
            "--report", str(report),
        ])
        assert code == 0
        outs.append((out.read_bytes(), report.read_bytes()))
    assert outs[0] == outs[1]
    report = json.loads(outs[0][1])
    assert report["stages"]["format"]["kept"] == 865


def test_refine_emits_instruction_samples(tmp_path, fixture_paths):
    out = tmp_path / "instructions.jsonl"
    assert main(["refine", "--input", str(fixture_paths["input"]),
                 "--output", str(out)]) == 0
    first = json.loads(out.read_text(encoding="utf-8").splitlines()[0])
    assert set(first) == {"instruction", "response", "meta"}
    assert set(first["meta"]) == {"src", "trg", "template_id"}


def test_end_to_end_smoke(tmp_path, capsys):
    """make-synth -> refine -> train (two-stage) -> eval -> analyze."""
    synth_dir = tmp_path / "synth"
    assert main(["make-synth", "--task", "translation", "--n", "200",
                 "--seed", "5", "--out", str(synth_dir)]) == 0

    refined = tmp_path / "refined.jsonl"
    assert main(["refine", "--input", str(synth_dir / "records.jsonl"),
                 "--output", str(refined), "--emit", "records",
                 "--report", str(tmp_path / "report.json")]) == 0
    assert refined.stat().st_size > 0

    model = _write_model_config(tmp_path)
    run_dir = tmp_path / "run"
    assert main(["train", "--mode", "two-stage", "--k", "1", "--m", "1",
                 "--data", str(refined), "--model-config", str(model),
                 "--out", str(run_dir), "--epochs", "1",
                 "--lr-max", "1e-3", "--lr-min", "1e-4",
                 "--batch-size", "16", "--seed", "11"]) == 0
    assert (run_dir / "run_log.jsonl").exists()
    assert (run_dir / "timing.json").exists()
    for stage in ("stage1", "stage2", "final"):
        assert (run_dir / "checkpoints" / stage / "manifest.json").exists()
        assert (run_dir / "checkpoints" / stage / "params.bin").exists()

    assert main(["eval", "--checkpoint", str(run_dir / "checkpoints" / "final"),
                 "--data", str(synth_dir), "--task-id", "translation",
                 "--out", str(tmp_path / "eval.json")]) == 0
    result = json.loads((tmp_path / "eval.json").read_text())
    assert result["task_id"] == "translation" and result["sample_count"] > 0

    report_csv = tmp_path / "grads.csv"
    assert main(["analyze-gradients",
                 "--checkpoint", str(run_dir / "checkpoints" / "final"),
                 "--data", str(synth_dir), "--batches", "2",
                 "--out", str(report_csv)]) == 0
    lines = [l for l in report_csv.read_text().splitlines()
             if l and not l.startswith("#")]
    assert len(lines) == 1 + MODEL_CONFIG["n_layers"]


def test_train_log_is_timestamp_free_and_reproducible(tmp_path):
    synth_dir = tmp_path / "synth"
    main(["make-synth", "--task", "general", "--n", "100", "--seed", "2",
          "--out", str(synth_dir)])
    model = _write_model_config(tmp_path)
    logs = []
    for tag in ("a", "b"):
        run_dir = tmp_path / f"run_{tag}"
        assert main(["train", "--mode", "fft", "--data", str(synth_dir),
                     "--model-config", str(model), "--out", str(run_dir),
                     "--epochs", "1", "--lr-max", "1e-3", "--lr-min", "1e-4",
                     "--batch-size", "16", "--seed", "4"]) == 0
        logs.append(((run_dir / "run_log.jsonl").read_bytes(),
                     (run_dir / "checkpoints" / "final" / "params.bin").read_bytes()))
    assert logs[0] == logs[1]


def test_sweep_csv_has_one_row_per_layer(tmp_path):
    synth_dir = tmp_path / "synth"
    main(["make-synth", "--task", "translation", "--n", "80", "--seed", "6",
          "--out", str(synth_dir)])
    model = _write_model_config(tmp_path)
    out = tmp_path / "sweep"
    assert main(["sweep", "--data", str(synth_dir),
                 "--model-config", str(model), "--out", str(out),
                 "--eval-translation", str(synth_dir),
                 "--epochs", "1", "--lr-max", "1e-3", "--lr-min", "1e-4",
                 "--batch-size", "16", "--seed", "8"]) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "layer,translation_ce,translation_em"
    assert len(lines) == 1 + MODEL_CONFIG["n_layers"]


def test_compare_table(tmp_path):
    synth_dir = tmp_path / "synth"
    main(["make-synth", "--task", "translation", "--n", "120", "--seed", "6",
          "--out", str(synth_dir)])
    general_dir = tmp_path / "general"
    main(["make-synth", "--task", "general", "--n", "120", "--seed", "7",
          "--out", str(general_dir)])
    model = _write_model_config(tmp_path)
    spec = {
        "model_config": str(model),
        "train_data": str(synth_dir),
        "eval_sets": {"translation": str(synth_dir),
                      "general": str(general_dir)},
        "rows": [
            {"label": "fft", "mode": "fft",
             "train": {"lr_max": 1e-3, "lr_min": 1e-4, "epochs": 1,
                       "batch_size": 16, "seed": 3}},
            {"label": "two-stage", "mode": "two-stage", "k": 1, "m": 1,
             "train": {"lr_max": 1e-3, "lr_min": 1e-4, "epochs": 1,
                       "batch_size": 16, "seed": 3}},
        ],
        "seed": 3,
        "out_dir": str(tmp_path / "cmp"),
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["compare", "--spec", str(spec_path)]) == 0
    table = json.loads((tmp_path / "cmp" / "compare.json").read_text())
    labels = [row["label"] for row in table]
    assert labels == ["start", "fft", "two-stage"]
    csv_lines = (tmp_path / "cmp" / "compare.csv").read_text().splitlines()
    assert len(csv_lines) == 4
    assert csv_lines[0].startswith("label,mode,")


def test_compare_duplicate_labels_rejected(tmp_path, capsys):
    model = _write_model_config(tmp_path)
    spec = {"model_config": str(model), "train_data": "x",
            "eval_sets": {}, "rows": [{"label": "a", "mode": "fft"},
                                      {"label": "a", "mode": "fft"}],
            "out_dir": str(tmp_path / "cmp")}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["compare", "--spec", str(spec_path)]) == 1
    assert "unique" in capsys.readouterr().err


def test_refine_with_subprocess_scorer_matches_sidecar(
        tmp_path, fixture_paths, stub_scorer_script):
    """Criterion 10 at the CLI surface: a subprocess scorer that serves
    the sidecar tables produces byte-identical output to the sidecar
    scorers themselves."""
    out_side = tmp_path / "out_side.jsonl"
    out_sub = tmp_path / "out_sub.jsonl"
    common = ["refine", "--input", str(fixture_paths["input"]),
              "--emit", "records",
              "--dev-set", str(fixture_paths["dev_records"])]
    assert main(common + [
        "--output", str(out_side),
        "--langid-scorer", str(fixture_paths["langid"]),
        "--quality-scorer", str(fixture_paths["quality"]),
        "--dev-scorer", str(fixture_paths["dev"]),
        "--report", str(tmp_path / "rep_side.json")]) == 0
    langid_cmd = f"{sys.executable} {stub_scorer_script} {fixture_paths['langid']} reverse:2"
    quality_cmd = f"{sys.executable} {stub_scorer_script} {fixture_paths['quality']}"
    dev_cmd = f"{sys.executable} {stub_scorer_script} {fixture_paths['dev']}"
    assert main(common + [
        "--output", str(out_sub),
        "--langid-scorer", langid_cmd,
        "--quality-scorer", quality_cmd,
        "--dev-scorer", dev_cmd,
        "--report", str(tmp_path / "rep_sub.json")]) == 0
    assert out_side.read_bytes() == out_sub.read_bytes()
    assert (tmp_path / "rep_side.json").read_bytes() == \
        (tmp_path / "rep_sub.json").read_bytes()
