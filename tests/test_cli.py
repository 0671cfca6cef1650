"""CLI tests: exit codes, wiring, reproducibility of primary outputs,
and the make-synth -> refine -> train -> eval smoke chain."""
import json
import os
import re
import shlex
import signal
import sys
import time
from pathlib import Path

import pytest

from forge.cli import build_parser, main
from helpers import child_pids, run_python

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
    args = parser.parse_args(["--seed", "5", "--threads", "3"] + rest)
    assert (args.seed, args.threads) == (5, 3)
    args = parser.parse_args(rest + ["--seed", "5", "--threads", "3"])
    assert (args.seed, args.threads) == (5, 3)
    args = parser.parse_args(rest)
    assert (args.seed, args.threads) == (None, 1)


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


def test_refine_wrong_kind_scorer_is_domain_error(tmp_path, fixture_paths, capsys):
    code = main([
        "refine", "--input", str(fixture_paths["input"]),
        "--output", str(tmp_path / "out.jsonl"),
        "--langid-scorer", str(fixture_paths["langid"]),
        "--quality-scorer", str(fixture_paths["langid"]),
        "--dev-set", str(fixture_paths["dev_records"]),
        "--dev-scorer", str(fixture_paths["dev"]),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "quality" in err and "langid" in err
    assert "Traceback" not in err


def test_refine_unencodable_dev_record_is_domain_error(
        tmp_path, fixture_paths, stub_scorer_script, capsys):
    # dev records are not cleaned, so an escaped lone surrogate reaches the
    # subprocess scorer; it fails as a typed error naming the request id
    lines = fixture_paths["dev_records"].read_text(encoding="utf-8").splitlines(True)
    record = json.loads(lines[3])
    record["src_line"] += " \ud800"
    lines[3] = json.dumps(record) + "\n"
    assert "\\ud800" in lines[3]
    dev = tmp_path / "dev.jsonl"
    dev.write_text("".join(lines), encoding="utf-8")
    code = main([
        "refine", "--input", str(fixture_paths["input"]),
        "--output", str(tmp_path / "out.jsonl"),
        "--langid-scorer", str(fixture_paths["langid"]),
        "--quality-scorer", str(fixture_paths["quality"]),
        "--dev-set", str(dev),
        "--dev-scorer", f"{sys.executable} {stub_scorer_script} {fixture_paths['dev']}",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: id 3: ") and "UTF-8" in err, err
    assert "went away" not in err and "Traceback" not in err


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


def test_compare_outputs_do_not_depend_on_the_thread_count(tmp_path, capsys):
    synth_dir, general_dir = tmp_path / "synth", tmp_path / "general"
    assert main(["make-synth", "--task", "translation", "--n", "60", "--seed", "6",
                 "--out", str(synth_dir)]) == 0
    assert main(["make-synth", "--task", "general", "--n", "60", "--seed", "7",
                 "--out", str(general_dir)]) == 0
    train = {"lr_max": 1e-3, "lr_min": 1e-4, "epochs": 1, "batch_size": 16}
    spec = {"model_config": str(_write_model_config(tmp_path)), "train_data": str(synth_dir),
            "eval_sets": {"translation": str(synth_dir), "general": str(general_dir)},
            "rows": [{"label": "fft", "mode": "fft", "train": train},
                     {"label": "two", "mode": "two-stage", "k": 1, "m": 1, "train": train},
                     {"label": "one", "mode": "single-stage", "k": 2, "m": 0},
                     {"label": "top", "mode": "single-layer", "layer": 3, "train": train}],
            "seed": 3}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    capsys.readouterr()
    outputs = []
    for threads in ("1", "3"):
        out = tmp_path / f"cmp{threads}"
        assert main(["compare", "--spec", str(spec_path), "--out", str(out),
                     "--threads", threads]) == 0
        outputs.append([capsys.readouterr().out] + [
            (out / name).read_bytes() for name in ("compare.csv", "compare.json")])
    assert outputs[0] == outputs[1]
    assert len(outputs[0][0].splitlines()) == 1 + 1 + len(spec["rows"])


@pytest.mark.parametrize("command", ["sweep", "compare"])
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_row_thread_count_must_be_positive(tmp_path, capsys, monkeypatch, command, threads):
    _no_training(monkeypatch)
    spec_path = _compare_spec(tmp_path, {"label": "x", "mode": "fft"})
    argv = {"sweep": ["sweep", "--data", str(tmp_path / "synth"),
                      "--model-config", str(tmp_path / "model.json"),
                      "--eval-translation", str(tmp_path / "synth")],
            "compare": ["compare", "--spec", str(spec_path)]}[command]
    assert main(argv + ["--out", str(tmp_path / "out"), "--threads", threads]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"--threads must be in [1, inf), not {threads}" in err
    assert not (tmp_path / "out").exists()


def _compare_with_a_failing_row(tmp_path, monkeypatch, threads, fail):
    """Run `forge compare` with row 'one' calling `fail` in place of
    training; row 'fft', when it runs in a worker process, waits a
    minute first, so a failure must stop it, not wait for it."""
    from forge import trainer
    test_process = os.getpid()
    real_run = trainer.run

    def patched(start, batches, mode, config, boundary=None):
        if mode.kind == "single-layer":
            fail()
        if mode.kind == "fft" and os.getpid() != test_process:
            time.sleep(60)
        return real_run(start, batches, mode, config, boundary)
    monkeypatch.setattr(trainer, "run", patched)
    spec_path = _compare_spec(tmp_path, {"label": "x", "mode": "fft"})
    before = child_pids()
    t0 = time.monotonic()
    try:
        return main(["compare", "--spec", str(spec_path), "--threads", threads])
    finally:
        assert time.monotonic() - t0 < 30
        assert child_pids() == before


@pytest.mark.parametrize("threads", ["1", "2"])
def test_compare_row_forge_error_exits_1_naming_the_row(tmp_path, capsys, monkeypatch, threads):
    from forge.errors import NonFiniteInput

    def fail():
        raise NonFiniteInput("non-finite loss in the test")
    assert _compare_with_a_failing_row(tmp_path, monkeypatch, threads, fail) == 1
    assert capsys.readouterr().err == "error: row 'one': non-finite loss in the test\n"


def test_compare_row_whose_process_dies_exits_1_naming_the_row(tmp_path, capsys, monkeypatch):
    test_process = os.getpid()

    def die():
        if os.getpid() != test_process:
            os.kill(os.getpid(), signal.SIGKILL)
    assert _compare_with_a_failing_row(tmp_path, monkeypatch, "2", die) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: row 'one': its worker process ended without a result"), err


def test_compare_row_crash_carries_the_worker_traceback(tmp_path, monkeypatch):
    def crash():
        raise KeyError("lost key")
    with pytest.raises(RuntimeError, match="row 'one' failed in its worker process") as caught:
        _compare_with_a_failing_row(tmp_path, monkeypatch, "2", crash)
    assert "Traceback" in str(caught.value) and "KeyError: 'lost key'" in str(caught.value)


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


def _compare_spec(tmp_path, last_row, **top_level):
    assert main(["make-synth", "--task", "translation", "--n", "40", "--seed", "1",
                 "--out", str(tmp_path / "synth")]) == 0
    model = _write_model_config(tmp_path)
    spec = {"model_config": str(model), "train_data": str(tmp_path / "synth"),
            "pretrain": {"data": str(tmp_path / "synth"), "config": {"epochs": 1}},
            "eval_sets": {}, "out_dir": str(tmp_path / "cmp"),
            "rows": [{"label": "fft", "mode": "fft", "train": {"epochs": 1}},
                     {"label": "one", "mode": "single-layer", "layer": 1},
                     last_row]}
    spec.update(top_level)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path


@pytest.mark.parametrize("last_row, top_level, message", [
    ({"label": "x", "mode": "frobnicate"}, {}, "unknown mode"),
    ({"label": "x", "mode": "single-layer"}, {}, "missing single-layer mode key 'layer'"),
    ({"label": "x", "mode": "single-layer", "layer": 9}, {}, "layer must be in [0, 3], not 9"),
    ({"label": "x", "mode": "two-stage", "k": 3, "m": 3}, {}, "overlap"),
    ({"label": "x", "mode": "two-stage", "k": "1", "m": 1}, {}, "'k' must be an integer"),
    ({"label": "x", "mode": "fft", "k": 1}, {}, "unknown fft mode key 'k'"),
    ({"label": "x", "mode": "two-stage"}, {}, "two-stage mode trains no tensor"),
    ({"label": "x", "mode": "single-stage", "k": 1, "m": 1, "skip": [0, 3]}, {},
     "single-stage mode trains no tensor"),
    ({"label": "x", "mode": "fft"}, {"seed": -1}, "spec.json 'seed' must be in [0, inf), not -1"),
    ({"label": "x", "mode": "fft", "train": {"seed": -2}}, {},
     "spec.json row 'x': seed must be in [0, inf), not -2"),
    ({"label": "x", "mode": "fft"}, {"pretrain": {"data": "d", "config": {"seed": -3}}},
     "spec.json 'pretrain': seed must be in [0, inf), not -3"),
    ({"label": "x", "mode": "fft", "train": {"lr": 1e-3}}, {}, "unknown train key 'lr'"),
    ({"label": "x", "mode": "fft", "train": {"epochs": 0}}, {}, "epochs"),
    ({"mode": "fft"}, {}, "needs a label"),
    ({"label": "x", "mode": "fft", "train": []}, {}, "train must be an object"),
    ({"label": "x", "mode": "fft"}, {"rowz": []}, "unknown spec key 'rowz'"),
    ({"label": "x", "mode": "fft"}, {"pretrain": {"config": {}}}, "'data'"),
    ({"label": "x", "mode": "fft"}, {"pretrain": {"data": "d", "config": {"seed": 1.5}}},
     "'seed' must be an integer"),
])
def test_compare_rejects_a_bad_spec_before_any_training(
        tmp_path, capsys, monkeypatch, last_row, top_level, message):
    from forge import trainer

    def no_training(*args, **kwargs):
        raise AssertionError("trained before the spec was checked")
    monkeypatch.setattr(trainer, "run", no_training)
    spec_path = _compare_spec(tmp_path, last_row, **top_level)
    assert main(["compare", "--spec", str(spec_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err
    assert "Traceback" not in err
    assert not (tmp_path / "cmp").exists()


# Mode objects, each read as `train` flags and as a compare row of a
# 4-layer model: None for a mode both read alike, else the reason both
# refuse it
MODES = [
    ({"mode": "fft"}, None),
    ({"mode": "fft", "k": 3}, "unknown fft mode key 'k'"),
    ({"mode": "fft", "skip": [9]}, "unknown fft mode key 'skip'"),
    ({"mode": "two-stage", "k": 1, "m": 2, "skip": [3]}, None),
    ({"mode": "two-stage", "k": 1, "skip": [4]}, "skip must be in [0, 3], not 4"),
    ({"mode": "two-stage", "k": 3, "m": 2}, "bottom-3 and top-2 overlap on layers [2]"),
    ({"mode": "two-stage"}, "two-stage mode trains no tensor"),
    ({"mode": "two-stage", "k": 1, "m": 1, "skip": [0, 3]},
     "two-stage mode trains no tensor"),
    ({"mode": "single-stage", "k": 2, "m": 0}, None),
    ({"mode": "single-stage", "k": -1}, "k must be in [0, inf), not -1"),
    ({"mode": "single-layer", "layer": 2}, None),
    ({"mode": "single-layer", "layer": 2, "m": 1}, "unknown single-layer mode key 'm'"),
    ({"mode": "single-layer", "layer": 4}, "layer must be in [0, 3], not 4"),
    ({"mode": "single-layer", "layer": "x"},
     "single-layer mode 'layer' must be an integer, not 'x'"),
    ({"mode": "single-layer"}, "missing single-layer mode key 'layer'"),
    ({"mode": "frobnicate"}, "unknown mode 'frobnicate'"),
]


@pytest.mark.parametrize("obj, reason", MODES, ids=lambda v: json.dumps(v))
def test_train_flags_and_compare_rows_read_modes_alike(tmp_path, capsys, monkeypatch, obj,
                                                       reason):
    from forge import trainer

    class Trains(Exception):
        pass

    def run(start, batches, mode, config, boundary=None):
        raise Trains(mode)
    monkeypatch.setattr(trainer, "run", run)
    spec = json.loads(_compare_spec(tmp_path, {"label": "x", **obj}).read_text())
    del spec["pretrain"]
    spec["rows"] = spec["rows"][-1:]
    (tmp_path / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    mode = obj["mode"] + (f":{obj['layer']}" if "layer" in obj else "")
    flags = ["--mode", mode] + [word for key in ("k", "m") if key in obj
                                for word in (f"--{key}", str(obj[key]))]
    flags += [word for layer in obj.get("skip", []) for word in ("--skip", str(layer))]
    runs = {"train": (["train"] + flags + ["--data", str(tmp_path / "synth"),
                                          "--model-config", str(tmp_path / "model.json"),
                                          "--out", str(tmp_path / "run")],
                      f"error: --mode {mode}: "),
            "compare": (["compare", "--spec", str(tmp_path / "spec.json")], "error: row 'x': ")}
    modes = []
    for command, (argv, prefix) in runs.items():
        if reason is None:
            with pytest.raises(Trains) as trained:
                main(argv)
            modes.append(trained.value.args[0])
        else:
            assert main(argv) == 1, command
            err = capsys.readouterr().err
            assert err == prefix + reason + "\n", err
            assert not (tmp_path / "run").exists() and not (tmp_path / "cmp").exists()
    assert len(modes) == (0 if reason else 2) and len(set(modes)) <= 1, modes


def test_compare_needs_the_spec_keys(tmp_path, capsys):
    spec_path = _compare_spec(tmp_path, {"label": "x", "mode": "fft"})
    spec = json.loads(spec_path.read_text())
    del spec["train_data"]
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["compare", "--spec", str(spec_path)]) == 1
    assert "missing spec key 'train_data'" in capsys.readouterr().err


@pytest.mark.parametrize("top_level, message", [
    ({"model_config": 3}, "spec 'model_config' must be a path string, not 3"),
    ({"train_data": ["x"]}, "spec 'train_data' must be a path string, not ['x']"),
    ({"start_checkpoint": 1}, "spec 'start_checkpoint' must be a path string, not 1"),
    ({"out_dir": None}, "spec 'out_dir' must be a path string, not None"),
    ({"eval_sets": {"general": 5}}, "eval set 'general' must be a path string, not 5"),
    ({"pretrain": {"data": {"p": 1}}}, "pretrain 'data' must be a path string"),
])
def test_compare_spec_paths_must_be_strings(tmp_path, capsys, monkeypatch, top_level, message):
    _no_training(monkeypatch)
    spec_path = _compare_spec(tmp_path, {"label": "x", "mode": "fft"}, **top_level)
    assert main(["compare", "--spec", str(spec_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err, err
    assert not (tmp_path / "cmp").exists()


@pytest.mark.parametrize("seed, message", [
    ("not-a-seed", "spec 'seed' must be an integer, not 'not-a-seed'"),
    (-1, "spec.json 'seed' must be in [0, inf), not -1")])
def test_compare_spec_seed_is_checked_when_every_row_has_its_own(
        tmp_path, capsys, monkeypatch, seed, message):
    _no_training(monkeypatch)
    spec_path = _compare_spec(tmp_path, {"label": "x", "mode": "fft"}, seed=seed)
    spec = json.loads(spec_path.read_text())
    for row in spec["rows"]:
        row.setdefault("train", {})["seed"] = 1
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["compare", "--spec", str(spec_path)]) == 1
    err = capsys.readouterr().err
    assert message in err, err
    assert not (tmp_path / "cmp").exists()


TRAINING_FLAGS = ["--epochs", "2", "--lr-max", "1e-3", "--lr-min", "1e-4",
                  "--warmup-ratio", "0.1", "--batch-size", "4", "--grad-accum", "3"]
TRAINING_DESTS = ("epochs", "lr_max", "lr_min", "warmup_ratio", "batch_size", "grad_accum")


def test_train_and_sweep_share_the_training_options():
    parser = build_parser()
    train = ["train", "--mode", "fft", "--data", "d", "--out", "o"]
    sweep = ["sweep", "--data", "d", "--out", "o"]
    for given, want in (([], (None,) * 6), (TRAINING_FLAGS, (2, 1e-3, 1e-4, 0.1, 4, 3))):
        for argv in (train, sweep):
            args = parser.parse_args(argv + given)
            got = tuple(getattr(args, dest) for dest in TRAINING_DESTS)
            assert got == want and [type(v) for v in got] == [type(v) for v in want], argv


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


def test_refine_and_make_synth_never_import_scipy(tmp_path, fixture_paths):
    # only a command that builds or loads a model pays for importing scipy
    runs = [["refine", "--input", str(fixture_paths["input"]),
             "--output", str(tmp_path / "out.jsonl"), "--report", str(tmp_path / "rep.json"),
             "--langid-scorer", str(fixture_paths["langid"]),
             "--quality-scorer", str(fixture_paths["quality"]),
             "--dev-set", str(fixture_paths["dev_records"]),
             "--dev-scorer", str(fixture_paths["dev"])]]
    runs += [["make-synth", "--task", task, "--n", "50", "--out", str(tmp_path / task)]
             for task in ("translation", "general")]
    code = ("import json, sys\n"
            "import forge.cli\n"
            "loaded = ['scipy' in sys.modules]\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert forge.cli.main(argv) == 0, argv\n"
            "    loaded.append('scipy' in sys.modules)\n"
            "print(json.dumps(loaded))\n")
    done = run_python(code, json.dumps(runs))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [False] * 4
    assert json.loads((tmp_path / "rep.json").read_text())["skipped_stages"] == []


def test_refine_closes_an_open_scorer_when_a_later_one_fails_to_open(
        tmp_path, fixture_paths, stub_scorer_script, capsys):
    before = child_pids()
    try:
        assert main(["refine", "--input", str(fixture_paths["input"]),
                     "--output", str(tmp_path / "out.jsonl"),
                     "--langid-scorer",
                     f"{sys.executable} {stub_scorer_script} {fixture_paths['langid']}",
                     "--quality-scorer", str(tmp_path / "no-such-scorer")]) == 1
        assert "no-such-scorer" in capsys.readouterr().err
        assert child_pids() == before
    finally:
        for pid in child_pids() - before:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _no_training(monkeypatch):
    from forge import trainer

    def no_training(*args, **kwargs):
        raise AssertionError("trained with an unchecked config")
    monkeypatch.setattr(trainer, "run", no_training)
    monkeypatch.setattr(trainer, "single_layer_sweep", no_training)


@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize("flags, message", [
    (["--epochs", "0"], "--epochs must be in [1, inf), not 0"),
    (["--lr-min", "1", "--lr-max", "0.1"], "lr_min must be <= lr_max"),
    (["--grad-accum", "0"], "--grad-accum must be in [1, inf), not 0"),
    (["--batch-size", "0"], "--batch-size must be in [1, inf), not 0"),
    (["--warmup-ratio", "1"], "--warmup-ratio must be in [0, 1), not 1.0"),
])
def test_training_flags_get_the_train_config_checks(
        tmp_path, capsys, monkeypatch, command, flags, message):
    assert main(["make-synth", "--task", "translation", "--n", "40", "--seed", "1",
                 "--out", str(tmp_path / "synth")]) == 0
    _no_training(monkeypatch)
    model = _write_model_config(tmp_path)
    argv = {"train": ["train", "--mode", "fft"],
            "sweep": ["sweep", "--eval-translation", str(tmp_path / "synth")]}[command]
    argv += ["--data", str(tmp_path / "synth"), "--model-config", str(model),
             "--out", str(tmp_path / "out")] + flags
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err


# (key, value) pairs that TrainConfig rejects; the first six have flags
BAD_TRAIN_VALUES = [("lr_max", float("nan")), ("lr_max", float("inf")), ("lr_max", -0.001),
                    ("lr_min", float("nan")), ("lr_min", -1e-05), ("seed", -1),
                    ("lr_max", 10**400), ("beta1", 1.0), ("beta1", -0.5),
                    ("beta2", float("nan")), ("eps", 0.0), ("eps", float("inf")),
                    ("weight_decay", -0.01), ("weight_decay", float("nan"))]


@pytest.mark.parametrize("key, value, where", [
    (key, value, where) for i, (key, value) in enumerate(BAD_TRAIN_VALUES)
    for where in (("flag", "config") if i < 6 else ("config",))], ids=lambda v: str(v)[:12])
def test_train_config_values_are_checked_before_any_data_loads(
        tmp_path, capsys, monkeypatch, key, value, where):
    from forge import cli

    def no_data(*args, **kwargs):
        raise AssertionError("loaded data with an unchecked config")
    _no_training(monkeypatch)
    monkeypatch.setattr(cli, "load_samples", no_data)
    argv = ["train", "--mode", "fft", "--data", "d",
            "--model-config", str(_write_model_config(tmp_path)), "--out", "o"]
    if where == "flag":
        name = f"--{key.replace('_', '-')}"
        argv.append(f"{name}={value!r}")
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"train": {key: value}}), encoding="utf-8")
        argv = ["--config", str(config)] + argv
        name = f"{config} 'train': {key}"
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} must be in ") and err.count("\n") == 1, err
    assert err.endswith(f", not {value!r}\n"), err


def test_a_diverging_run_prints_one_error_line(tmp_path):
    # the non-finite values of a run that diverges at a legal rate end it
    # with one error, and numpy warns of none of them
    assert main(["make-synth", "--task", "translation", "--n", "40", "--seed", "1",
                 "--out", str(tmp_path / "synth")]) == 0
    code = "import sys\nfrom forge.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    done = run_python(code, "train", "--mode", "fft", "--lr-max", "1e30",
                      "--data", str(tmp_path / "synth"),
                      "--model-config", str(_write_model_config(tmp_path)),
                      "--out", str(tmp_path / "run"))
    assert done.returncode == 1
    assert re.fullmatch(r"error: fft step \d+: non-finite [^\n]*\n", done.stderr), done.stderr


def test_config_file_train_section_is_checked(tmp_path, capsys, monkeypatch):
    _no_training(monkeypatch)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"train": {"lr": 1e-3}}), encoding="utf-8")
    assert main(["--config", str(config), "train", "--mode", "fft", "--data", "d",
                 "--model-config", str(_write_model_config(tmp_path)), "--out", "o"]) == 1
    assert f"{config} 'train': unknown config 'train' key 'lr'" in capsys.readouterr().err


@pytest.mark.parametrize("where, content, message", [
    ("refine", {"nope": 1}, "unknown refinery config key 'nope'"),
    ("refine", {"min_tokens": "2"}, "refinery config 'min_tokens' must be an integer"),
    ("refine", {"quality_percentile": "0.9"}, "'quality_percentile' must be a number"),
    ("refine", {"strict": 1}, "refinery config 'strict' must be true or false, not 1"),
    ("refine", {"char_split_langs": "zh"}, "'char_split_langs' must be a list of strings"),
    ("refine", {"char_split_langs": ["zh", 3]}, "'char_split_langs' must be a list of strings"),
    ("refine", [1], "refinery config must be an object"),
    ("global", {"refinery": {"nope": 1}}, "unknown config 'refinery' key 'nope'"),
    ("global", {"refinery": {"hamming_radius": 2.0}}, "'hamming_radius' must be an integer"),
    ("global", [1], "config file must be an object"),
    ("global", {"refinary": {"min_tokens": 100}}, "unknown config file key 'refinary'"),
    ("refine", {"min_tokens": 0}, "min_tokens must be in [1, inf), not 0"),
    ("refine", {"max_conflicts": -1}, "max_conflicts must be in [0, inf), not -1"),
    ("refine", {"langid_min_prob": float("nan")}, "langid_min_prob must be in [0, 1], not nan"),
])
def test_bad_refinery_config_is_a_domain_error(tmp_path, capsys, where, content, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(content), encoding="utf-8")
    refine = ["refine", "--input", str(tmp_path / "in.jsonl"), "--output", str(tmp_path / "o")]
    argv = refine + ["--config", str(config)] if where == "refine" else \
        ["--config", str(config)] + refine
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err, err
    assert str(config) in err, err


def test_unknown_config_file_section_is_a_domain_error(tmp_path, capsys, monkeypatch):
    _no_training(monkeypatch)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"trian": {"epochs": 0}}), encoding="utf-8")
    assert main(["--config", str(config), "train", "--mode", "fft", "--data", "d",
                 "--model-config", str(_write_model_config(tmp_path)), "--out", "o"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "unknown config file key 'trian'" in err, err


def test_non_object_config_file_is_a_domain_error(tmp_path, capsys, monkeypatch):
    _no_training(monkeypatch)
    config = tmp_path / "config.json"
    config.write_text("[1]", encoding="utf-8")
    assert main(["--config", str(config), "train", "--mode", "fft", "--data", "d",
                 "--model-config", str(_write_model_config(tmp_path)), "--out", "o"]) == 1
    assert "config file must be an object, not [1]" in capsys.readouterr().err


def test_refinery_config_file_values_reach_the_config():
    from forge import refinery
    from forge.records import read_config as _read_config
    obj = {"min_tokens": 3, "min_len_ratio": 1, "strict": True, "char_split_langs": ["ja"]}
    assert _read_config(refinery.RefineryConfig, obj, "refinery config", "rc.json") == \
        refinery.RefineryConfig(min_tokens=3, min_len_ratio=1.0, strict=True,
                                char_split_langs=("ja",))


BAD_MODEL_CONFIGS = [
    ({**MODEL_CONFIG, "layers": 3}, "unknown model config key 'layers'"),
    ({k: v for k, v in MODEL_CONFIG.items() if k != "d_ff"}, "missing model config key 'd_ff'"),
    ({**MODEL_CONFIG, "n_heads": "4"}, "model config 'n_heads' must be an integer"),
    ({**MODEL_CONFIG, "vocab_size": 64.0}, "model config 'vocab_size' must be an integer"),
    ({**MODEL_CONFIG, "n_heads": 0}, "n_heads must be in [1, inf), not 0"),
    # 617 d + 16 d^2 parameters for d_model d, far past the ceiling
    ({**MODEL_CONFIG, "d_model": 10**13},
     f"model config has {617 * 10**13 + 16 * 10**26:,} parameters, more than "
     "the ceiling of 100,000,000"),
    ([4, 32], "model config must be an object"),
    ({**MODEL_CONFIG, "init_seed": -1}, "init_seed must be in [0, inf), not -1"),
]


@pytest.mark.parametrize("bad, message", BAD_MODEL_CONFIGS)
def test_bad_model_config_file_is_a_domain_error(tmp_path, capsys, monkeypatch, bad, message):
    _no_training(monkeypatch)
    model = tmp_path / "bad.json"
    model.write_text(json.dumps(bad), encoding="utf-8")
    assert main(["train", "--mode", "fft", "--data", "d", "--model-config", str(model),
                 "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err, err


@pytest.mark.parametrize("bad, message", BAD_MODEL_CONFIGS)
def test_bad_compare_model_config_is_a_domain_error(tmp_path, capsys, monkeypatch, bad, message):
    _no_training(monkeypatch)
    spec_path = _compare_spec(tmp_path, {"label": "x", "mode": "fft"})
    spec = json.loads(spec_path.read_text())
    (tmp_path / "model.json").write_text(json.dumps(bad), encoding="utf-8")
    assert spec["model_config"] == str(tmp_path / "model.json")
    assert main(["compare", "--spec", str(spec_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err
    assert not (tmp_path / "cmp").exists()


@pytest.mark.parametrize("bad, message", BAD_MODEL_CONFIGS)
def test_bad_checkpoint_manifest_config_is_a_domain_error(tmp_path, capsys, bad, message):
    from forge import tinylm

    ckpt = tmp_path / "ckpt"
    tinylm.save_checkpoint(tinylm.init(tinylm.ModelConfig(**MODEL_CONFIG)), ckpt)
    manifest = json.loads((ckpt / "manifest.json").read_text())
    manifest["config"] = bad
    (ckpt / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["eval", "--checkpoint", str(ckpt), "--data", "d"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "manifest.json" in err, err


@pytest.mark.parametrize("command", ["train", "sweep", "compare"])
@pytest.mark.parametrize("model, message", [
    (MODEL_CONFIG, "model config differs from checkpoint {ckpt}'s ModelConfig(n_layers=2, "),
    ({**MODEL_CONFIG, "n_layers": 0}, "n_layers must be in [1, inf), not 0")])
def test_a_model_config_beside_a_checkpoint_must_be_its_own(
        tmp_path, capsys, monkeypatch, command, model, message):
    # a 4-layer model config beside a 2-layer checkpoint, where a row or
    # the flags ask for layer 3 of the config's four
    from forge import cli, tinylm

    def no_data(*args, **kwargs):
        raise AssertionError("loaded data beside a model config that is not the checkpoint's")
    _no_training(monkeypatch)
    monkeypatch.setattr(cli, "load_samples", no_data)
    ckpt = tmp_path / "ckpt"
    tinylm.save_checkpoint(tinylm.init(tinylm.ModelConfig(**{**MODEL_CONFIG, "n_layers": 2})),
                           ckpt)
    config = tmp_path / "model.json"
    config.write_text(json.dumps(model), encoding="utf-8")
    spec = {"model_config": str(config), "start_checkpoint": str(ckpt), "train_data": "d",
            "eval_sets": {}, "rows": [{"label": "a", "mode": "single-layer", "layer": 3}]}
    (tmp_path / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    beside = ["--model-config", str(config), "--checkpoint", str(ckpt), "--data", "d"]
    argv = {"train": ["train", "--mode", "single-layer:3"] + beside,
            "sweep": ["sweep", "--eval-translation", "d"] + beside,
            "compare": ["compare", "--spec", str(tmp_path / "spec.json")]}[command]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: {message.format(ckpt=ckpt)}"), err
    assert err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


def _drop(field):
    def edit(manifest, ckpt):
        del manifest["tensors"][0][field]
    return edit


def _set(index, field, value):
    def edit(manifest, ckpt):
        entry = manifest["tensors"][index]
        entry[field] = value(entry) if callable(value) else value
    return edit


def _swap_w_q_and_w_k(manifest, ckpt):
    tensors = manifest["tensors"]
    tensors[3], tensors[4] = tensors[4], tensors[3]
    tensors[3]["offset"], tensors[4]["offset"] = tensors[4]["offset"], tensors[3]["offset"]


def _truncate_unhashed(manifest, ckpt):
    del manifest["params_sha256"]
    blob = ckpt / "params.bin"
    blob.write_bytes(blob.read_bytes()[:-4])


# each entry of the table is shown as canonical JSON, keys sorted; the
# model config lays out 35 tensors in 144,512 bytes, W_Q of block 0 at
# entry 3
@pytest.mark.parametrize("edit, message", [
    (_drop("offset"), 'tensor entry 0 is {"layer": null, "length": 8192, "name": "tok_emb", '
                      '"shape": [64, 32]}, not the model config\'s'),
    (_drop("length"), 'tensor entry 0 is {"layer": null, "name": "tok_emb", "offset": 0,'),
    (_drop("layer"), 'tensor entry 0 is {"length": 8192, "name": "tok_emb",'),
    (_drop("name"), 'tensor entry 0 is {"layer": null, "length": 8192, "offset": 0,'),
    (_drop("shape"), 'tensor entry 0 is {"layer": null, "length": 8192, "name": "tok_emb", '
                     '"offset": 0}, not'),
    (_set(0, "offset", "0"), 'tensor entry 0 is {"layer": null, "length": 8192, '
                             '"name": "tok_emb", "offset": "0",'),
    (_set(1, "offset", -4), 'tensor entry 1 is {"layer": null, "length": 4096, '
                            '"name": "pos_emb", "offset": -4,'),
    (_set(1, "length", 8192.0), 'tensor entry 1 is {"layer": null, "length": 8192.0,'),
    (_set(1, "length", 4096.0), 'tensor entry 1 is {"layer": null, "length": 4096.0,'),
    (_set(3, "layer", "0"), 'tensor entry 3 is {"layer": "0",'),
    (_set(10, "layer", True), 'tensor entry 10 is {"layer": true,'),
    (_set(3, "name", 7), 'tensor entry 3 is {"layer": 0, "length": 4096, "name": 7,'),
    (_set(3, "shape", [32, "32"]), 'tensor entry 3 is {"layer": 0, "length": 4096, '
                                   '"name": "W_Q", "offset": 12416, "shape": [32, "32"]}'),
    (_set(3, "shape", 1024), 'tensor entry 3 is {"layer": 0, "length": 4096, '
                             '"name": "W_Q", "offset": 12416, "shape": 1024}'),
    (_set(-1, "offset", lambda e: e["offset"] + 4),
     'tensor entry 34 is {"layer": null, "length": 128, "name": "final_gain", '
     '"offset": 144388,'),
    (_set(3, "length", lambda e: e["length"] - 4), 'tensor entry 3 is {"layer": 0, '
                                                   '"length": 4092,'),
    (_set(3, "shape", [16, 64]), 'tensor entry 3 is {"layer": 0, "length": 4096, '
                                 '"name": "W_Q", "offset": 12416, "shape": [16, 64]}'),
    (_set(3, "name", "W_Z"), 'tensor entry 3 is {"layer": 0, "length": 4096, "name": "W_Z",'),
    (_swap_w_q_and_w_k, 'tensor entry 3 is {"layer": 0, "length": 4096, "name": "W_K", '
                        '"offset": 12416,'),
    (lambda manifest, ckpt: manifest["tensors"].append(dict(manifest["tensors"][3])),
     "36 tensor entries, not the model config's 35"),
    (lambda manifest, ckpt: manifest["tensors"].pop(3),
     'tensor entry 3 is {"layer": 0, "length": 4096, "name": "W_K", "offset": 16512,'),
    (lambda manifest, ckpt: manifest["tensors"].__setitem__(0, [1, 2]),
     "tensor entry 0 is [1, 2], not the model config's"),
    (_truncate_unhashed, "params.bin holds 144508 bytes, not the tensor table's 144512"),
], ids=["no-offset", "no-length", "no-layer", "no-name", "no-shape", "offset-string",
        "offset-negative", "length-float", "length-float-equal", "layer-string", "layer-true",
        "name-int", "shape-string", "shape-int", "offset-past-end", "length-short",
        "shape-other", "name-other", "w_q-w_k-swapped", "duplicate", "missing", "entry-list",
        "truncated-unhashed"])
def test_bad_checkpoint_tensor_table_is_a_domain_error(tmp_path, capsys, edit, message):
    from forge import tinylm

    ckpt = tmp_path / "ckpt"
    tinylm.save_checkpoint(tinylm.init(tinylm.ModelConfig(**MODEL_CONFIG)), ckpt)
    manifest = json.loads((ckpt / "manifest.json").read_text())
    assert manifest["tensors"][3]["name"] == "W_Q" and manifest["tensors"][3]["layer"] == 0
    edit(manifest, ckpt)
    (ckpt / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["eval", "--checkpoint", str(ckpt), "--data", "d"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "manifest.json" in err, err


@pytest.mark.parametrize("command", ["eval", "analyze-gradients"])
def test_checkpoint_with_a_non_finite_value_is_a_domain_error(tmp_path, capsys, command):
    from forge import tinylm

    params = tinylm.init(tinylm.ModelConfig(**MODEL_CONFIG))
    params[(1, "W_1")][2, 3] = float("nan")
    ckpt = tmp_path / "ckpt"
    tinylm.save_checkpoint(params, ckpt)
    argv = [command, "--checkpoint", str(ckpt), "--data", "d"]
    if command == "analyze-gradients":
        argv += ["--out", str(tmp_path / "report.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {ckpt / 'params.bin'}: tensor (1, 'W_1') holds a "
                   "non-finite value\n"), err


@pytest.mark.parametrize("tensors", [None, {"0": {}}])
def test_checkpoint_tensor_table_must_be_a_list(tmp_path, capsys, tensors):
    from forge import tinylm

    ckpt = tmp_path / "ckpt"
    tinylm.save_checkpoint(tinylm.init(tinylm.ModelConfig(**MODEL_CONFIG)), ckpt)
    manifest = json.loads((ckpt / "manifest.json").read_text())
    manifest["tensors"] = tensors
    (ckpt / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["eval", "--checkpoint", str(ckpt), "--data", "d"]) == 1
    assert "'tensors' must be a list" in capsys.readouterr().err


@pytest.mark.parametrize("content", ["{config: 1}",
                                     pytest.param("[" * 100_000, id="nested too deeply")])
@pytest.mark.parametrize("command", ["eval", "analyze-gradients"])
def test_checkpoint_manifest_that_is_not_json_is_a_domain_error(
        tmp_path, capsys, command, content):
    ckpt = _checkpoint(tmp_path)
    (ckpt / "manifest.json").write_text(content, encoding="utf-8")
    argv = [command, "--checkpoint", str(ckpt), "--data", "d"]
    if command == "analyze-gradients":
        argv += ["--out", str(tmp_path / "report.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(ckpt / "manifest.json") in err, err


def _checkpoint(tmp_path):
    from forge import tinylm
    path = tmp_path / "ckpt"
    tinylm.save_checkpoint(tinylm.init(tinylm.ModelConfig(**MODEL_CONFIG)), path)
    return path


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("line", [
    '{"prompt": [2, 5, 1]}',
    "[1, 2]",
    "5",
    '{"prompt": [2, 5, 1], "response": "ab"}',
    '{"prompt": [2, 5.5, 1], "response": [6]}',
    '{"prompt": [2, true, 1], "response": [6]}',
    '{"prompt": [2, 5, 1], "response": [6]',
    '{"prompt": [2, 1], "response": []}',
    '{"prompt": [], "response": [5, 6]}',
    '{"prompt": [2, -5, 1], "response": [6]}',
    '{"prompt": [2, 5, 1], "response": [6, 64]}',
    '{}',
    '{"instruction": "Translate t1", "response": "t2"}',
    '{"prompt": [2, 5, 1], "response": [6], "note": "\udcff"}',  # byte 0xff
])
def test_bad_token_sample_line_is_a_domain_error(tmp_path, capsys, command, line):
    # train meets the bad line first, eval after a good line and a blank one
    good = json.dumps({"prompt": [2, 5, 1], "response": [6, 7]})
    data = tmp_path / "samples.jsonl"
    first = command == "train"
    lines = [line, good] if first else [good, "", line]
    data.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")
    argv = {"train": ["train", "--mode", "fft", "--out", str(tmp_path / "run"),
                      "--model-config", str(_write_model_config(tmp_path))],
            "eval": ["eval", "--checkpoint", str(_checkpoint(tmp_path))]}[command]
    assert main(argv + ["--data", str(data)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err, err
    assert f"{data} line {1 if first else 3}" in err, err


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("kind", ["samples", "records"])
def test_a_sample_longer_than_the_model_names_the_file_line_and_limit(
        tmp_path, capsys, command, kind):
    # 33 tokens each, one more than MODEL_CONFIG's max_seq_len
    long = {"samples": json.dumps({"prompt": [2] * 30, "response": [6] * 3}),
            "records": _record(" ".join(["t1"] * 30), "t2")}[kind]
    short = {"samples": json.dumps({"prompt": [2, 5, 1], "response": [6, 7]}),
             "records": _record("t1 t2", "t3 t4")}[kind]
    data = tmp_path / "data.jsonl"
    data.write_text("\n".join([short, "", long, long]) + "\n", encoding="utf-8")
    argv = {"train": ["train", "--mode", "fft", "--out", str(tmp_path / "run"),
                      "--model-config", str(_write_model_config(tmp_path))],
            "eval": ["eval", "--checkpoint", str(_checkpoint(tmp_path))]}[command]
    assert main(argv + ["--data", str(data)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {data} line 3: the sample's 33 tokens exceed "
                   "the model's max_seq_len of 32\n"), err


def _record(src_line, tgt_line):
    return json.dumps({"src": "qaa", "trg": "qab", "src_line": src_line, "tgt_line": tgt_line})


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("line", [
    _record("t1 t2", ""),
    _record(" ", "t1 t2"),
    _record("t1 t60", "t1"),
    _record("t1", "t2 hello"),
    '{"src": "qaa", "trg": "qab", "src_line": "t1"}',
    '{"src": "qaa", "trg": "qaa", "src_line": "t1", "tgt_line": "t2"}',
    '{}',
    '{"instruction": "Translate t1", "response": "t2"}',
    '{"src": "qaa", "trg": "qab", "src_line": "t1 \udcff", "tgt_line": "t2"}',  # byte 0xff
])
def test_bad_record_line_is_a_domain_error(tmp_path, capsys, command, line):
    # the parallel-record twin of the token-sample test above
    good = _record("t1 t2", "t3 t4")
    data = tmp_path / "records.jsonl"
    first = command == "train"
    lines = [line, good] if first else [good, "", line]
    data.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")
    argv = {"train": ["train", "--mode", "fft", "--out", str(tmp_path / "run"),
                      "--model-config", str(_write_model_config(tmp_path))],
            "eval": ["eval", "--checkpoint", str(_checkpoint(tmp_path))]}[command]
    assert main(argv + ["--data", str(data)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err, err
    assert f"{data} line {1 if first else 3}" in err, err


# Every flag that names an input file, in a command that reads that file
# before anything else can fail: {bad} is the file under test, and the
# other fields name good files that _input_files writes.
INPUT_FILE_FLAGS = {
    "train --data": "train --mode fft --model-config {model} --data {bad} --out {out}",
    "eval --data": "eval --checkpoint {ckpt} --data {bad}",
    "sweep --data": "sweep --model-config {model} --data {bad} --out {out} "
                    "--eval-translation {data}",
    "analyze-gradients --data": "analyze-gradients --checkpoint {ckpt} --data {bad} "
                                "--out {out}",
    "sweep --eval-translation": "sweep --model-config {model} --data {data} --out {out} "
                                "--eval-translation {bad}",
    "sweep --eval-general": "sweep --model-config {model} --data {data} --out {out} "
                            "--eval-general {bad}",
    "train --model-config": "train --mode fft --model-config {bad} --data {data} --out {out}",
    "--config": "--config {bad} train --mode fft --model-config {model} --data {data} "
                "--out {out}",
    "--config sweep": "--config {bad} sweep --model-config {model} --data {data} --out {out} "
                      "--eval-translation {data}",
    "--config refine": "--config {bad} refine --input {records} --output {out}",
    "--config make-synth": "--config {bad} make-synth --task general --n 10 --out {out}",
    "--config eval": "--config {bad} eval --checkpoint {ckpt} --data {data}",
    "--config analyze-gradients": "--config {bad} analyze-gradients --checkpoint {ckpt} "
                                  "--data {data} --out {out}",
    "--config compare": "--config {bad} compare --spec {spec} --out {out}",
    "refine --config": "refine --input {records} --output {out} --config {bad}",
    "compare --spec": "compare --spec {bad} --out {out}",
    "refine --dev-set": "refine --input {records} --output {out} --dev-set {bad}",
    "refine --templates": "refine --input {records} --output {out} --templates {bad}",
    "refine --quality-scorer": "refine --input {records} --output {out} "
                               "--quality-scorer {bad}",
    "refine --input --strict": "refine --input {bad} --output {out} --strict",
    "refine --input": "refine --input {bad} --output {out}",
}
JSON_FLAGS = ("train --model-config", "--config", "--config sweep", "--config refine",
              "--config make-synth", "--config eval", "--config analyze-gradients",
              "--config compare", "refine --config", "compare --spec")


def _input_files(tmp_path) -> dict:
    data = tmp_path / "samples.jsonl"
    data.write_text(json.dumps({"prompt": [2, 5, 1], "response": [6, 7]}) + "\n",
                    encoding="utf-8")
    records = tmp_path / "records.jsonl"
    records.write_text(_record("t1 t2", "t3 t4") + "\n", encoding="utf-8")
    model = _write_model_config(tmp_path)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"model_config": str(model), "train_data": str(data),
                                "eval_sets": {}, "rows": [{"label": "fft", "mode": "fft"}]}),
                    encoding="utf-8")
    return {"model": model, "ckpt": _checkpoint(tmp_path), "data": data, "records": records,
            "spec": spec, "out": tmp_path / "out"}


@pytest.mark.parametrize("flag, content", [
    *(pytest.param(flag, b'\n{"note": "\xff"}\n', id=f"{flag}: not UTF-8")
      for flag in INPUT_FILE_FLAGS),
    *(pytest.param(flag, b"{config: 1}\n", id=f"{flag}: not JSON") for flag in JSON_FLAGS),
])
def test_every_input_file_flag_names_a_bad_file(tmp_path, capsys, flag, content):
    # a file with a line that is not UTF-8, or a JSON file that is not JSON,
    # is a domain error naming the file; refine's input is an error only
    # with --strict, and without it counts the line as malformed
    bad = tmp_path / "bad.txt"
    bad.write_bytes(content)
    files = dict(_input_files(tmp_path), bad=bad)
    argv = [word.format(**files) for word in INPUT_FILE_FLAGS[flag].split()]
    if flag == "refine --input":
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["malformed_lines"] == 1
        return
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err, err
    assert str(bad) in err, err
    if flag not in JSON_FLAGS:
        assert "line 2" in err and "UTF-8" in err, err


# nested deeper than the JSON decoder can follow
NESTED = b"[" * 100_000


@pytest.mark.parametrize("flag", [flag for flag in INPUT_FILE_FLAGS if flag not in (
    "refine --templates", "refine --quality-scorer")])
def test_json_nested_too_deeply_names_the_bad_file(tmp_path, capsys, flag):
    # a JSON file, or line 2 of a JSON-lines file, nested past the recursion
    # limit is a domain error like any other JSON that does not decode
    bad = tmp_path / "bad.txt"
    bad.write_bytes(NESTED if flag in JSON_FLAGS else b"\n" + NESTED + b"\n")
    files = dict(_input_files(tmp_path), bad=bad)
    argv = [word.format(**files) for word in INPUT_FILE_FLAGS[flag].split()]
    if flag == "refine --input":
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["malformed_lines"] == 1
        return
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err, err
    assert str(bad) in err and "nested too deeply" in err, err
    if flag not in JSON_FLAGS:
        assert "line 2" in err, err


def test_refine_input_line_that_is_not_utf8_is_a_malformed_line(tmp_path, fixture_paths):
    # without --strict the line is counted and dropped, and takes no seq
    lines = fixture_paths["input"].read_bytes().splitlines(True)
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"".join(lines[:2] + [
        b'{"src": "en", "trg": "de", "src_line": "a \xff", "tgt_line": "b"}\n'] + lines[2:]))
    outputs = []
    for name, path in (("bad", bad), ("good", fixture_paths["input"])):
        for emit in ("records", "instructions"):
            out, report = tmp_path / f"{name}_{emit}.jsonl", tmp_path / f"{name}_{emit}.json"
            assert main([
                "refine", "--input", str(path), "--output", str(out), "--emit", emit,
                "--langid-scorer", str(fixture_paths["langid"]),
                "--quality-scorer", str(fixture_paths["quality"]),
                "--dev-set", str(fixture_paths["dev_records"]),
                "--dev-scorer", str(fixture_paths["dev"]), "--report", str(report),
            ]) == 0
            outputs.append((out.read_bytes(), json.loads(report.read_text(encoding="utf-8"))))
    for (bad_out, bad_report), (good_out, good_report) in zip(outputs[:2], outputs[2:]):
        assert bad_out == good_out
        assert bad_report["malformed_lines"] == good_report["malformed_lines"] + 1
        good_report["malformed_lines"] += 1
        assert bad_report == good_report


@pytest.mark.parametrize("flag, value, interval", [
    ("--batches", "-1", "[1, inf)"), ("--batches", "0", "[1, inf)"),
    ("--batch-size", "0", "[1, inf)"), ("--batch-size", "-3", "[1, inf)"),
    ("--seed", "-3", "[0, inf)")])
def test_analyze_gradients_counts_must_be_positive(tmp_path, capsys, flag, value, interval):
    assert main(["make-synth", "--task", "translation", "--n", "80", "--seed", "1",
                 "--out", str(tmp_path / "synth")]) == 0
    out = tmp_path / "report.csv"
    assert main(["analyze-gradients", "--checkpoint", str(_checkpoint(tmp_path)),
                 "--data", str(tmp_path / "synth"), "--out", str(out), flag, value]) == 1
    assert capsys.readouterr().err == f"error: {flag} must be in {interval}, not {value}\n"
    assert not out.exists()


def test_make_synth_refuses_more_sources_than_its_spec_allows(tmp_path, capsys):
    # 2 content tokens at lengths 1 and 2 make 6 distinct sources; the
    # refusal comes before any draw
    start = time.monotonic()
    assert main(["make-synth", "--task", "translation", "--vocab-size", "6", "--min-len", "1",
                 "--max-len", "2", "--n", "20000", "--out", str(tmp_path / "synth")]) == 1
    assert time.monotonic() - start < 2.0
    assert capsys.readouterr().err == "error: only 6 distinct sources exist\n"


# A command per reader of data files, each given an empty one
EMPTY_DATA_RUNS = {
    "train": "train --mode fft --model-config {model} --data {empty} --out {out}",
    "sweep": "sweep --model-config {model} --data {empty} --out {out} "
             "--eval-translation {data}",
    "eval": "eval --checkpoint {ckpt} --data {empty}",
    "analyze-gradients": "analyze-gradients --checkpoint {ckpt} --data {empty} --out {out}",
    "compare": "compare --spec {spec} --out {out}",
}


@pytest.mark.parametrize("command", EMPTY_DATA_RUNS)
def test_every_command_refuses_an_empty_data_file(tmp_path, capsys, command):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    files = dict(_input_files(tmp_path), empty=empty)
    spec = json.loads(files["spec"].read_text(encoding="utf-8"))
    files["spec"].write_text(json.dumps({**spec, "train_data": str(empty)}), encoding="utf-8")
    argv = [word.format(**files) for word in EMPTY_DATA_RUNS[command].split()]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {empty}: holds no samples\n"


@pytest.mark.parametrize("task, flag, value, interval", [
    ("general", "--max-step", "-1", "[1, inf)"), ("general", "--max-step", "0", "[1, inf)"),
    ("general", "--gen-max-len", "0", "[1, inf)"), ("general", "--n", "0", "[1, inf)"),
    ("translation", "--n", "-2", "[1, inf)"), ("translation", "--seed", "-1", "[0, inf)"),
    ("general", "--perm-seed", "-4", "[0, inf)")])
def test_make_synth_counts_must_be_positive(tmp_path, capsys, task, flag, value, interval):
    out = tmp_path / "synth"
    assert main(["make-synth", "--task", task, "--out", str(out), flag, value]) == 1
    assert capsys.readouterr().err == f"error: {flag} must be in {interval}, not {value}\n"
    assert not out.exists()


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_blocks(lang: str) -> list[str]:
    fences = re.findall(r"^```(\w*)\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.S | re.M)
    return [body for block_lang, body in fences if block_lang == lang]


def test_readme_commands_parse():
    parser = build_parser()
    commands = [line for block in _readme_blocks("")
                for line in block.replace("\\\n", " ").splitlines() if line.startswith("forge ")]
    assert any(c.startswith("forge analyze-gradients") for c in commands)
    for command in commands:
        parser.parse_args(shlex.split(command)[1:])


def test_readme_compare_spec_passes_the_spec_checks(tmp_path, monkeypatch):
    # the README's model.json and experiment.json, checked as `forge compare`
    # checks them; reading the first data file ends the run
    from forge import cli, tinylm

    class Checked(Exception):
        pass

    def stop(*args, **kwargs):
        raise Checked
    model, spec = (json.loads(block) for block in _readme_blocks("json"))
    (tmp_path / "model.json").write_text(json.dumps(model), encoding="utf-8")
    (tmp_path / "experiment.json").write_text(json.dumps(spec), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "load_samples", stop)
    with pytest.raises(Checked):
        main(["compare", "--spec", "experiment.json", "--out", str(tmp_path / "cmp")])
    plan = cli._compare_plan(spec, "experiment.json", tinylm.ModelConfig(**model).n_layers)
    assert [(row["label"], mode.kind) for row, mode, _ in plan] == [
        ("fft", "fft"), ("single-stage", "single-stage"), ("two-stage", "two-stage")]
    assert all((cfg.lr_max, cfg.epochs, cfg.seed) == (1e-3, 1, 33) for _, _, cfg in plan)
