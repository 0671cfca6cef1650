"""Single `forge` entry point: refine, make-synth, train, sweep,
analyze-gradients, eval, and the compare orchestration.

All randomness flows through explicit --seed flags; wall-clock timings
live in sidecar files so primary outputs stay byte-diffable across
reruns. Exit codes: 0 success, 1 domain error, 2 usage error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path


from . import refinery, sensitivity, synth, tinylm, trainer
from .errors import ForgeError, MalformedLine
from .records import ParallelRecord, read_records, write_records
from .scorers import Scorer, open_scorer


def _read_lines(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as f:
        return f.readlines()


def _load_records(path: str) -> list[ParallelRecord]:
    return list(read_records(_read_lines(path)))


def _load_json(path: str) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _global_defaults(args) -> dict:
    if not getattr(args, "config", None):
        return {}
    defaults = _load_json(args.config)
    _check_keys(defaults, ("model", "train", "refinery"), (), "config file")
    return defaults


# ---------------------------------------------------------------------------
# refine

def _open_optional_scorer(spec: str | None) -> Scorer | None:
    return open_scorer(spec) if spec else None


def cmd_refine(args) -> int:
    defaults = _global_defaults(args)
    if args.pipeline_config:
        config = _read_config(refinery.RefineryConfig, _load_json(args.pipeline_config),
                              "refinery config")
    else:
        config = _read_config(refinery.RefineryConfig, defaults.get("refinery", {}),
                              "config 'refinery'")
    if args.strict:
        config.strict = True

    templates = refinery.DEFAULT_TEMPLATES
    if args.templates:
        lines = [l.rstrip("\n") for l in _read_lines(args.templates)]
        templates = tuple(l for l in lines if l)

    langid_scorer = _open_optional_scorer(args.langid_scorer)
    quality_scorer = _open_optional_scorer(args.quality_scorer)
    dev_scorer = _open_optional_scorer(args.dev_scorer)
    dev_records = _load_records(args.dev_set) if args.dev_set else None
    try:
        result = refinery.run_pipeline(
            _read_lines(args.input), config,
            langid_scorer=langid_scorer,
            quality_scorer=quality_scorer,
            dev_records=dev_records,
            dev_scorer=dev_scorer,
            templates=templates,
        )
    finally:
        for scorer in (langid_scorer, quality_scorer, dev_scorer):
            if scorer is not None:
                scorer.close()

    with open(args.output, "w", encoding="utf-8") as f:
        if args.emit == "records":
            write_records(result.records, f)
        else:
            for sample in result.samples:
                f.write(sample.to_json() + "\n")
    report_json = result.report.to_json()
    if args.report:
        Path(args.report).write_text(report_json + "\n", encoding="utf-8")
    else:
        print(report_json)
    return 0


# ---------------------------------------------------------------------------
# make-synth

def cmd_make_synth(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seed = args.seed if args.seed is not None else 0
    if args.task == "translation":
        spec = synth.SynthLangSpec(
            vocab_size=args.vocab_size, perm_seed=args.perm_seed,
            reorder=args.reorder, min_len=args.min_len, max_len=args.max_len)
        train, eval_set = synth.gen_translation_corpus(spec, args.n, seed)
        with open(out / "records.jsonl", "w", encoding="utf-8") as f:
            write_records((synth.sample_to_record(s, spec) for s in train), f)
        meta = {"task": "translation", "n": args.n, "seed": seed,
                "vocab_size": args.vocab_size, "perm_seed": args.perm_seed,
                "reorder": args.reorder}
    else:
        train, eval_set = synth.gen_general_corpus(
            args.n, seed, vocab_size=args.vocab_size,
            max_len=args.gen_max_len, max_step=args.max_step)
        meta = {"task": "general", "n": args.n, "seed": seed,
                "vocab_size": args.vocab_size, "max_len": args.gen_max_len,
                "max_step": args.max_step}
    synth.write_samples(train, out / "train.jsonl")
    synth.write_samples(eval_set.samples, out / "eval.jsonl")
    (out / "meta.json").write_text(json.dumps(meta, indent=2), encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# data loading shared by train / sweep / eval / analyze

def _sniff_samples(path: Path, vocab_size: int) -> list[synth.Sample]:
    with open(path, "r", encoding="utf-8") as f:
        first = ""
        for line in f:
            if line.strip():
                first = line
                break
    if not first:
        return []
    try:
        obj = json.loads(first)
    except json.JSONDecodeError:
        obj = None  # read_samples names the line
    if not isinstance(obj, dict) or "prompt" in obj:
        return synth.read_samples(path, vocab_size)
    if "src" in obj:
        return _record_samples(path, vocab_size)
    raise ForgeError(
        f"{path}: expected token samples or parallel records "
        "(instruction-text output is not trainable; refine with --emit records)")


def _record_samples(path: Path, vocab_size: int) -> list[synth.Sample]:
    """The samples of a parallel-record file; a malformed record, or one
    that record_to_sample rejects, is a ForgeError naming the file and
    line."""
    samples = []
    for number, line in enumerate(_read_lines(str(path)), 1):
        if not line.strip():
            continue
        try:
            samples.append(synth.record_to_sample(next(read_records([line])), vocab_size))
        except MalformedLine as e:
            raise ForgeError(f"{path} line {number}: {e.reason}") from e
        except ValueError as e:
            raise ForgeError(f"{path} line {number}: {e}") from e
    return samples


def load_samples(path: str, vocab_size: int, split: str = "train") -> list[synth.Sample]:
    p = Path(path)
    if p.is_dir():
        p = p / f"{split}.jsonl"
    if not p.exists():
        raise ForgeError(f"no such data file: {p}")
    return _sniff_samples(p, vocab_size)


def _load_model(args) -> tinylm.ModelParams:
    if getattr(args, "checkpoint", None):
        return tinylm.load_checkpoint(args.checkpoint)
    defaults = _global_defaults(args)
    if getattr(args, "model_config", None):
        cfg = tinylm.ModelConfig.from_dict(_load_json(args.model_config), args.model_config)
    elif "model" in defaults:
        cfg = tinylm.ModelConfig.from_dict(defaults["model"], f"{args.config} 'model'")
    else:
        raise ForgeError("need --model-config or --checkpoint")
    return tinylm.init(cfg)


def _train_config(args) -> trainer.TrainConfig:
    """The --config file's train section with the command-line options
    over it; both are checked by TrainConfig, the file's keys first."""
    config = _read_config(trainer.TrainConfig, _global_defaults(args).get("train", {}),
                          "config 'train'")
    options = {name: getattr(args, name, None) for name in (
        "lr_max", "lr_min", "warmup_ratio", "epochs", "batch_size", "grad_accum", "seed")}
    return dataclasses.replace(config, **{k: v for k, v in options.items() if v is not None})


def parse_mode(mode: str, n_layers: int, k: int = 0, m: int = 0, skip=(),
               layer: int | None = None) -> trainer.TrainMode:
    """The one reader of a training mode, for `train --mode` and for
    `compare` rows: two-stage | single-stage (with k, m and skip), fft, or
    single-layer (layer given apart or as single-layer:<l>). Every layer
    index is checked against n_layers here, before any training."""
    if mode.startswith("single-layer:"):
        mode, layer = "single-layer", int(mode.split(":", 1)[1])
    if mode == "single-layer":
        if layer is None:
            raise ForgeError("single-layer needs a layer")
        result = trainer.TrainMode.single_layer(layer)
    elif mode == "fft":
        result = trainer.TrainMode.full_finetune()
    elif mode in ("two-stage", "single-stage"):
        selection = trainer.select_layers(n_layers, k, m, skip)
        result = (trainer.TrainMode.two_stage(selection) if mode == "two-stage"
                  else trainer.TrainMode.single_stage(selection))
    else:
        raise ForgeError(f"unknown mode {mode!r}")
    trainer.stage_plan(result, n_layers)
    return result


# ---------------------------------------------------------------------------
# train

def cmd_train(args) -> int:
    params = _load_model(args)
    config = _train_config(args)
    mode = parse_mode(args.mode, params.config.n_layers, args.k, args.m, args.skip or ())
    samples = load_samples(args.data, params.config.vocab_size)
    batches = synth.make_batches(samples, config.batch_size)

    result = trainer.run(params, batches, mode, config)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "run_log.jsonl", "w", encoding="utf-8") as f:
        for entry in result.log:
            f.write(json.dumps(entry) + "\n")
    (out / "timing.json").write_text(
        json.dumps({"wall_clock_s": result.wall_clock,
                    "finished_at": time.time()}), encoding="utf-8")
    for stage, stage_params in result.stage_params.items():
        tinylm.save_checkpoint(stage_params, out / "checkpoints" / stage)
    tinylm.save_checkpoint(result.params, out / "checkpoints" / "final")
    return 0


# ---------------------------------------------------------------------------
# sweep (its table writer is shared with compare)

def _eval_columns(names) -> list[str]:
    return [f"{name}_{metric}" for name in sorted(names) for metric in ("ce", "em")]


def _eval_cells(results: dict[str, synth.EvalResult]) -> dict:
    cells = {}
    for name, res in results.items():
        cells[f"{name}_ce"] = res.mean_ce
        cells[f"{name}_em"] = res.exact_match
    return cells


def _write_table(path: Path, columns: list[str], rows: list[dict]) -> None:
    """Write rows as CSV with the given columns, and print it. Floats are
    written with repr, so they read back exactly."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c])
                              for c in columns))
    text = "\n".join(lines) + "\n"
    path.write_text(text, encoding="utf-8")
    print(text, end="")


def cmd_sweep(args) -> int:
    params = _load_model(args)
    config = _train_config(args)
    samples = load_samples(args.data, params.config.vocab_size)
    batches = synth.make_batches(samples, config.batch_size)

    eval_sets = {}
    if args.eval_translation:
        eval_sets["translation"] = synth.EvalSet(
            "translation", load_samples(args.eval_translation,
                                        params.config.vocab_size, split="eval"))
    if args.eval_general:
        eval_sets["general"] = synth.EvalSet(
            "general", load_samples(args.eval_general,
                                    params.config.vocab_size, split="eval"))
    if not eval_sets:
        raise ForgeError("sweep needs --eval-translation and/or --eval-general")

    workers = 1 if args.deterministic else max(1, args.threads)
    rows = trainer.single_layer_sweep(params, batches, eval_sets, config,
                                      workers=workers)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_table(out / "sweep.csv", ["layer"] + _eval_columns(eval_sets),
                 [{"layer": row.layer, **_eval_cells(row.results)} for row in rows])
    return 0


# ---------------------------------------------------------------------------
# analyze-gradients

def cmd_analyze(args) -> int:
    for flag, count in (("--batches", args.batches), ("--batch-size", args.batch_size)):
        if count < 1:
            raise ForgeError(f"{flag} must be at least 1, not {count}")
    params = tinylm.load_checkpoint(args.checkpoint)
    samples = load_samples(args.data, params.config.vocab_size)
    batches = synth.make_batches(samples, args.batch_size)[:args.batches]
    if not batches:
        raise ForgeError("probe dataset produced no batches")
    report = sensitivity.layer_gradient_report(
        params, batches, dataset_id=args.data, seed=args.seed or 0,
        accumulate=not args.per_batch)
    csv_text = sensitivity.report_to_csv(report)
    Path(args.out).write_text(csv_text, encoding="utf-8")
    print(sensitivity.ascii_bars(report))
    return 0


# ---------------------------------------------------------------------------
# eval

def cmd_eval(args) -> int:
    params = tinylm.load_checkpoint(args.checkpoint)
    samples = load_samples(args.data, params.config.vocab_size, split="eval")
    eval_set = synth.EvalSet(task_id=args.task_id, samples=samples)
    result = synth.evaluate(params, eval_set)
    text = result.to_json()
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


# ---------------------------------------------------------------------------
# compare

# The keys of an experiment spec (the required ones first), of its
# pretrain block, and of its rows: every row takes the common keys, and
# each mode its own.
SPEC_REQUIRED = ("model_config", "train_data", "eval_sets", "rows")
SPEC_KEYS = SPEC_REQUIRED + ("start_checkpoint", "pretrain", "seed", "out_dir")
PRETRAIN_KEYS = ("data", "config")
ROW_KEYS = ("label", "mode", "train")
MODE_KEYS = {"two-stage": ("k", "m", "skip"), "single-stage": ("k", "m", "skip"),
             "fft": (), "single-layer": ("layer",)}


def _check_keys(obj, allowed, required, what: str) -> None:
    """Reject a spec object that is not a JSON object, misses a required
    key, or has a key nothing reads."""
    if not isinstance(obj, dict):
        raise ForgeError(f"{what} must be an object, not {obj!r}")
    for key in required:
        if key not in obj:
            raise ForgeError(f"missing {what} key {key!r}")
    for key in obj:
        if key not in allowed:
            raise ForgeError(f"unknown {what} key {key!r}")


def _check_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ForgeError(f"{what} must be an integer, not {value!r}")
    return value


def _read_config(cls, obj, what: str):
    """A `cls` config dataclass from a JSON object. Every key must be a
    field, and every value of the kind of the field's default: true or
    false, an integer, a number, or a list of strings for a tuple."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    _check_keys(obj, defaults, (), what)
    values = {}
    for key, value in obj.items():
        default, name = defaults[key], f"{what} {key!r}"
        if isinstance(default, bool):
            if not isinstance(value, bool):
                raise ForgeError(f"{name} must be true or false, not {value!r}")
        elif isinstance(default, int):
            _check_int(value, name)
        elif isinstance(default, tuple):
            if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                raise ForgeError(f"{name} must be a list of strings, not {value!r}")
            value = tuple(value)
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ForgeError(f"{name} must be a number, not {value!r}")
        values[key] = value
    return cls(**values)


def _compare_plan(spec: dict, n_layers: int) -> list[tuple[dict, trainer.TrainMode,
                                                            trainer.TrainConfig]]:
    """Check every row of the spec and the spec's seed, and resolve each
    row's mode and train config, so that a bad row fails before anything
    trains. A row without a train seed of its own takes the spec's."""
    seed = _check_int(spec.get("seed", 0), "spec 'seed'")
    labels = []
    for row in spec["rows"]:
        if not isinstance(row, dict) or not isinstance(row.get("label"), str):
            raise ForgeError(f"every row needs a label: {row!r}")
        labels.append(row["label"])
    if len(set(labels)) != len(labels):
        raise ForgeError("row labels must be unique")
    plan = []
    for row in spec["rows"]:
        try:
            if not isinstance(row.get("mode"), str) or row["mode"] not in MODE_KEYS:
                raise ForgeError(f"unknown mode {row.get('mode')!r}")
            _check_keys(row, ROW_KEYS + MODE_KEYS[row["mode"]], (), "row")
            skip = row.get("skip", [])
            if not isinstance(skip, list):
                raise ForgeError(f"'skip' must be a list, not {skip!r}")
            mode = parse_mode(
                row["mode"], n_layers, _check_int(row.get("k", 0), "'k'"),
                _check_int(row.get("m", 0), "'m'"),
                [_check_int(i, "a 'skip' entry") for i in skip],
                None if "layer" not in row else _check_int(row["layer"], "'layer'"))
            cfg = _read_config(trainer.TrainConfig, row.get("train", {}), "train")
        except (ForgeError, ValueError) as e:
            raise ForgeError(f"row {row['label']!r}: {e}") from e
        if "seed" not in row.get("train", {}):
            cfg.seed = seed
        plan.append((row, mode, cfg))
    return plan


def cmd_compare(args) -> int:
    spec = _load_json(args.spec)
    _check_keys(spec, SPEC_KEYS, SPEC_REQUIRED + (() if args.out else ("out_dir",)), "spec")
    if not isinstance(spec["rows"], list) or not isinstance(spec["eval_sets"], dict):
        raise ForgeError("'rows' must be a list and 'eval_sets' an object")
    paths = [(f"spec {key!r}", spec[key]) for key in ("model_config", "train_data", "out_dir")
             if key in spec]
    if spec.get("start_checkpoint") is not None:
        paths.append(("spec 'start_checkpoint'", spec["start_checkpoint"]))
    paths += [(f"eval set {name!r}", path) for name, path in spec["eval_sets"].items()]
    pre = spec.get("pretrain")
    if pre is not None:
        _check_keys(pre, PRETRAIN_KEYS, ("data",), "pretrain")
        pre_cfg = _read_config(trainer.TrainConfig, pre.get("config", {}), "pretrain config")
        paths.append(("pretrain 'data'", pre["data"]))
    for what, path in paths:
        if not isinstance(path, str):
            raise ForgeError(f"{what} must be a path string, not {path!r}")
    model_config = tinylm.ModelConfig.from_dict(_load_json(spec["model_config"]),
                                                spec["model_config"])
    plan = _compare_plan(spec, model_config.n_layers)

    out = Path(args.out or spec["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    if spec.get("start_checkpoint"):
        start = tinylm.load_checkpoint(spec["start_checkpoint"])
    else:
        start = tinylm.init(model_config)
    if pre is not None:
        pre_samples = load_samples(pre["data"], model_config.vocab_size)
        pre_batches = synth.make_batches(pre_samples, pre_cfg.batch_size)
        start = trainer.run(start, pre_batches, trainer.TrainMode.full_finetune(),
                            pre_cfg).params

    eval_sets = {
        name: synth.EvalSet(name, load_samples(path, model_config.vocab_size,
                                               split="eval"))
        for name, path in spec["eval_sets"].items()
    }
    start_evals = {name: synth.evaluate(start, es) for name, es in eval_sets.items()}

    train_samples = load_samples(spec["train_data"], model_config.vocab_size)

    table = []
    for row, mode, cfg in plan:
        try:
            batches = synth.make_batches(train_samples, cfg.batch_size)
            result = trainer.run(start, batches, mode, cfg)
        except ForgeError as e:
            raise ForgeError(f"row {row['label']!r}: {e}") from e
        entry = {"label": row["label"], "mode": row["mode"], **_eval_cells(
            {name: synth.evaluate(result.params, es) for name, es in eval_sets.items()})}
        if "general" in eval_sets:
            entry["delta_general_ce"] = entry["general_ce"] - start_evals["general"].mean_ce
        table.append(entry)

    start_row = {"label": "start", "mode": "none", **_eval_cells(start_evals)}
    if "general" in eval_sets:
        start_row["delta_general_ce"] = 0.0

    full_table = [start_row] + table
    columns = ["label", "mode"] + _eval_columns(eval_sets)
    if "general" in eval_sets:
        columns.append("delta_general_ce")
    _write_table(out / "compare.csv", columns, full_table)
    (out / "compare.json").write_text(json.dumps(full_table, indent=2),
                                      encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# parser

def _common_flags(top_level: bool) -> argparse.ArgumentParser:
    """The global flags, accepted before or after the subcommand. Only the
    top-level copy has defaults: a subcommand copy that is not given sets
    nothing, so a value given before the subcommand survives."""
    def default(value):
        return value if top_level else argparse.SUPPRESS

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=default(None),
                        help="global random seed")
    common.add_argument("--threads", type=int, default=default(1),
                        help="worker cap for parallel sections")
    common.add_argument("--deterministic", action="store_true", default=default(False),
                        help="force sequential execution everywhere")
    return common


def _training_flags() -> argparse.ArgumentParser:
    """Schedule and batching options of `train` and `sweep`; one left
    unset keeps the --config file's value or the TrainConfig default."""
    training = argparse.ArgumentParser(add_help=False)
    training.add_argument("--epochs", type=int, default=None)
    training.add_argument("--lr-max", type=float, default=None, dest="lr_max")
    training.add_argument("--lr-min", type=float, default=None, dest="lr_min")
    training.add_argument("--warmup-ratio", type=float, default=None, dest="warmup_ratio")
    training.add_argument("--batch-size", type=int, default=None, dest="batch_size")
    training.add_argument("--grad-accum", type=int, default=None, dest="grad_accum")
    return training


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags(top_level=False)
    training = _training_flags()
    parser = argparse.ArgumentParser(prog="forge", parents=[_common_flags(top_level=True)])
    parser.add_argument("--config", default=None,
                        help="JSON file with refinery/train/model defaults "
                             "(goes before the subcommand)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("refine", parents=[common],
                       help="run the six-step corpus refinement pipeline")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--config", dest="pipeline_config", default=None,
                   help="refinery config JSON file")
    p.add_argument("--langid-scorer", default=None, metavar="CMD|FILE")
    p.add_argument("--quality-scorer", default=None, metavar="CMD|FILE")
    p.add_argument("--dev-set", default=None)
    p.add_argument("--dev-scorer", default=None, metavar="CMD|FILE",
                   help="scorer for the dev set (defaults to --quality-scorer)")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--report", default=None)
    p.add_argument("--emit", choices=("instructions", "records"),
                   default="instructions")
    p.add_argument("--templates", default=None,
                   help="file with one instruction template per line")
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("make-synth", parents=[common],
                       help="generate a synthetic task corpus")
    p.add_argument("--task", choices=("translation", "general"), required=True)
    p.add_argument("--n", type=int, default=20000)
    p.add_argument("--out", required=True)
    p.add_argument("--vocab-size", type=int, default=64)
    p.add_argument("--perm-seed", type=int, default=0)
    p.add_argument("--reorder", choices=("identity", "reverse"), default="identity")
    p.add_argument("--min-len", type=int, default=4)
    p.add_argument("--max-len", type=int, default=12)
    p.add_argument("--gen-max-len", type=int, default=8,
                   help="general task: longest response")
    p.add_argument("--max-step", type=int, default=8,
                   help="general task: steps drawn from [0, max-step)")
    p.set_defaults(func=cmd_make_synth)

    p = sub.add_parser("train", parents=[common, training], help="train a model")
    p.add_argument("--mode", required=True,
                   help="two-stage | single-stage | fft | single-layer:<l>")
    p.add_argument("--k", type=int, default=0, help="bottom-k layers (stage 1)")
    p.add_argument("--m", type=int, default=0, help="top-m layers (stage 2)")
    p.add_argument("--skip", type=int, action="append",
                   help="layer index excluded from tuning (repeatable)")
    p.add_argument("--data", required=True)
    p.add_argument("--model-config", default=None)
    p.add_argument("--checkpoint", default=None,
                   help="start from this checkpoint instead of a fresh init")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", parents=[common, training],
                       help="train each layer independently and tabulate")
    p.add_argument("--data", required=True)
    p.add_argument("--model-config", default=None)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--eval-translation", default=None)
    p.add_argument("--eval-general", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("analyze-gradients", parents=[common],
                       help="per-layer nuclear norms of Q/K/V gradients")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--batches", type=int, default=8)
    p.add_argument("--batch-size", type=int, default=16, dest="batch_size")
    p.add_argument("--out", required=True)
    p.add_argument("--per-batch", action="store_true",
                   help="mean of per-batch norms instead of accumulated gradient")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("eval", parents=[common], help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--task-id", default="eval")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", parents=[common],
                       help="train several modes from one start checkpoint")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ForgeError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
