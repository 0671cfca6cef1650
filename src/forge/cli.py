"""Single `forge` entry point: refine, make-synth, train, sweep,
analyze-gradients, eval, and the compare orchestration.

All randomness flows through explicit --seed flags; wall-clock timings
live in sidecar files so primary outputs stay byte-diffable across
reruns. Exit codes: 0 success, 1 domain error, 2 usage error.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import sys
import time
from pathlib import Path


from . import refinery, sensitivity, synth, tinylm, trainer
from .errors import ForgeError, MalformedLine
from .records import (NOT_UTF8, ParallelRecord, check_range, read_config, read_json, read_lines,
                      read_object, read_records, write_records)
from .scorers import open_scorer


def _load_records(path: str) -> list[ParallelRecord]:
    try:
        return list(read_records(read_lines(path)))
    except ForgeError as e:
        raise ForgeError(f"{path}: {e}") from e


def _config_file(cls, path: str | None, what: str):
    """The `cls` config that the JSON file at path holds, checked, or
    None without a path; a fault names the file."""
    return read_config(cls, read_json(path), what, path) if path else None


# The flags of `train` and `sweep` that set TrainConfig fields, by dest
TRAIN_FLAGS = ("lr_max", "lr_min", "warmup_ratio", "epochs", "batch_size", "grad_accum", "seed")
# The range of every numeric flag but --k, --m and --skip, which
# trainer.read_mode checks, by argparse dest: a flag that sets a config
# field has its range
FLAG_RANGES = {
    **{dest: trainer.TrainConfig.RANGES[dest] for dest in TRAIN_FLAGS},
    **synth.SynthLangSpec.RANGES,
    "n": "[2, inf)",
    **dict.fromkeys(("gen_max_len", "max_step", "threads", "batches"), "[1, inf)")}


# ---------------------------------------------------------------------------
# refine

def cmd_refine(args) -> int:
    config = (_config_file(refinery.RefineryConfig, args.config, "refinery config")
              or refinery.RefineryConfig())
    if args.strict:
        config.strict = True

    templates = refinery.DEFAULT_TEMPLATES
    if args.templates:
        lines = read_lines(args.templates)
        if NOT_UTF8 in lines:
            raise ForgeError(f"{args.templates} line {lines.index(NOT_UTF8) + 1}: "
                             "not UTF-8")
        templates = tuple(l.rstrip("\n") for l in lines if l.rstrip("\n"))

    dev_records = _load_records(args.dev_set) if args.dev_set else None
    with contextlib.ExitStack() as scorers:
        langid_scorer, quality_scorer, dev_scorer = (
            scorers.enter_context(open_scorer(spec)) if spec else None
            for spec in (args.langid_scorer, args.quality_scorer, args.dev_scorer))
        try:
            result = refinery.run_pipeline(
                read_lines(args.input), config,
                langid_scorer=langid_scorer,
                quality_scorer=quality_scorer,
                dev_records=dev_records,
                dev_scorer=dev_scorer,
                templates=templates,
            )
        except MalformedLine as e:
            raise ForgeError(f"{args.input}: {e}") from e

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
    if args.task == "translation":
        spec = synth.SynthLangSpec(
            vocab_size=args.vocab_size, perm_seed=args.perm_seed,
            reorder=args.reorder, min_len=args.min_len, max_len=args.max_len)
        train, eval_set = synth.gen_translation_corpus(spec, args.n, args.seed)
        with open(out / "records.jsonl", "w", encoding="utf-8") as f:
            write_records((synth.sample_to_record(s, spec) for s in train), f)
        meta = {"task": "translation", "n": args.n, "seed": args.seed,
                "vocab_size": args.vocab_size, "perm_seed": args.perm_seed,
                "reorder": args.reorder}
    else:
        train, eval_set = synth.gen_general_corpus(
            args.n, args.seed, vocab_size=args.vocab_size,
            max_len=args.gen_max_len, max_step=args.max_step)
        meta = {"task": "general", "n": args.n, "seed": args.seed,
                "vocab_size": args.vocab_size, "max_len": args.gen_max_len,
                "max_step": args.max_step}
    synth.write_samples(train, out / "train.jsonl")
    synth.write_samples(eval_set.samples, out / "eval.jsonl")
    (out / "meta.json").write_text(json.dumps(meta, indent=2), encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# data loading shared by train / sweep / eval / analyze

def load_samples(path: str, model: tinylm.ModelConfig, split: str = "train"
                 ) -> list[synth.Sample]:
    """The samples of a data file, or of the `split` file of a data
    directory, as synth.read_samples reads them for the model. A file
    with no samples is a ForgeError naming it."""
    p = Path(path)
    if p.is_dir():
        p = p / f"{split}.jsonl"
    if not p.exists():
        raise ForgeError(f"no such data file: {p}")
    samples = synth.read_samples(p, model.vocab_size, model.max_seq_len)
    if not samples:
        raise ForgeError(f"{p}: holds no samples")
    return samples


def _eval_sets(paths: dict[str, str], model: tinylm.ModelConfig) -> dict[str, synth.EvalSet]:
    """One EvalSet per named data file (the "eval" split of a directory)."""
    return {name: synth.EvalSet(name, load_samples(path, model, split="eval"))
            for name, path in paths.items()}


def _start_model(config: tinylm.ModelConfig | None, source: str | None,
                 checkpoint: str | None) -> tinylm.ModelParams:
    """The model of the checkpoint, else a fresh one of config. A config
    read from source beside a checkpoint must be the checkpoint's own."""
    if not checkpoint:
        if config is None:
            raise ForgeError("need --model-config or --checkpoint")
        return tinylm.init(config)
    params = tinylm.load_checkpoint(checkpoint)
    if config is not None and config != params.config:
        raise ForgeError(f"{source}: model config differs from checkpoint {checkpoint}'s "
                         f"{params.config}")
    return params


def _load_model(args) -> tinylm.ModelParams:
    cfg = _config_file(tinylm.ModelConfig, args.model_config, "model config")
    return _start_model(cfg, args.model_config, args.checkpoint)


def _train_config(args) -> trainer.TrainConfig:
    """The --config file's TrainConfig with the training flags given over
    it; both are checked by TrainConfig, the file's keys first."""
    config = (_config_file(trainer.TrainConfig, args.config, "train config")
              or trainer.TrainConfig())
    options = {name: getattr(args, name) for name in TRAIN_FLAGS}
    return dataclasses.replace(config, **{k: v for k, v in options.items() if v is not None})


# ---------------------------------------------------------------------------
# train

def cmd_train(args) -> int:
    config = _train_config(args)
    params = _load_model(args)
    # the mode object of --mode and of the --k, --m and --skip given; the
    # <l> of single-layer:<l> is left to trainer.read_mode to refuse if not
    # an integer
    flags = {key: getattr(args, key) for key in ("mode", "k", "m", "skip")
             if getattr(args, key) is not None}
    if args.mode.startswith("single-layer:"):
        flags["mode"], flags["layer"] = "single-layer", args.mode.split(":", 1)[1]
        with contextlib.suppress(ValueError):
            flags["layer"] = int(flags["layer"])
    mode = trainer.read_mode(flags, params.config.n_layers, f"--mode {args.mode}")
    samples = load_samples(args.data, params.config)
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
    config = _train_config(args)
    params = _load_model(args)
    samples = load_samples(args.data, params.config)
    batches = synth.make_batches(samples, config.batch_size)

    eval_sets = _eval_sets({name: path for name, path in (
        ("translation", args.eval_translation), ("general", args.eval_general)) if path},
        params.config)
    if not eval_sets:
        raise ForgeError("sweep needs --eval-translation and/or --eval-general")

    rows = trainer.single_layer_sweep(params, batches, eval_sets, config,
                                      workers=args.threads)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_table(out / "sweep.csv", ["layer"] + _eval_columns(eval_sets),
                 [{"layer": row.layer, **_eval_cells(row.results)} for row in rows])
    return 0


# ---------------------------------------------------------------------------
# analyze-gradients

def cmd_analyze(args) -> int:
    params = tinylm.load_checkpoint(args.checkpoint)
    samples = load_samples(args.data, params.config)
    batches = synth.make_batches(samples, args.batch_size)[:args.batches]
    report = sensitivity.layer_gradient_report(
        params, batches, dataset_id=args.data, seed=args.seed,
        accumulate=not args.per_batch)
    csv_text = sensitivity.report_to_csv(report)
    Path(args.out).write_text(csv_text, encoding="utf-8")
    print(sensitivity.ascii_bars(report))
    return 0


# ---------------------------------------------------------------------------
# eval

def cmd_eval(args) -> int:
    params = tinylm.load_checkpoint(args.checkpoint)
    samples = load_samples(args.data, params.config, split="eval")
    eval_set = synth.EvalSet(task_id=args.task_id, samples=samples)
    result = synth.evaluate(params, eval_set)
    text = result.to_json()
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


# ---------------------------------------------------------------------------
# compare

# The kinds of the values of an experiment spec and of its pretrain
# block. A value of kind object is checked where it is read.
SPEC_REQUIRED = ("model_config", "train_data", "eval_sets", "rows")
SPEC_KINDS = {"model_config": str, "train_data": str, "eval_sets": dict, "rows": list,
              "start_checkpoint": str | None, "pretrain": dict | None, "seed": int,
              "out_dir": str}
PRETRAIN_KINDS = {"data": str, "config": object}


def _compare_plan(spec: dict, source: str, n_layers: int
                  ) -> list[tuple[dict, trainer.TrainMode, trainer.TrainConfig]]:
    """Check every row of the spec read from source, and resolve each
    row's mode and train config, so that a bad row fails before anything
    trains. A row is a unique label, an optional train object and a mode
    object; a row without a train seed of its own takes the spec's."""
    plan = []
    for row in spec["rows"]:
        if not isinstance(row, dict) or not isinstance(row.get("label"), str):
            raise ForgeError(f"every row needs a label: {row!r}")
        if any(row["label"] == planned["label"] for planned, _, _ in plan):
            raise ForgeError("row labels must be unique")
        where = f"row {row['label']!r}"
        mode = trainer.read_mode({k: v for k, v in row.items() if k not in ("label", "train")},
                                 n_layers, where)
        cfg = read_config(trainer.TrainConfig, row.get("train", {}), "train",
                          f"{source} {where}")
        if "seed" not in row.get("train", {}):
            cfg = dataclasses.replace(cfg, seed=spec.get("seed", 0))
        plan.append((row, mode, cfg))
    return plan


def _compare_row(start: tinylm.ModelParams, train_samples: list[synth.Sample],
                 eval_sets: dict[str, synth.EvalSet], mode: trainer.TrainMode,
                 cfg: trainer.TrainConfig) -> dict:
    batches = synth.make_batches(train_samples, cfg.batch_size)
    result = trainer.run(start, batches, mode, cfg)
    return _eval_cells({name: synth.evaluate(result.params, es)
                        for name, es in eval_sets.items()})


def cmd_compare(args) -> int:
    spec = read_object(read_json(args.spec), SPEC_KINDS, "spec",
                       SPEC_REQUIRED + (() if args.out else ("out_dir",)))
    check_range(f"{args.spec} 'seed'", spec.get("seed", 0), trainer.TrainConfig.RANGES["seed"])
    read_object(spec["eval_sets"], {...: str}, "eval set")
    pre = spec.get("pretrain")
    if pre is not None:
        read_object(pre, PRETRAIN_KINDS, "pretrain", ("data",))
        pre_cfg = read_config(trainer.TrainConfig, pre.get("config", {}), "pretrain config",
                              f"{args.spec} 'pretrain'")
    model_config = read_config(tinylm.ModelConfig, read_json(spec["model_config"]),
                               "model config", spec["model_config"])
    start = _start_model(model_config, spec["model_config"], spec.get("start_checkpoint"))
    plan = _compare_plan(spec, args.spec, model_config.n_layers)

    out = Path(args.out or spec["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    if pre is not None:
        pre_samples = load_samples(pre["data"], model_config)
        pre_batches = synth.make_batches(pre_samples, pre_cfg.batch_size)
        start = trainer.run(start, pre_batches, trainer.TrainMode.full_finetune(),
                            pre_cfg).params

    eval_sets = _eval_sets(spec["eval_sets"], model_config)
    start_evals = {name: synth.evaluate(start, es) for name, es in eval_sets.items()}

    train_samples = load_samples(spec["train_data"], model_config)

    cells = trainer.run_rows(
        functools.partial(_compare_row, start, train_samples, eval_sets),
        ((repr(row["label"]), (mode, cfg)) for row, mode, cfg in plan), args.threads)
    table = [{"label": "start", "mode": "none", **_eval_cells(start_evals)}]
    table += [{"label": row["label"], "mode": row["mode"], **row_cells}
              for (row, _, _), row_cells in zip(plan, cells)]
    columns = ["label", "mode"] + _eval_columns(eval_sets)
    if "general" in eval_sets:
        columns.append("delta_general_ce")
        for entry in table:
            entry["delta_general_ce"] = entry["general_ce"] - start_evals["general"].mean_ce
    _write_table(out / "compare.csv", columns, table)
    (out / "compare.json").write_text(json.dumps(table, indent=2), encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# parser

def _training_flags() -> argparse.ArgumentParser:
    """The TrainConfig options of `train` and `sweep`: a file holding a
    TrainConfig object, and flags over its keys. A flag left unset keeps
    the file's value or the TrainConfig default."""
    training = argparse.ArgumentParser(add_help=False)
    training.add_argument("--config", default=None, help="TrainConfig JSON file")
    training.add_argument("--seed", type=int, default=None)
    training.add_argument("--epochs", type=int, default=None)
    training.add_argument("--lr-max", type=float, default=None, dest="lr_max")
    training.add_argument("--lr-min", type=float, default=None, dest="lr_min")
    training.add_argument("--warmup-ratio", type=float, default=None, dest="warmup_ratio")
    training.add_argument("--batch-size", type=int, default=None, dest="batch_size")
    training.add_argument("--grad-accum", type=int, default=None, dest="grad_accum")
    return training


def build_parser() -> argparse.ArgumentParser:
    training = _training_flags()
    parser = argparse.ArgumentParser(prog="forge")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("refine", help="run the six-step corpus refinement pipeline")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--config", default=None, help="RefineryConfig JSON file")
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

    p = sub.add_parser("make-synth", help="generate a synthetic task corpus")
    p.add_argument("--task", choices=("translation", "general"), required=True)
    p.add_argument("--n", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
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

    p = sub.add_parser("train", parents=[training], help="train a model")
    p.add_argument("--mode", required=True,
                   help="two-stage | single-stage | fft | single-layer:<l>")
    p.add_argument("--k", type=int, default=None, help="bottom-k layers (stage 1)")
    p.add_argument("--m", type=int, default=None, help="top-m layers (stage 2)")
    p.add_argument("--skip", type=int, action="append",
                   help="layer index excluded from tuning (repeatable)")
    p.add_argument("--data", required=True)
    p.add_argument("--model-config", default=None)
    p.add_argument("--checkpoint", default=None,
                   help="start from this checkpoint instead of a fresh init")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", parents=[training],
                       help="train each layer independently and tabulate")
    p.add_argument("--threads", type=int, default=1, help="processes for the rows")
    p.add_argument("--data", required=True)
    p.add_argument("--model-config", default=None)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--eval-translation", default=None)
    p.add_argument("--eval-general", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("analyze-gradients", help="per-layer nuclear norms of Q/K/V gradients")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--batches", type=int, default=8)
    p.add_argument("--batch-size", type=int, default=16, dest="batch_size")
    p.add_argument("--out", required=True)
    p.add_argument("--per-batch", action="store_true",
                   help="mean of per-batch norms instead of accumulated gradient")
    p.add_argument("--seed", type=int, default=0, help="recorded in the report")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--task-id", default="eval")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="train several modes from one start checkpoint")
    p.add_argument("--spec", required=True)
    p.add_argument("--threads", type=int, default=1, help="processes for the rows")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for dest, interval in FLAG_RANGES.items():
            if getattr(args, dest, None) is not None:
                check_range("--" + dest.replace("_", "-"), getattr(args, dest), interval)
        return args.func(args)
    except (ForgeError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
