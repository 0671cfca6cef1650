"""The range of every number a command is told: each config field and
numeric flag has one, every boundary refuses a value outside it by name
before any data loads, and README's table lists them all."""
import argparse
import dataclasses
import json
import math
from pathlib import Path
from typing import get_type_hints

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from forge import cli, refinery, synth, tinylm, trainer
from forge.cli import build_parser, main
from forge.records import check_range, read_config

# The configs with a RANGES table, by the name README's table gives them
CONFIGS = {"model": tinylm.ModelConfig, "train": trainer.TrainConfig,
           "refinery": refinery.RefineryConfig, "make-synth": synth.SynthLangSpec}
MODEL = {"n_layers": 4, "d_model": 32, "n_heads": 4, "d_ff": 64, "vocab_size": 64,
         "max_seq_len": 32}


def _numeric_actions():
    """(subcommand or None, action) for every int or float option."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command, p in [(None, parser), *sub.choices.items()]:
        for action in p._actions:
            if action.type in (int, float):
                yield command, action


def _kind(cls, name):
    return get_type_hints(cls)[name]


@pytest.mark.parametrize("cls", CONFIGS.values(), ids=CONFIGS)
def test_every_numeric_config_field_has_a_range(cls):
    numeric = {f.name for f in dataclasses.fields(cls) if _kind(cls, f.name) in (int, float)}
    assert set(cls.RANGES) == numeric


def test_every_numeric_flag_has_a_range():
    actions = list(_numeric_actions())
    # --k, --m and --skip are keys of a mode, which read_mode checks
    assert {action.dest for _, action in actions} - {"k", "m", "skip"} == set(cli.FLAG_RANGES)
    for _, action in actions:
        assert "--" + action.dest.replace("_", "-") in action.option_strings, action
    for dest in cli.TRAIN_FLAGS:
        assert cli.FLAG_RANGES[dest] == trainer.TrainConfig.RANGES[dest], dest
    for dest in ("vocab_size", "perm_seed", "min_len", "max_len"):
        assert cli.FLAG_RANGES[dest] == synth.SynthLangSpec.RANGES[dest], dest


# ---------------------------------------------------------------------------
# the boundary fuzzer

# Each subcommand with what it requires. No file named here is read: a
# value the fuzzer draws is refused first.
COMMANDS = {
    "refine": ["refine", "--input", "in.jsonl", "--output", "out.jsonl"],
    "make-synth": ["make-synth", "--task", "general", "--out", "synth"],
    "train": ["train", "--mode", "fft", "--data", "d", "--model-config", "m.json",
              "--out", "run"],
    "sweep": ["sweep", "--data", "d", "--model-config", "m.json", "--out", "run"],
    "analyze-gradients": ["analyze-gradients", "--checkpoint", "c", "--data", "d",
                          "--out", "g.csv"],
    "eval": ["eval", "--checkpoint", "c", "--data", "d"],
    "compare": ["compare", "--spec", "spec.json"],
}
# One entry per RANGES entry and per flag with a range of its own
ENTRIES = [(where, name) for where, cls in CONFIGS.items() for name in cls.RANGES] + \
    [("flag", dest) for dest in cli.FLAG_RANGES if not any(
        dest in CONFIGS[where].RANGES for where in ("train", "make-synth"))]


def _interval(where, name):
    return cli.FLAG_RANGES[name] if where == "flag" else CONFIGS[where].RANGES[name]


def _entry_kind(where, name):
    return int if where == "flag" else _kind(CONFIGS[where], name)


def _boundaries(where, name):
    """The ways a value reaches the setting, as (how, subcommand): a flag
    of each subcommand that has it, a config file or a spec key."""
    ways = []
    if where in ("flag", "make-synth") or where == "train" and name in cli.TRAIN_FLAGS:
        ways = [("flag", command) for command, action in _numeric_actions()
                if command and action.dest == name]
    ways += {"model": [("--model-config", "train"), ("spec model_config", "compare")],
             "train": [("train --config", "train"), ("spec row", "compare"),
                       ("spec pretrain", "compare")] + (
                 [("spec seed", "compare")] if name == "seed" else []),
             "refinery": [("refine --config", "refine")]}.get(where, [])
    return ways


def _outside(interval, kind, json_value):
    """Values outside interval: just outside each end, the open ends,
    NaN, ±inf and 10**400, and further out; for JSON also wrong kinds."""
    low, high = (float(bound) for bound in interval[1:-1].split(","))
    closed_low, closed_high = interval[0] == "[", interval[-1] == "]"
    if kind is int:
        below, above = int(low) - closed_low, high if math.isinf(high) else int(high) + closed_high
        further = [st.integers(max_value=below)] + (
            [] if math.isinf(above) else [st.integers(min_value=above)])
    else:
        below = math.nextafter(low, -math.inf) if closed_low else low
        above = math.nextafter(high, math.inf) if closed_high else high
        further = [st.floats(max_value=below, allow_nan=False)] + (
            [] if math.isinf(above) else [st.floats(min_value=above, allow_nan=False)])
    specials = [below, 10**400] + ([] if math.isinf(above) else [above])
    if kind is float or json_value:
        specials += [math.nan, math.inf, -math.inf]
    strategies = [st.sampled_from(specials)] + further
    if json_value:
        wrong = ["1", True, None, [1], {"a": 1}] + ([1.5] if kind is int else [])
        strategies.append(st.sampled_from(wrong))
    return st.one_of(strategies)


def _write(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def _run(tmp, where, name, way, value):
    """The argv that gives value to the setting by way, the name the
    error must give the setting, and the value as the program reads it."""
    how, command = way
    if how == "flag":
        flag = "--" + name.replace("_", "-")
        text = repr(value) if isinstance(value, float) else str(value)
        return COMMANDS[command] + [f"{flag}={text}"], flag, _entry_kind(where, name)(text)
    obj = {**MODEL, name: value} if where == "model" else {name: value}
    model = _write(tmp / "model.json",
                   obj if how in ("--model-config", "spec model_config") else MODEL)
    spec_path = tmp / "spec.json"
    spec = {"model_config": str(model), "train_data": "d", "eval_sets": {},
            "rows": [{"label": "x", "mode": "fft"}], "out_dir": str(tmp / "cmp")}
    if how == "train --config":
        path = _write(tmp / "config.json", obj)
        return COMMANDS["train"] + ["--config", str(path)], f"{path}: {name}", value
    if how == "refine --config":
        path = _write(tmp / "rc.json", obj)
        return COMMANDS["refine"] + ["--config", str(path)], f"{path}: {name}", value
    if how == "--model-config":
        argv = ["train", "--mode", "fft", "--data", "d", "--model-config", str(model),
                "--out", "run"]
        return argv, f"{model}: {name}", value
    named = {"spec model_config": f"{model}: {name}",
             "spec row": f"{spec_path} row 'x': {name}",
             "spec pretrain": f"{spec_path} 'pretrain': {name}",
             "spec seed": f"{spec_path} '{name}'"}[how]
    if how == "spec row":
        spec["rows"][0]["train"] = obj
    elif how == "spec pretrain":
        spec["pretrain"] = {"data": "d", "config": obj}
    elif how == "spec seed":
        spec["seed"] = value
    _write(spec_path, spec)
    return ["compare", "--spec", str(spec_path)], named, value


@pytest.fixture
def no_data(monkeypatch, tmp_path):
    def load(*args, **kwargs):
        raise AssertionError("loaded data with a value out of range")
    monkeypatch.setattr(cli, "load_samples", load)
    monkeypatch.setattr(trainer, "run", load)
    monkeypatch.setattr(synth, "gen_general_corpus", load)
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("where, name", ENTRIES, ids=[f"{w}-{n}" for w, n in ENTRIES])
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_value_out_of_range_exits_1_naming_the_setting(
        tmp_path, capsys, no_data, where, name, data):
    way = data.draw(st.sampled_from(_boundaries(where, name)), label="boundary")
    kind = _entry_kind(where, name)
    value = data.draw(_outside(_interval(where, name), kind, way[0] != "flag"), label="value")
    argv, named, parsed = _run(tmp_path, where, name, way, value)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    if not isinstance(value, bool) and isinstance(value, kind | int):
        assert err == f"error: {named} must be in {_interval(where, name)}, not {parsed!r}\n"
    else:  # a value of the wrong kind
        assert f"'{name}' must be " in err, err


# The values the other fields must take for each closed end to build its
# config: a d_model of 1 needs one head, an lr_max of 0 an lr_min of 0,
# and a max_len of 1 a min_len of 1
PAIRED = {"d_model": {"n_heads": 1}, "lr_max": {"lr_min": 0.0}, "max_len": {"min_len": 1}}


def _closed_ends(interval, kind):
    low, high = (kind(float(bound)) if math.isfinite(float(bound)) else None
                 for bound in interval[1:-1].split(","))
    return [end for end, closed in ((low, interval[0] == "["), (high, interval[-1] == "]"))
            if closed]


class Ran(Exception):
    pass


@pytest.mark.parametrize("where, name, end", [
    (where, name, end) for where, name in ENTRIES
    for end in _closed_ends(_interval(where, name), _entry_kind(where, name))])
def test_a_closed_end_is_accepted(tmp_path, monkeypatch, no_data, where, name, end):
    if where != "flag":
        obj = {**(MODEL if where == "model" else {}), **PAIRED.get(name, {}), name: end}
        assert getattr(read_config(CONFIGS[where], obj, where, "test"), name) == end

    def ran(args):
        raise Ran
    for command in ("refine", "make_synth", "train", "sweep", "analyze", "eval", "compare"):
        monkeypatch.setattr(cli, f"cmd_{command}", ran)
    for way in (way for way in _boundaries(where, name) if way[0] == "flag"):
        # the flag check passes it, and main goes on to run the command
        argv, _, _ = _run(tmp_path, where, name, way, end)
        with pytest.raises(Ran):
            main(argv)


def test_check_range_reads_every_form_of_interval():
    for value, interval in [(1, "[1, inf)"), (1.0, "(0, 1]"), (0, "[0, 1)"), (64, "[64, 64]"),
                            (10**300, "[0, inf)"), (-2.5, "[-3, -2]")]:
        check_range("x", value, interval)
    for value, interval in [(0, "(0, 1]"), (1, "[0, 1)"), (math.inf, "[0, inf)"),
                            (-math.inf, "(-inf, 0]"), (math.nan, "(-inf, inf)"),
                            (10**400, "[0, inf)"), (-(10**400), "(-inf, inf)"), (63, "[64, 64]")]:
        with pytest.raises(ValueError) as err:
            check_range("x", value, interval)
        assert str(err.value) == f"x must be in {interval}, not {value!r}"


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_lists_every_range():
    # README's table of ranges: config, key, flag and range on each row
    text = README.read_text(encoding="utf-8")
    table = text[text.index("| config | key | flag | range |"):].split("\n\n")[0]
    rows = [[cell.strip().strip("`") for cell in line.strip("|").split("|")]
            for line in table.splitlines()[2:]]
    assert {(where, key): interval for where, key, _, interval in rows if key} == {
        (where, name): _interval(where, name) for where, name in ENTRIES if where != "flag"}
    assert {flag: interval for _, _, flag, interval in rows if flag} == {
        "--" + dest.replace("_", "-"): interval for dest, interval in cli.FLAG_RANGES.items()}
