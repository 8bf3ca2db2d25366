"""Command-line entry point: train, detect, evaluate, synth.

train, detect and evaluate share one set of flags. Option precedence is
CLI flag > config file > built-in default. The config file is flat
key=value text with keys matching the long flag names. synth takes only
its own flags and --seed.

Exit codes: 0 success, 2 config/usage error or a file that cannot be
read or written (OSError), 3 data parse error, 4 model error.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
import typing

from . import engine, ingest, metrics, model, synth
from .errors import (
    ConfigError,
    EmptyDataset,
    EmptyModel,
    GaidsError,
    MalformedRecord,
    ModelFormatError,
    NonNumericFeature,
    UnknownLabel,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_MODEL = 4

_GA_FIELDS = dataclasses.fields(engine.GaParams)
_GA_TYPES = typing.get_type_hints(engine.GaParams)

# Built-in defaults for everything a config file may override.
DEFAULTS = {
    **{f.name: f.default for f in _GA_FIELDS},
    "workers": 1,
    "strict": True,
    "report": "table",
    "train_file": None,
    "test_file": None,
    "model": None,
}

_CONFIG_TYPES = {
    **_GA_TYPES,
    "workers": int,
    "strict": "bool",
    "report": str,
    "train_file": str,
    "test_file": str,
    "model": str,
}


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def load_config_file(path: str) -> dict:
    """Flat key=value text; keys match the long flag names."""
    values = {}
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not an ASCII file: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, raw = stripped.partition("=")
        dest = key.strip().replace("-", "_")
        if dest not in _CONFIG_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key.strip()!r}")
        caster = _CONFIG_TYPES[dest]
        raw = raw.strip()
        try:
            if caster == "bool":
                values[dest] = _parse_bool(raw)
            else:
                values[dest] = caster(raw)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value {raw!r} for {key.strip()!r}") from None
    if values.get("report") not in (None, "table", "kv"):
        raise ConfigError(f"report must be 'table' or 'kv', got {values['report']!r}")
    return values


def _merged(args: argparse.Namespace) -> dict:
    values = dict(DEFAULTS)
    if args.config:
        values.update(load_config_file(args.config))
    for dest in DEFAULTS:
        cli_value = getattr(args, dest)
        if cli_value is not None:
            values[dest] = cli_value
    return values


def _ga_params(values: dict) -> engine.GaParams:
    try:
        return engine.GaParams(**{f.name: values[f.name] for f in _GA_FIELDS})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _workers(values: dict) -> int:
    if values["workers"] < 1:
        raise ConfigError(f"workers must be >= 1, got {values['workers']}")
    return values["workers"]


def _require_file(path, what: str) -> str:
    if not path:
        raise ConfigError(f"missing required {what}")
    if not os.path.isfile(path):
        raise ConfigError(f"{what} not found: {path}")
    return path


def cmd_train(args: argparse.Namespace) -> int:
    values = _merged(args)
    params = _ga_params(values)
    path = _require_file(values["train_file"], "--train-file")
    records, skipped = ingest.load_file(path, strict=values["strict"])
    if not records:
        raise EmptyDataset(f"no usable records in {path}")
    out_path = args.model_out or values["model"]
    if not out_path:
        raise ConfigError("missing model output path (--model or --model-out)")
    stats = ingest.fit_normalization(records)
    trained = model.precalculate(records, params.range, stats)
    model.save_model(trained, out_path)

    summary = ingest.summarize(records)
    print(summary.to_kv())
    if skipped:
        print(f"skipped={skipped}")
    groups = trained.groups
    print(f"groups={len(groups)}")
    print(f"chromosomes={trained.num_chromosomes()}")
    for group in groups:
        members = sum(c.member_count for c in group.chromosomes)
        print(f"group,{group.label},{group.category},{len(group.chromosomes)},{members}")
    return EXIT_OK


def cmd_detect(args: argparse.Namespace) -> int:
    values = _merged(args)
    params = _ga_params(values)
    workers = _workers(values)
    trained = model.load_model(_require_file(values["model"], "--model"))
    path = _require_file(values["test_file"], "--test-file")
    records, skipped = ingest.load_file(
        path, strict=values["strict"], require_label=False
    )
    predictions = engine.run_batch(records, trained, params, workers=workers)
    for i, p in enumerate(predictions):
        print(f"{i},{p.attack_name},{p.category},{p.survivor_fitness!r},{p.generations_run}")
    if skipped:
        print(f"skipped={skipped}", file=sys.stderr)
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    values = _merged(args)
    params = _ga_params(values)
    workers = _workers(values)
    trained = model.load_model(_require_file(values["model"], "--model"))
    path = _require_file(values["test_file"], "--test-file")
    records, skipped = ingest.load_file(path, strict=values["strict"])
    predictions = engine.run_batch(records, trained, params, workers=workers)
    matrix = metrics.ConfusionMatrix.from_pairs(
        (actual, pred.category) for actual, pred in zip(records.categories, predictions)
    )
    if values["report"] == "kv":
        print(metrics.format_kv_report(matrix))
    else:
        print(metrics.format_table_report(matrix))
    if skipped:
        print(f"skipped={skipped}", file=sys.stderr)
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    try:
        lines = synth.generate_lines(
            clusters=args.clusters,
            points_per_cluster=args.points_per_cluster,
            separation=args.separation,
            noise_sigma=args.noise_sigma,
            seed=args.seed,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    with open(args.output, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} records to {args.output}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaids",
        description="Batch network-intrusion classifier over KDD99-style records.",
    )

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    for f in _GA_FIELDS:
        flag = "--" + f.name.replace("_", "-")
        common.add_argument(flag, dest=f.name, type=_GA_TYPES[f.name], default=None)
    common.add_argument("--workers", type=int, default=None)
    common.add_argument("--strict", dest="strict", action="store_true", default=None)
    common.add_argument("--lenient", dest="strict", action="store_false", default=None)
    common.add_argument("--report", choices=("table", "kv"), default=None)
    common.add_argument("--train-file", dest="train_file", default=None)
    common.add_argument("--test-file", dest="test_file", default=None)
    common.add_argument("--model", default=None)

    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", parents=[common], help="fit and persist a model")
    p_train.add_argument("--model-out", dest="model_out", default=None,
                         help="output model path (defaults to --model)")
    p_train.set_defaults(func=cmd_train)

    p_detect = sub.add_parser("detect", parents=[common], help="classify records")
    p_detect.set_defaults(func=cmd_detect)

    p_eval = sub.add_parser("evaluate", parents=[common], help="full test-set run")
    p_eval.set_defaults(func=cmd_evaluate)

    p_synth = sub.add_parser("synth", help="generate synthetic data")
    p_synth.add_argument("--seed", type=int, default=DEFAULTS["seed"])
    p_synth.add_argument("--clusters", type=int, default=5)
    p_synth.add_argument("--points-per-cluster", dest="points_per_cluster", type=int, default=100)
    p_synth.add_argument("--separation", type=float, default=0.5)
    p_synth.add_argument("--noise-sigma", dest="noise_sigma", type=float, default=0.03)
    p_synth.add_argument("--output", required=True)
    p_synth.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (MalformedRecord, NonNumericFeature, UnknownLabel, EmptyDataset) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ModelFormatError, EmptyModel) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except BrokenPipeError:
        raise  # handled quietly by run()
    except (GaidsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def run() -> None:
    try:
        code = main()
    except BrokenPipeError:
        # Downstream consumer (e.g. head) closed the pipe; suppress the
        # shutdown-flush traceback and end quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_OK
    sys.exit(code)
