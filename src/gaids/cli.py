"""Command-line entry point: train, detect, evaluate, synth.

train, detect and evaluate share the settings of one table, SETTINGS. Each
is a --name flag (strict is the --strict/--lenient pair) and a key of the
flat key=value config file. Precedence is CLI flag > config file >
built-in default. synth takes only its own flags and --seed.

Exit codes: 0 success, 2 config/usage error, a file that cannot be read
or written (OSError, standard output included), settings whose arrays do
not fit in memory (MemoryError) or a worker process that ended without its
results (ChildProcessError), 3 data parse error, 4 model error (a
GaidsError's exit_code). A closed output pipe ends the run quietly with 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import typing
from collections import Counter

# gaids's parallelism is its own processes (--workers, gaids.parallel), so
# numpy's OpenBLAS runs one thread unless the environment says otherwise.
# Set before numpy loads, which reads it once. Its extra thread costs CPU
# time, not wall time, on the detection screen's matmul, and in a process
# that ends with os._exit (run) it left `gaids evaluate`'s wall time twice
# as spread from run to run on a 2-vCPU VM.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import engine, ingest, model  # noqa: E402
from .errors import ConfigError, EmptyDataset, GaidsError  # noqa: E402

EXIT_OK = 0
EXIT_CONFIG = 2

_GA_FIELDS = dataclasses.fields(engine.GaParams)
_GA_TYPES = typing.get_type_hints(engine.GaParams)


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(text)


def _one_of(*names: str):
    """Reader of a setting that takes one of names; --help lists them."""

    def choice(text: str) -> str:
        if text not in names:
            raise ValueError(text)
        return text

    choice.choices = names
    return choice


# The GaParams fields and six run settings: name -> (built-in default,
# reader of the setting's text, for its flag and its config key).
SETTINGS = {
    **{f.name: (f.default, _GA_TYPES[f.name]) for f in _GA_FIELDS},
    "workers": (1, int),
    "strict": (True, _parse_bool),
    "report": ("table", _one_of("table", "kv")),
    "train_file": (None, str),
    "test_file": (None, str),
    "model": (None, str),
}


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
        if dest not in SETTINGS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key.strip()!r}")
        raw = raw.strip()
        try:
            values[dest] = SETTINGS[dest][1](raw)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value {raw!r} for {key.strip()!r}") from None
    return values


def _settings(args: argparse.Namespace) -> tuple[dict, engine.GaParams]:
    """The merged and checked settings of train, detect or evaluate, and
    their GaParams."""
    values = {name: default for name, (default, _) in SETTINGS.items()}
    if args.config:
        values.update(load_config_file(args.config))
    for dest in SETTINGS:
        cli_value = getattr(args, dest)
        if cli_value is not None:
            values[dest] = cli_value
    if values["workers"] < 1:
        raise ConfigError(f"workers must be >= 1, got {values['workers']}")
    try:
        return values, engine.GaParams(**{f.name: values[f.name] for f in _GA_FIELDS})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _require_file(path, what: str) -> str:
    if not path:
        raise ConfigError(f"missing required {what}")
    if not os.path.isfile(path):
        raise ConfigError(f"{what} not found: {path}")
    return path


def cmd_train(args: argparse.Namespace) -> int:
    values, params = _settings(args)
    path = _require_file(values["train_file"], "--train-file")
    model_path = values["model"]
    if not model_path:
        raise ConfigError("missing model output path (--model)")
    if os.path.isdir(model_path):
        raise ConfigError(f"--model is a directory: {model_path}")
    if not os.path.isdir(os.path.dirname(model_path) or "."):
        raise ConfigError(f"--model directory not found: {model_path}")
    records, skipped = ingest.load_file(path, strict=values["strict"])
    if not records:
        raise EmptyDataset(f"no usable records in {path}")
    stats = ingest.fit_normalization(records)
    trained = model.precalculate(records, params.range, stats, workers=values["workers"])
    model.save_model(trained, model_path)

    counts = Counter()
    for name, count in Counter(records.attack_names).items():
        counts[ingest.attack_category(name)] += count
    for category in ingest.CATEGORIES:
        print(f"{category}={counts[category]}")
    print(f"total={len(records)}")
    if skipped:
        print(f"skipped={skipped}")
    runs = trained.runs()
    print(f"groups={len(runs)}")
    print(f"chromosomes={trained.num_chromosomes()}")
    for label, category, rows in runs:
        members = int(trained.member_counts[rows].sum())
        print(f"group,{label},{category},{rows.stop - rows.start},{members}")
    return EXIT_OK


def _run_test_file(args: argparse.Namespace, require_label: bool):
    """The settings, the test file's records and skip count, and the
    prediction for each record; detect and evaluate differ only in output."""
    values, params = _settings(args)
    model_path = _require_file(values["model"], "--model")
    path = _require_file(values["test_file"], "--test-file")
    trained = model.load_model(model_path)
    records, skipped = ingest.load_file(
        path, strict=values["strict"], require_label=require_label
    )
    predictions = engine.run_batch(records, trained, params, workers=values["workers"])
    return values, records, skipped, predictions


def cmd_detect(args: argparse.Namespace) -> int:
    _, _, skipped, predictions = _run_test_file(args, require_label=False)
    for i, p in enumerate(predictions):
        print(f"{i},{p.attack_name},{p.category},{p.survivor_fitness!r},{p.generations_run}")
    if skipped:
        print(f"skipped={skipped}", file=sys.stderr)
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    from . import metrics

    values, records, skipped, predictions = _run_test_file(args, require_label=True)
    matrix = metrics.ConfusionMatrix.from_pairs(
        (ingest.attack_category(name), pred.category)
        for name, pred in zip(records.attack_names, predictions)
    )
    if values["report"] == "kv":
        print(metrics.format_kv_report(matrix))
    else:
        print(metrics.format_table_report(matrix))
    if skipped:
        print(f"skipped={skipped}", file=sys.stderr)
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    from . import synth

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
    for name, (_, read) in SETTINGS.items():
        if name == "strict":
            common.add_argument("--strict", dest="strict", action="store_true", default=None)
            common.add_argument("--lenient", dest="strict", action="store_false", default=None)
        else:
            common.add_argument("--" + name.replace("_", "-"), dest=name, type=read,
                                choices=getattr(read, "choices", None), default=None)

    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", parents=[common], help="fit and persist a model")
    p_train.set_defaults(func=cmd_train)

    p_detect = sub.add_parser("detect", parents=[common], help="classify records")
    p_detect.set_defaults(func=cmd_detect)

    p_eval = sub.add_parser("evaluate", parents=[common], help="full test-set run")
    p_eval.set_defaults(func=cmd_evaluate)

    p_synth = sub.add_parser("synth", help="generate synthetic data")
    p_synth.add_argument("--seed", type=int, default=SETTINGS["seed"][0])
    p_synth.add_argument("--clusters", type=int, default=5)
    p_synth.add_argument("--points-per-cluster", dest="points_per_cluster", type=int, default=100)
    p_synth.add_argument("--separation", type=float, default=0.5)
    p_synth.add_argument("--noise-sigma", dest="noise_sigma", type=float, default=0.03)
    p_synth.add_argument("--output", required=True)
    p_synth.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # A write that fails (a full disk, say) fails here, as an OSError,
        # rather than in the interpreter's flush at exit.
        sys.stdout.flush()
        return code
    except GaidsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        raise  # handled quietly by run()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        # e.g. a --population-size whose gene array cannot be allocated
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def run() -> None:
    """The console entry point: main's exit code, ending the process as soon
    as its output is written. A usage error or --help exits from argparse,
    the normal way."""
    try:
        code = main()
    except BrokenPipeError:
        # Downstream consumer (e.g. head) closed the pipe: end quietly.
        code = EXIT_OK
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            # Output a stream cannot take (a closed pipe, a full disk that
            # main has reported) is dropped.
            pass
    # Nothing is left to write, so skip the interpreter's teardown, which
    # frees every object one by one: 25-60 ms after a gaids command on a
    # 2-vCPU VM, against 2-3 ms for os._exit.
    os._exit(code)
