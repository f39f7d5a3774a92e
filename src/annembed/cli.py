"""Command-line entry point wiring the corpus, generator, trainer, and
analysis modules into reproducible experiment runs.

Every command writes a manifest.json into its output directory capturing
the effective options, so any run can be reproduced bit-exactly with
`annembed <command> --config <out>/manifest.json`. One master seed derives
all per-run seeds through numpy SeedSequence counters.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import os
import re
import sys
import typing
from enum import Enum

import numpy as np

from . import analysis, corpus, synthgen, tensor, trainer
from .embedding import CombinationMode, parameter_overhead
from .encoder import EncoderConfig

OUT_ROOT_ENV = "ANNEMBED_OUT"
ANALYSES = ("stats", "kappa", "correlation", "cluster", "project", "alignment")
# config-backed flags, as flag dest -> field of the config class; each flag
# takes its default and type from its field, and _config builds the class
CONFIG_FLAGS = {
    synthgen.PopulationConfig: {"annotators": "n_annotators", "texts": "n_texts",
                                "labels": "n_labels", "vocab": "vocab_size",
                                "groups": "group_count", "bias": "bias_strength",
                                "per_text": "annotations_per_text"},
    trainer.TrainConfig: {"mode": "mode", "epochs": "epochs", "batch_size": "batch_size",
                          "lr": "learning_rate", "select_on_dev": "select_on_dev"},
    EncoderConfig: {name: name for name in
                    ("hidden", "layers", "heads", "max_len", "ffn_mult", "dropout")},
}


class CliError(RuntimeError):
    pass


def _resolve_out(args) -> str:
    out = args.out
    if out is None:
        root = os.environ.get(OUT_ROOT_ENV)
        if root is None:
            raise CliError(f"--out is required (or set {OUT_ROOT_ENV})")
        out = os.path.join(root, args.command)
    os.makedirs(out, exist_ok=True)
    return out


def _write_run_manifest(out, args) -> None:
    options = {
        k: v for k, v in vars(args).items()
        if k not in ("command", "func", "config")
    }
    corpus.write_json(os.path.join(out, "manifest.json"),
                      {"command": args.command, "options": options})


def _load_data(args) -> corpus.Dataset:
    """args.data under --manifest, or else the <stem>.manifest.json beside it."""
    path = args.manifest or args.data.removesuffix(".jsonl") + ".manifest.json"
    if not args.manifest and not os.path.exists(path):
        raise CliError(f"no dataset manifest found at {path}; pass --manifest")
    manifest = corpus.read_record(path, corpus.DatasetManifest)
    return corpus.load_dataset(args.data, manifest.label_names, name=manifest.name)


# ---------------------------------------------------------------------------
# commands

def _config(cls, args, **extra):
    """cls from its CONFIG_FLAGS options. When cls rejects a value that
    --config supplied, the error names the file and each such option whose
    field the message names."""
    flags = CONFIG_FLAGS[cls]
    try:
        return cls(**{name: getattr(args, dest) for dest, name in flags.items()}, **extra)
    except ValueError as err:
        recorded = _recorded_options(args.config, args.command) if args.config else {}
        keys = [dest for dest, name in flags.items()
                if dest in recorded and recorded[dest] == getattr(args, dest)
                and re.search(rf"\b{name}\b", str(err))]
        if not keys:
            raise
        raise CliError(f"{args.config}: option {', '.join(keys)}: {err}") from None


def cmd_synth(args, out):
    dataset, truth = synthgen.generate_population(
        _config(synthgen.PopulationConfig, args, seed=args.seed))
    corpus.write_dataset(dataset, os.path.join(out, "corpus.jsonl"))
    corpus.write_manifest(dataset, os.path.join(out, "corpus.manifest.json"))
    corpus.write_json(os.path.join(out, "truth.json"), truth)
    print(f"wrote {len(dataset)} annotations "
          f"({dataset.n_annotators} annotators, {dataset.n_labels} labels) to {out}")


def cmd_split(args, out):
    dataset = _load_data(args)
    if args.kind == "annotation":
        split = corpus.make_annotation_split(dataset, args.train_frac, args.seed,
                                             dev_frac=args.dev_frac)
    else:
        split = corpus.make_annotator_split(dataset, args.train_frac, args.seed)
    corpus.write_dataset(split.train, os.path.join(out, "train.jsonl"))
    corpus.write_dataset(split.test, os.path.join(out, "test.jsonl"))
    if split.dev is not None:
        corpus.write_dataset(split.dev, os.path.join(out, "dev.jsonl"))
    corpus.write_manifest(dataset, os.path.join(out, "schema.manifest.json"))
    counts = {"train": len(split.train), "dev": len(split.dev) if split.dev else 0,
              "test": len(split.test)}
    corpus.write_json(os.path.join(out, "split_manifest.json"), corpus.SplitManifest(
        kind=split.kind, seed=split.seed, train_frac=args.train_frac, dev_frac=args.dev_frac,
        source=args.data, counts=counts))
    print(f"split {len(dataset)} annotations -> train {counts['train']} / "
          f"dev {counts['dev']} / test {counts['test']}")


def _load_split(split_dir: str) -> corpus.Split:
    labels = corpus.read_record(os.path.join(split_dir, "schema.manifest.json"),
                                corpus.DatasetManifest).label_names
    meta = corpus.read_record(os.path.join(split_dir, "split_manifest.json"),
                              corpus.SplitManifest)
    train = corpus.load_dataset(os.path.join(split_dir, "train.jsonl"), labels, name="train")
    test = corpus.load_dataset(os.path.join(split_dir, "test.jsonl"), labels, name="test")
    dev_path = os.path.join(split_dir, "dev.jsonl")
    dev = corpus.load_dataset(dev_path, labels, name="dev") if os.path.exists(dev_path) else None
    return corpus.Split(train=train, test=test, dev=dev, kind=meta.kind, seed=meta.seed)


def _write_report(out, report, label_names) -> None:
    corpus.write_json(os.path.join(out, "report.json"), report)
    with open(os.path.join(out, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(report.to_text(label_names) + "\n")


def _train_one(split, args, seed, out):
    model, trace = trainer.train(split, _config(trainer.TrainConfig, args, seed=seed),
                                 _config(EncoderConfig, args))
    os.makedirs(out, exist_ok=True)
    trainer.save_checkpoint(model, os.path.join(out, "checkpoint"))
    report = trainer.evaluate(model, split.test, with_baselines=True)
    _write_report(out, report, model.label_names)
    corpus.write_json(os.path.join(out, "run_log.json"),
                      {"seed": seed, "loss_trace": trace, "steps": len(trace)})
    overhead = parameter_overhead(
        len(model.annotator_ids), len(model.label_names),
        model.encoder_config.hidden, model.mode,
        base_parameters=sum(p.value.size for p in model.params.values()),
    )
    corpus.write_json(os.path.join(out, "overhead.json"), overhead)
    return report


def cmd_train(args, out):
    if args.runs < 1:
        raise CliError(f"--runs must be at least 1, got {args.runs}")
    split = _load_split(args.data)
    if args.select_on_dev and split.dev is None:
        raise CliError(f"--select-on-dev needs a dev split, and {args.data} has no dev.jsonl "
                       "(split with --dev-frac above 0)")
    if args.runs == 1:
        report = _train_one(split, args, args.seed, out)
        print(report.to_text(split.train.label_names))
        return
    seeds = [int(s) for s in
             np.random.SeedSequence(args.seed).generate_state(args.runs, dtype=np.uint64)]
    reports = []
    for run, seed in enumerate(seeds):
        reports.append(_train_one(split, args, seed, os.path.join(out, f"run{run}")))
        print(f"run {run} (seed {seed}): em {reports[-1].em_accuracy:.4f} "
              f"macro_f1 {reports[-1].macro_f1:.4f}")
    ems = np.array([r.em_accuracy for r in reports])
    f1s = np.array([r.macro_f1 for r in reports])
    summary = {
        "runs": args.runs,
        "seeds": seeds,
        "em_mean": float(ems.mean()), "em_std": float(ems.std()),
        "macro_f1_mean": float(f1s.mean()), "macro_f1_std": float(f1s.std()),
        "per_run_em": [float(e) for e in ems],
        "per_run_macro_f1": [float(f) for f in f1s],
    }
    corpus.write_json(os.path.join(out, "summary.json"), summary)
    print(f"em {summary['em_mean'] * 100:.2f} {{{summary['em_std'] * 100:.2f}}}  "
          f"macro_f1 {summary['macro_f1_mean'] * 100:.2f} {{{summary['macro_f1_std'] * 100:.2f}}}")


def cmd_eval(args, out):
    model = trainer.load_checkpoint(args.checkpoint)
    dataset = corpus.load_dataset(args.data, model.label_names)
    if args.drop_unseen:
        before = len(dataset)
        dataset = corpus.drop_unseen_annotators(dataset, model.annotator_ids)
        print(f"dropped {before - len(dataset)} annotations from unseen annotators")
    report = trainer.evaluate(model, dataset, with_baselines=True)
    _write_report(out, report, model.label_names)
    print(report.to_text(model.label_names))


def cmd_baselines(args, out):
    dataset = _load_data(args)
    majority = None
    if args.majority_from:
        train = corpus.load_dataset(args.majority_from, dataset.label_names)
        majority = int(np.argmax(train.label_counts().sum(axis=0)))
    random_em, majority_em = trainer.baselines(dataset, args.seed, majority_label=majority)
    corpus.write_json(os.path.join(out, "baselines.json"), {
        "random_em": random_em,
        "majority_em": majority_em,
        "majority_label": dataset.label_names[majority] if majority is not None else None,
        "seed": args.seed,
    })
    print(f"random {random_em * 100:.2f}  majority {majority_em * 100:.2f}")


def cmd_ablate(args, out):
    model = trainer.load_checkpoint(args.checkpoint)
    dataset = corpus.load_dataset(args.data, model.label_names)
    variants = list(trainer.ABLATIONS) if args.variant == "all" else [args.variant]
    results = {}
    for variant in variants:
        _, keep_text = trainer.ABLATIONS[variant]
        if args.variant == "all" and not keep_text and model.mode == CombinationMode.TEXT_ONLY:
            print(f"{variant:15s} skipped: a text_only model has no embedding to keep")
            continue
        report = trainer.ablation_eval(model, dataset, variant)
        results[variant] = report
        print(f"{variant:15s} em {report.em_accuracy:.4f} macro_f1 {report.macro_f1:.4f}")
    corpus.write_json(os.path.join(out, "ablation.json"), results)


def cmd_analyze(args, out):
    what = set(args.what.split(","))
    unknown = sorted(what - {"all", *ANALYSES})
    if unknown:
        raise CliError(f"unknown --what {unknown}; choose from all,{','.join(ANALYSES)}")
    if "all" in what:
        what = set(ANALYSES)
    dataset = _load_data(args)
    model = trainer.load_checkpoint(args.checkpoint) if args.checkpoint else None
    needs_model = what & {"cluster", "project", "alignment"}
    if needs_model:
        if model is None:
            raise CliError("cluster/project/alignment need --checkpoint")
        trained = (model.mode.uses_annotation if args.embedding == "annotation"
                   else model.mode.uses_annotator)
        if not trained:
            raise CliError(f"--what {','.join(sorted(needs_model))} --embedding "
                           f"{args.embedding}: the {model.mode.value} checkpoint "
                           f"{args.checkpoint} never trains the {args.embedding} embeddings")

    if "stats" in what:
        corpus.write_json(os.path.join(out, "stats.json"),
                          corpus.dataset_statistics(dataset))
    if "kappa" in what:
        kappa = analysis.cohen_kappa_matrix(dataset, min_overlap=args.min_overlap)
        corpus.write_json(os.path.join(out, "kappa.json"), kappa)
        _write_matrix_csv(os.path.join(out, "kappa.csv"), kappa.annotator_ids, kappa.values)
    if "correlation" in what:
        corr = analysis.label_pearson(dataset, min_examples=args.min_examples)
        corpus.write_json(os.path.join(out, "label_correlation.json"), corr)
        _write_matrix_csv(os.path.join(out, "label_correlation.csv"),
                          corr.label_names, corr.values)

    if needs_model:
        if args.embedding == "annotation":
            points, ids = analysis.annotation_embedding_points(model)
        else:
            points, ids = analysis.annotator_embedding_points(model)
    clusters = None
    if "cluster" in what or "alignment" in what:
        clusters = analysis.kmeans(points, k=args.k, seed=args.seed, ids=ids)
        if "cluster" in what:
            corpus.write_json(os.path.join(out, "clusters.json"), clusters)
    if "project" in what:
        projection = analysis.pca_project(points, dims=2)
        _write_csv(os.path.join(out, "projection.csv"), [
            ["annotator_id", "x", "y"],
            *([ann, repr(x), repr(y)]
              for ann, (x, y) in zip(ids, projection.coordinates.tolist()))])
        corpus.write_json(os.path.join(out, "projection.json"), {
            "coordinates": projection.coordinates,
            "explained_variance": projection.explained_variance,
            "rank_deficient": projection.rank_deficient,
        })
    if "alignment" in what:
        try:
            alignment = analysis.demographic_alignment(clusters, dataset)
        except ValueError as err:
            print(f"alignment skipped: {err}")
        else:
            corpus.write_json(os.path.join(out, "alignment.json"), alignment)
    print(f"analysis outputs written to {out}")


def _write_csv(path, rows):
    """rows through csv.writer, so that a cell holding a comma, a quote or a
    line break is quoted; rows may be a generator, written one at a time."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _write_matrix_csv(path, names, values):
    """A labeled square matrix, one row converted at a time; an empty cell is
    a NaN, an undefined entry."""
    _write_csv(path, itertools.chain(
        [["", *names]],
        ([name, *("" if v != v else repr(v) for v in row.tolist())]   # v != v: NaN
         for name, row in zip(names, values))))


def cmd_report(args, out):
    reports = []
    for path in args.inputs:
        reports.append(corpus.read_record(path, trainer.EvalReport))
        print(f"== {path}")
        print(reports[-1].to_text())
    if len(reports) > 1:
        ems = np.array([r.em_accuracy for r in reports])
        f1s = np.array([r.macro_f1 for r in reports])
        print(f"mean em {ems.mean() * 100:.2f} {{{ems.std() * 100:.2f}}}  "
              f"mean macro_f1 {f1s.mean() * 100:.2f} {{{f1s.std() * 100:.2f}}}")
    if out:
        corpus.write_json(os.path.join(out, "report_summary.json"), {"inputs": args.inputs})


# ---------------------------------------------------------------------------


def _config_flags(p, cls, **helps):
    """Add the flags of one CONFIG_FLAGS class, typed and defaulted by its fields."""
    types, fields = typing.get_type_hints(cls), {f.name: f for f in dataclasses.fields(cls)}
    for dest, name in CONFIG_FLAGS[cls].items():
        flag, kind, default = "--" + dest.replace("_", "-"), types[name], fields[name].default
        if kind is bool:
            p.add_argument(flag, action="store_true", default=default)
        elif issubclass(kind, Enum):
            p.add_argument(flag, default=default.value, choices=[m.value for m in kind])
        else:
            p.add_argument(flag, type=kind, default=default, help=helps.get(dest))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="annembed",
        description="multi-annotator classification experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--config", default=None,
                       help="JSON manifest supplying option defaults")

    p = sub.add_parser("synth", help="generate a synthetic population")
    common(p)
    _config_flags(p, synthgen.PopulationConfig,
                  per_text="annotations per text (0 = every annotator)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("split", help="write train/dev/test JSONL files")
    common(p)
    p.add_argument("--data")
    p.add_argument("--manifest", default=None)
    p.add_argument("--kind", choices=corpus.SPLIT_KINDS, default="annotation")
    p.add_argument("--train-frac", type=float, default=0.7)
    p.add_argument("--dev-frac", type=float, default=0.0)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train a model on a split directory")
    common(p)
    p.add_argument("--data", help="split directory")
    _config_flags(p, trainer.TrainConfig)
    _config_flags(p, EncoderConfig)
    p.add_argument("--runs", type=int, default=1)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a JSONL dataset")
    common(p)
    p.add_argument("--checkpoint")
    p.add_argument("--data")
    p.add_argument("--drop-unseen", action="store_true",
                   help="drop annotations whose annotator was never trained on")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("baselines", help="random and majority-label baselines")
    common(p)
    p.add_argument("--data")
    p.add_argument("--manifest", default=None)
    p.add_argument("--majority-from", default=None,
                   help="JSONL file whose majority label to use (e.g. the train split)")
    p.set_defaults(func=cmd_baselines)

    p = sub.add_parser("ablate", help="component ablations of a trained model")
    common(p)
    p.add_argument("--checkpoint")
    p.add_argument("--data")
    p.add_argument("--variant", default="all",
                   choices=[*trainer.ABLATIONS, "all"])
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("analyze", help="agreement/correlation/cluster analyses")
    common(p)
    p.add_argument("--data")
    p.add_argument("--manifest", default=None)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--what", default="all",
                   help=f"comma list of {','.join(ANALYSES)}, or all")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--min-overlap", type=int, default=10)
    p.add_argument("--min-examples", type=int, default=50)
    p.add_argument("--embedding", choices=["annotation", "annotator"], default="annotation")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("report", help="render stored eval reports as text")
    common(p)
    p.add_argument("inputs", nargs="*", default=[], help="report.json files")
    p.set_defaults(func=cmd_report)

    return parser


# options a command cannot run without, after --config merging
_REQUIRED = {
    "split": ("data",),
    "train": ("data",),
    "eval": ("checkpoint", "data"),
    "baselines": ("data",),
    "ablate": ("checkpoint", "data"),
    "analyze": ("data",),
    "report": ("inputs",),
}


def _recorded_options(path, command) -> dict:
    """The options a --config file records: its "options" object, or the
    bare object without its "command" key, which must name command if any."""
    manifest = corpus.read_json(path)
    options = manifest.get("options", manifest)
    if not isinstance(options, dict):
        raise CliError(f"{path}: options must be a JSON object")
    recorded = manifest.get("command", command)
    if recorded != command:
        raise CliError(f"{path}: manifest was recorded for {recorded!r}, not {command!r}")
    if options is manifest:
        options = {k: v for k, v in options.items() if k != "command"}
    return options


def _apply_config(parser, argv):
    """Parse twice so --config supplies defaults that explicit flags override.
    Each recorded option must be one of the command's, of the type its flag
    declares; null stands only for a flag whose default is None."""
    args = parser.parse_args(argv)
    if args.config:
        options = _recorded_options(args.config, args.command)
        fresh = build_parser()
        sub_actions = [a for a in fresh._actions
                       if isinstance(a, argparse._SubParsersAction)]
        sub_parser = sub_actions[0].choices[args.command]
        actions = {a.dest: a for a in sub_parser._actions if a.dest != "help"}
        for key, value in options.items():
            action = actions.get(key)
            if action is None:
                raise CliError(f"{args.config}: {args.command} has no option {key!r}")
            kind = bool if action.nargs == 0 else list if action.nargs == "*" else action.type
            try:
                if value is not None or action.default is not None:
                    corpus.check_type(key, value, kind or str, action.choices)
            except ValueError as err:
                raise CliError(f"{args.config}: option {err}") from None
        sub_parser.set_defaults(**options)
        args = fresh.parse_args(argv)
    for key in _REQUIRED.get(args.command, ()):
        if not getattr(args, key, None):
            raise CliError(f"{args.command} needs --{key.replace('_', '-')}")
    return args


@tensor.gc_paused()
def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = _apply_config(parser, argv if argv is not None else sys.argv[1:])
        out = _resolve_out(args) if args.command != "report" or args.out else args.out
        if out:
            _write_run_manifest(out, args)
        try:
            args.func(args, out)
        except Exception as err:
            if out:
                with open(os.path.join(out, "FAILED"), "w", encoding="utf-8") as fh:
                    fh.write("run failed; outputs may be partial\n")
                    fh.write(f"{type(err).__name__}: {err}\n")
            raise
    except (CliError, corpus.CorpusError, synthgen.SynthError, ValueError,
            OSError, trainer.TrainingDiverged) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
