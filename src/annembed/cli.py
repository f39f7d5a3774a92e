"""Command-line entry point wiring the corpus, generator, trainer, and
analysis modules into reproducible experiment runs.

Every command writes a manifest.json into its output directory capturing
the effective options, so any run can be reproduced bit-exactly with
`annembed <command> --config <out>/manifest.json`. One master seed derives
all per-run seeds through numpy SeedSequence counters.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import analysis, corpus, synthgen, trainer
from .embedding import CombinationMode, parameter_overhead
from .encoder import EncoderConfig

OUT_ROOT_ENV = "ANNEMBED_OUT"


class CliError(RuntimeError):
    pass


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, ensure_ascii=False)
        fh.write("\n")


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
    _write_json(os.path.join(out, "manifest.json"),
                {"command": args.command, "options": options})


def _manifest_for(data_path: str, override: str | None) -> dict:
    if override:
        return corpus.read_manifest(override)
    seed_path = data_path[:-len(".jsonl")] + ".manifest.json" if data_path.endswith(".jsonl") \
        else data_path + ".manifest.json"
    if not os.path.exists(seed_path):
        raise CliError(f"no dataset manifest found at {seed_path}; pass --manifest")
    return corpus.read_manifest(seed_path)


def _load_data(args) -> corpus.Dataset:
    manifest = _manifest_for(args.data, args.manifest)
    return corpus.load_dataset(args.data, manifest["label_names"],
                               name=manifest.get("name"))


# ---------------------------------------------------------------------------
# commands

def cmd_synth(args, out):
    cfg = synthgen.PopulationConfig(
        n_annotators=args.annotators,
        n_texts=args.texts,
        n_labels=args.labels,
        vocab_size=args.vocab,
        group_count=args.groups,
        bias_strength=args.bias,
        annotations_per_text=args.per_text,
        seed=args.seed,
    )
    dataset, truth = synthgen.generate_population(cfg)
    corpus.write_dataset(dataset, os.path.join(out, "corpus.jsonl"))
    corpus.write_manifest(dataset, os.path.join(out, "corpus.manifest.json"))
    truth.save(os.path.join(out, "truth.json"))
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
    _write_json(os.path.join(out, "split_manifest.json"), {
        "kind": split.kind,
        "seed": split.seed,
        "train_frac": args.train_frac,
        "dev_frac": args.dev_frac,
        "source": args.data,
        "counts": {
            "train": len(split.train),
            "dev": len(split.dev) if split.dev else 0,
            "test": len(split.test),
        },
    })
    print(f"split {len(dataset)} annotations -> train {len(split.train)} / "
          f"dev {len(split.dev) if split.dev else 0} / test {len(split.test)}")


def _load_split(split_dir: str) -> corpus.Split:
    schema = corpus.read_manifest(os.path.join(split_dir, "schema.manifest.json"))
    with open(os.path.join(split_dir, "split_manifest.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    labels = schema["label_names"]
    train = corpus.load_dataset(os.path.join(split_dir, "train.jsonl"), labels, name="train")
    test = corpus.load_dataset(os.path.join(split_dir, "test.jsonl"), labels, name="test")
    dev_path = os.path.join(split_dir, "dev.jsonl")
    dev = corpus.load_dataset(dev_path, labels, name="dev") if os.path.exists(dev_path) else None
    return corpus.Split(train=train, test=test, dev=dev, kind=meta["kind"], seed=meta["seed"])


def _train_one(split, args, seed, out):
    cfg = trainer.TrainConfig(
        mode=CombinationMode(args.mode),
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.lr,
        seed=seed,
        select_on_dev=args.select_on_dev,
    )
    enc_cfg = EncoderConfig(
        hidden=args.hidden, layers=args.layers, heads=args.heads,
        max_len=args.max_len, ffn_mult=args.ffn_mult, dropout=args.dropout,
    )
    model, trace = trainer.train(split, cfg, enc_cfg)
    os.makedirs(out, exist_ok=True)
    trainer.save_checkpoint(model, os.path.join(out, "checkpoint"))
    report = trainer.evaluate(model, split.test, with_baselines=True)
    _write_json(os.path.join(out, "report.json"), report.to_dict())
    with open(os.path.join(out, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(report.to_text(model.label_names) + "\n")
    _write_json(os.path.join(out, "run_log.json"),
                {"seed": seed, "loss_trace": trace, "steps": len(trace)})
    overhead = parameter_overhead(
        len(model.annotator_ids), len(model.label_names),
        model.encoder_config.hidden, model.mode,
        base_parameters=sum(p.value.size for p in model.params.named_parameters().values()),
    )
    _write_json(os.path.join(out, "overhead.json"), overhead.to_dict())
    return report


def cmd_train(args, out):
    split = _load_split(args.data)
    if args.runs <= 1:
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
    _write_json(os.path.join(out, "summary.json"), summary)
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
    _write_json(os.path.join(out, "report.json"), report.to_dict())
    with open(os.path.join(out, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(report.to_text(model.label_names) + "\n")
    print(report.to_text(model.label_names))


def cmd_baselines(args, out):
    dataset = _load_data(args)
    majority = None
    if args.majority_from:
        train = corpus.load_dataset(args.majority_from, dataset.label_names)
        counts = np.bincount([ex.label for ex in train.examples],
                             minlength=dataset.n_labels)
        majority = int(np.argmax(counts))
    random_em, majority_em = trainer.baselines(dataset, args.seed, majority_label=majority)
    _write_json(os.path.join(out, "baselines.json"), {
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
        report = trainer.ablation_eval(model, dataset, variant)
        results[variant] = report.to_dict()
        print(f"{variant:15s} em {report.em_accuracy:.4f} macro_f1 {report.macro_f1:.4f}")
    _write_json(os.path.join(out, "ablation.json"), results)


def cmd_analyze(args, out):
    dataset = _load_data(args)
    what = set(args.what.split(","))
    if "all" in what:
        what = {"stats", "kappa", "correlation", "cluster", "project", "alignment"}
    model = trainer.load_checkpoint(args.checkpoint) if args.checkpoint else None

    if "stats" in what:
        _write_json(os.path.join(out, "stats.json"),
                    corpus.dataset_statistics(dataset).to_dict())
    if "kappa" in what:
        kappa = analysis.cohen_kappa_matrix(dataset, min_overlap=args.min_overlap)
        _write_json(os.path.join(out, "kappa.json"), kappa.to_dict())
        _write_matrix_csv(os.path.join(out, "kappa.csv"), kappa.annotator_ids, kappa.values)
    if "correlation" in what:
        corr = analysis.label_pearson(dataset, min_examples=args.min_examples)
        _write_json(os.path.join(out, "label_correlation.json"), corr.to_dict())
        _write_matrix_csv(os.path.join(out, "label_correlation.csv"),
                          corr.label_names, corr.values)

    needs_model = what & {"cluster", "project", "alignment"}
    if needs_model:
        if model is None:
            raise CliError("cluster/project/alignment need --checkpoint")
        if args.embedding == "annotation":
            points, ids = analysis.annotation_embedding_points(model, dataset)
        else:
            points, ids = analysis.annotator_embedding_points(model)
    clusters = None
    if "cluster" in what or "alignment" in what:
        clusters = analysis.kmeans(points, k=args.k, seed=args.seed, ids=ids)
        if "cluster" in what:
            _write_json(os.path.join(out, "clusters.json"), clusters.to_dict())
    if "project" in what:
        projection = analysis.pca_project(points, dims=2)
        with open(os.path.join(out, "projection.csv"), "w", encoding="utf-8") as fh:
            fh.write("annotator_id,x,y\n")
            for ann, (x, y) in zip(ids, projection.coordinates):
                fh.write(f"{ann},{x!r},{y!r}\n")
        _write_json(os.path.join(out, "projection.json"), projection.to_dict())
    if "alignment" in what:
        try:
            alignment = analysis.demographic_alignment(clusters, dataset)
        except ValueError as err:
            print(f"alignment skipped: {err}")
        else:
            _write_json(os.path.join(out, "alignment.json"), alignment.to_dict())
    print(f"analysis outputs written to {out}")


def _write_matrix_csv(path, names, values):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("," + ",".join(names) + "\n")
        for name, row in zip(names, values):
            cells = ["" if np.isnan(v) else repr(float(v)) for v in row]
            fh.write(name + "," + ",".join(cells) + "\n")


def cmd_report(args, out):
    rows = []
    for path in args.inputs:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        rows.append((path, obj))
        report = trainer.EvalReport(**{
            f.name: obj[f.name] for f in dataclasses.fields(trainer.EvalReport)})
        print(f"== {path}")
        print(report.to_text())
    if len(rows) > 1:
        ems = np.array([obj["em_accuracy"] for _, obj in rows])
        f1s = np.array([obj["macro_f1"] for _, obj in rows])
        print(f"mean em {ems.mean() * 100:.2f} {{{ems.std() * 100:.2f}}}  "
              f"mean macro_f1 {f1s.mean() * 100:.2f} {{{f1s.std() * 100:.2f}}}")
    if out:
        _write_json(os.path.join(out, "report_summary.json"),
                    {"inputs": [p for p, _ in rows]})


# ---------------------------------------------------------------------------


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
    p.add_argument("--annotators", type=int, default=12)
    p.add_argument("--texts", type=int, default=400)
    p.add_argument("--labels", type=int, default=3)
    p.add_argument("--vocab", type=int, default=60)
    p.add_argument("--groups", type=int, default=0)
    p.add_argument("--bias", type=float, default=0.5)
    p.add_argument("--per-text", type=int, default=0,
                   help="annotations per text (0 = every annotator)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("split", help="write train/dev/test JSONL files")
    common(p)
    p.add_argument("--data")
    p.add_argument("--manifest", default=None)
    p.add_argument("--kind", choices=["annotation", "annotator"], default="annotation")
    p.add_argument("--train-frac", type=float, default=0.7)
    p.add_argument("--dev-frac", type=float, default=0.0)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train a model on a split directory")
    common(p)
    p.add_argument("--data", help="split directory")
    p.add_argument("--mode", default="text_plus_both",
                   choices=[m.value for m in CombinationMode])
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--lr", type=float, default=2e-4)
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--heads", type=int, default=2)
    p.add_argument("--max-len", type=int, default=64)
    p.add_argument("--ffn-mult", type=int, default=4)
    p.add_argument("--dropout", type=float, default=0.1)
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--select-on-dev", action="store_true")
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
                   help="comma list of stats,kappa,correlation,cluster,project,alignment")
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


def _apply_config(parser, argv):
    """Parse twice so --config supplies defaults that explicit flags override."""
    args = parser.parse_args(argv)
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            manifest = json.load(fh)
        options = manifest.get("options", manifest)
        command = manifest.get("command", args.command)
        if command != args.command:
            raise CliError(
                f"manifest was recorded for {command!r}, not {args.command!r}")
        fresh = build_parser()
        sub_actions = [a for a in fresh._actions
                       if isinstance(a, argparse._SubParsersAction)]
        sub_parser = sub_actions[0].choices[args.command]
        known = {a.dest for a in sub_parser._actions}
        sub_parser.set_defaults(**{k: v for k, v in options.items() if k in known})
        args = fresh.parse_args(argv)
    for key in _REQUIRED.get(args.command, ()):
        if not getattr(args, key, None):
            raise CliError(f"{args.command} needs --{key.replace('_', '-')}")
    return args


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = _apply_config(parser, argv if argv is not None else sys.argv[1:])
        out = _resolve_out(args) if args.command != "report" or args.out else args.out
        if out:
            _write_run_manifest(out, args)
        try:
            args.func(args, out)
        except Exception:
            if out:
                with open(os.path.join(out, "FAILED"), "w", encoding="utf-8") as fh:
                    fh.write("run failed; outputs may be partial\n")
            raise
    except (CliError, corpus.CorpusError, synthgen.SynthError, ValueError,
            FileNotFoundError, trainer.TrainingDiverged) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
