"""Checkpoint manifests of format 1, which earlier versions of annembed wrote
and load_checkpoint still reads."""

import numpy as np

# the train_config keys format 1 held and format 2 dropped, at the one value
# every format-1 writer gave them
RETIRED_TRAIN_KEYS = {"beta1": 0.9, "beta2": 0.999, "adam_eps": 1e-08, "eval_every": 0}


def to_format_1(manifest: dict) -> None:
    """Rewrite a parsed format-2 manifest in place into the manifest that
    format 1 wrote for the same checkpoint: version 1, the retired
    train_config keys, train_label_totals (the column sums of train_counts,
    added up in annotator_ids order) and no params_sha256."""
    counts = manifest["train_counts"]
    manifest.update(format_version=1, train_label_totals=sum(
        (np.asarray(counts[a], np.float64) for a in manifest["annotator_ids"]),
        np.zeros(len(manifest["label_names"]))).tolist())
    manifest["train_config"].update(RETIRED_TRAIN_KEYS)
    del manifest["params_sha256"]
