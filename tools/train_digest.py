"""Print sha256 digests of seeded ``train()`` runs on perfbench's fixtures.

    python3 tools/train_digest.py --workload all --seeds 2101,5201-5205 [--dropout 0.1]

For each workload and seed, the script builds the fixtures of
``perfbench/workloads.py`` in a temporary directory and trains a model as
perfbench's train phase does: its ``TRAIN_CFG`` and the desk-scale
encoder, with ``dropout_rate`` replaced when ``--dropout`` is given.  It
prints one line per run with three digests:

    weights   every trained tensor: name, dtype, shape and bytes, in registry order
    heldout   class probabilities of the held-out posts, from batched
              ``pipeline.forward`` calls of ``EVAL_BATCH`` posts each
    predict   the probabilities of ``predict`` on every held-out text, one call each

Run it in two checkouts and compare the lines: equal lines mean the
trained weights and these held-out outputs are bitwise equal.  Like
perfbench, it uses one BLAS thread unless the environment chooses
otherwise.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from lexfuse import EncoderConfig, TrainConfig, pipeline  # noqa: E402


def parse_seeds(text: str) -> list:
    """``"2101,5201-5205"`` -> ``[2101, 5201, ..., 5205]``."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def digests(wl, seed: int, dropout: float | None = None) -> dict:
    """Digest name -> sha256 hex of one seeded ``train()`` on ``wl``'s fixtures."""
    with tempfile.TemporaryDirectory() as tmp:
        fx = workloads.setup(wl, seed, Path(tmp))
    cfg = dict(workloads.TRAIN_CFG, seed=seed)
    if dropout is not None:
        cfg["dropout_rate"] = dropout
    model = pipeline.train(
        TrainConfig(**cfg), EncoderConfig.desk_scale(), fx.train_set,
        trie=fx.trie, table=fx.vectors, rules=fx.rules,
    ).model
    weights = hashlib.sha256()
    for name, tensor in model.params.named_tensors():
        weights.update(f"{name} {tensor.data.dtype} {tensor.data.shape}\n".encode())
        weights.update(np.ascontiguousarray(tensor.data).tobytes())
    heldout = hashlib.sha256()
    inputs, contexts, _ = pipeline.prepare_dataset(model, fx.heldout, fx.rules)
    for i in range(0, len(inputs), workloads.EVAL_BATCH):
        chunk = slice(i, i + workloads.EVAL_BATCH)
        probs = pipeline.forward(inputs[chunk], contexts[chunk], model.params, model.enc_cfg, model.train_cfg)
        heldout.update(np.ascontiguousarray(probs).tobytes())
    predict = hashlib.sha256()
    for text in fx.heldout.texts():
        predict.update(np.array(model.predict(text, fx.rules)["probabilities"], dtype=np.float64).tobytes())
    return {"weights": weights.hexdigest(), "heldout": heldout.hexdigest(), "predict": predict.hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", help="a perfbench workload name, or all")
    ap.add_argument("--seeds", required=True, help="comma-separated seeds or ranges lo-hi")
    ap.add_argument("--dropout", type=float, default=None, help="training dropout rate (default: perfbench's)")
    args = ap.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        ap.error(f"unknown workload {unknown[0]!r}")
    for name in names:
        for seed in parse_seeds(args.seeds):
            d = digests(workloads.WORKLOADS[name], seed, args.dropout)
            dropout = workloads.TRAIN_CFG["dropout_rate"] if args.dropout is None else args.dropout
            print(f"{name} seed={seed} dropout={dropout:g} "
                  + " ".join(f"{k}={v}" for k, v in d.items()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
