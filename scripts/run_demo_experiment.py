#!/usr/bin/env python3
"""End-to-end demo: corpus -> surface dumps -> pre-training -> scoring ->
metric report, all through the CLI, in a few minutes on a laptop.

The assay is built from the trained model's own log-odds plus small noise,
so the final report's Spearman should land near 1.0 (a self-consistency
check of the whole pipeline, not a benchmark claim).
"""

import argparse
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from protfit.corpus import make_motif_corpus, make_synthetic_variants
from protfit.io import load_external_scores

SURFACE_FLAGS = ["--min-points", "128", "--max-points", "224",
                 "--seeds-per-atom", "16"]


def cli(*args):
    cmd = [sys.executable, "-m", "protfit", *map(str, args)]
    print("+", " ".join(map(str, cmd[2:])))
    t0 = time.time()
    proc = subprocess.run(cmd)
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    print(f"  ({time.time() - t0:.1f}s)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workdir", type=Path)
    parser.add_argument("--proteins", type=int, default=20)
    parser.add_argument("--epochs", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    root = args.workdir
    root.mkdir(parents=True, exist_ok=True)

    proteins = make_motif_corpus(root / "corpus", n_proteins=args.proteins,
                                 n_res=36, seed=args.seed)
    (root / "clouds").mkdir(exist_ok=True)
    for protein in proteins:
        cli("surface", root / "corpus" / f"{protein.id}.tsv",
            "--out", root / "clouds" / f"{protein.id}.surface.tsv",
            *SURFACE_FLAGS)

    cli("pretrain", root / "corpus", "--out-dir", root / "run",
        "--clouds", root / "clouds", "--mode", "s3f",
        "--epochs", args.epochs, "--batch-size", "2", "--lr", "1e-2",
        "--seed", args.seed, *SURFACE_FLAGS)

    target = proteins[0]
    variants = make_synthetic_variants(target, 200,
                                       np.random.default_rng(args.seed + 7))
    probe = root / "probe_assay.csv"
    probe.write_text("mutant,DMS_score\n"
                     + "".join(f"{v},0.0\n" for v in variants))
    cli("score", root / "run" / "checkpoint.s3fc",
        root / "corpus" / f"{target.id}.tsv", probe,
        "--out", root / "scores.csv",
        "--cloud", root / "clouds" / f"{target.id}.surface.tsv")

    scores = load_external_scores(root / "scores.csv")
    values = np.array([scores[v] for v in variants])
    noise = np.random.default_rng(args.seed + 8).normal(
        0, 0.05 * values.std(), len(values))
    assay = root / "assay.csv"
    assay.write_text("mutant,DMS_score\n" + "".join(
        f"{v},{float(s)!r}\n" for v, s in zip(variants, values + noise)))

    cli("eval", "--scores", root / "scores.csv", "--assay", assay,
        "--out", root / "report.csv", "--group-by", "depth")
    print(f"\nreport written to {root / 'report.csv'}:")
    print((root / "report.csv").read_text())


if __name__ == "__main__":
    main()
