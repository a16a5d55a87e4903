"""Batch command line interface.

Commands: ``surface``, ``pretrain``, ``score``, ``eval``, ``embed-pack``.
Options resolve in layers (built-in defaults, then a JSON config file,
then explicit flags); every output file embeds the resolved config and
its hash, and runs are deterministic given (inputs, config, seed).

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 numerical failure.

Importing this module loads no numpy (the package ``__init__`` is lazy
too): the command functions import it only after ``main`` has written
``--threads`` into the OpenBLAS, OpenMP and MKL thread-count variables,
which BLAS reads once, when it loads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

from .errors import DataError, NumericsError, UsageError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def _add_threads(parser):
    parser.add_argument("--threads", type=int, default=None,
                        help="cap BLAS thread count")


def _add_common(parser):
    parser.add_argument("--config", help="JSON config file (defaults < file < flags)")
    parser.add_argument("--seed", type=_seed, default=None)
    _add_threads(parser)


def _add_surface_opts(parser):
    parser.add_argument("--atom-radius", type=float, default=None)
    parser.add_argument("--smoothing", type=float, default=None)
    parser.add_argument("--level", type=float, default=None)
    parser.add_argument("--seeds-per-atom", type=int, default=None)
    parser.add_argument("--min-points", type=int, default=None)
    parser.add_argument("--max-points", type=int, default=None)
    parser.add_argument("--knn-k", type=int, default=None)
    parser.add_argument("--curvature-k", type=int, default=None)
    parser.add_argument("--hks-eigenpairs", type=int, default=None)
    parser.add_argument("--paper-scale", action="store_true", default=None,
                        help="target the 6000..20000 point range")


def build_parser() -> _Parser:
    parser = _Parser(prog="protfit",
                     description="multi-scale protein fitness toolkit")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("surface", parents=[], help="generate a surface cloud dump")
    p.add_argument("structure")
    p.add_argument("--out", required=True)
    _add_surface_opts(p)
    _add_common(p)
    p.set_defaults(func=cmd_surface, parser=p)

    p = sub.add_parser("pretrain", help="masked-residue pre-training")
    p.add_argument("corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--mode", choices=("s2f", "s3f", "surf_only"), default=None)
    p.add_argument("--embedder", choices=("toy", "file"), default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--optimizer", choices=("adam", "sgd"), default=None)
    p.add_argument("--grad-clip", type=float, default=None)
    p.add_argument("--checkpoint-every", type=int, default=None)
    p.add_argument("--resume", help="resume from a .state.npz sidecar")
    p.add_argument("--clouds", help="directory of precomputed cloud dumps")
    p.add_argument("--scalar-dim", type=int, default=None)
    p.add_argument("--vector-dim", type=int, default=None)
    p.add_argument("--layers", type=int, default=None)
    p.add_argument("--embed-dim", type=int, default=None)
    p.add_argument("--no-normalize", action="store_true", default=None)
    _add_surface_opts(p)
    _add_common(p)
    p.set_defaults(func=cmd_pretrain, parser=p)

    p = sub.add_parser("score", help="zero-shot variant scoring")
    p.add_argument("checkpoint")
    p.add_argument("structure")
    p.add_argument("assay")
    p.add_argument("--out", required=True)
    p.add_argument("--offset", type=int, default=None,
                   help="mutation numbering offset")
    p.add_argument("--mode", choices=("s2f", "s3f", "surf_only"), default=None,
                   help="ablation override (subset of the checkpoint's mode)")
    p.add_argument("--embeddings",
                   help="directory of per-variant S3FE files (file-mode models)")
    p.add_argument("--baseline", help="baseline scores CSV (mutant,score)")
    p.add_argument("--external",
                   help="external scores CSV to z-score ensemble with")
    p.add_argument("--plddt-threshold", type=float, default=None)
    p.add_argument("--per-site-gating", action="store_true", default=None)
    p.add_argument("--cloud", help="precomputed base cloud dump")
    _add_surface_opts(p)
    _add_common(p)
    p.set_defaults(func=cmd_score, parser=p)

    p = sub.add_parser("eval", help="metric report over scored assays")
    p.add_argument("--scores", action="append", required=True)
    p.add_argument("--assay", action="append", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.add_argument("--group-by", default=None,
                   help='"depth" or an assay CSV column name')
    p.add_argument("--scores-b", action="append",
                   help="second model's score CSVs (for --bootstrap)")
    p.add_argument("--bootstrap", type=int, default=None,
                   help="bootstrap resamples for the significance block")
    _add_common(p)
    p.set_defaults(func=cmd_eval, parser=p)

    p = sub.add_parser("embed-pack", help="pack a text matrix into S3FE binary")
    p.add_argument("matrix")
    p.add_argument("--out", required=True)
    p.add_argument("--tag", default=None, help="context tag footer")
    _add_threads(p)
    p.set_defaults(func=cmd_embed_pack)
    return parser


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------

def _check_file_value(action, value, default):
    """Hold a config-file value to its flag's rules: a number that passes
    the flag's type, one of its choices, or true/false for a store-true
    flag. Null is allowed where the default is None."""
    if value is None and default is None:
        return
    if action.nargs == 0:
        ok = isinstance(value, bool)
    elif action.type is not None:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        if ok:
            try:
                action.type(str(value))
            except (ValueError, argparse.ArgumentTypeError):
                ok = False
    else:
        ok = isinstance(value, str) and (action.choices is None
                                         or value in action.choices)
    if not ok:
        flag = "--" + action.dest.replace("_", "-")
        raise UsageError(f"config value {value!r} is not valid for {flag}")


def _resolve(args, defaults: dict) -> dict:
    """defaults < config file < explicitly set flags."""
    resolved = dict(defaults)
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise UsageError(f"config file not found: {path}")
        try:
            overlay = json.loads(path.read_text())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise UsageError(f"bad config file {path}: {exc}")
        if not isinstance(overlay, dict):
            raise UsageError(f"bad config file {path}: not a JSON object")
        actions = {action.dest: action for action in args.parser._actions}
        for key, value in overlay.items():
            if key not in resolved:
                raise UsageError(f"unknown config key {key!r}")
            _check_file_value(actions[key], value, defaults[key])
            resolved[key] = value
    for key in resolved:
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
    return resolved


def _hash_config(resolved: dict) -> str:
    blob = json.dumps(resolved, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _header_lines(resolved: dict) -> list:
    return [f"config={json.dumps(resolved, sort_keys=True)}",
            f"config_hash={_hash_config(resolved)}"]


def _surface_config(resolved: dict):
    from .surface import SurfaceConfig
    cfg = SurfaceConfig(
        atom_radius=resolved["atom_radius"], smoothing=resolved["smoothing"],
        level=resolved["level"], seeds_per_atom=resolved["seeds_per_atom"],
        min_points=resolved["min_points"], max_points=resolved["max_points"],
        knn_k=resolved["knn_k"], curvature_k=resolved["curvature_k"],
        hks_eigenpairs=resolved["hks_eigenpairs"])
    if resolved["paper_scale"]:
        cfg = cfg.paper_scale()
    return cfg


_SURFACE_DEFAULTS = {
    "atom_radius": 3.0, "smoothing": 1.0, "level": None, "seeds_per_atom": 20,
    "min_points": 512, "max_points": 4096, "knn_k": 16, "curvature_k": 12,
    "hks_eigenpairs": 32, "paper_scale": False,
}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_surface(args) -> int:
    from .io import load_structure
    from .surface import generate_surface, surface_features, write_cloud_tsv
    defaults = dict(_SURFACE_DEFAULTS, seed=0)
    resolved = _resolve(args, defaults)
    cfg = _surface_config(resolved)
    protein = load_structure(args.structure)
    cloud = generate_surface(protein, cfg, seed=resolved["seed"])
    cloud = cloud.with_features(surface_features(cloud, cfg))
    write_cloud_tsv(cloud, args.out, header_lines=_header_lines(resolved))
    print(f"wrote {cloud.n_points} surface points to {args.out}")
    return 0


def cmd_pretrain(args) -> int:
    from .gvp import ModelConfig
    from .training import TrainConfig, pretrain
    defaults = dict(
        _SURFACE_DEFAULTS, seed=0, mode="s3f", embedder="toy", epochs=100,
        batch_size=None, lr=1e-4, optimizer="adam", grad_clip=1.0,
        checkpoint_every=0, scalar_dim=100, vector_dim=16, layers=5,
        embed_dim=64, no_normalize=False)
    resolved = _resolve(args, defaults)
    model_cfg = ModelConfig(
        mode=resolved["mode"], embedder=resolved["embedder"],
        embed_dim=resolved["embed_dim"], scalar_dim=resolved["scalar_dim"],
        vector_dim=resolved["vector_dim"],
        structure_layers=resolved["layers"], surface_layers=resolved["layers"],
        normalize=not resolved["no_normalize"], seed=resolved["seed"])
    train_cfg = TrainConfig(
        epochs=resolved["epochs"], batch_size=resolved["batch_size"],
        learning_rate=resolved["lr"], optimizer=resolved["optimizer"],
        grad_clip=resolved["grad_clip"], seed=resolved["seed"],
        checkpoint_every=resolved["checkpoint_every"])
    surface_cfg = _surface_config(resolved)
    _, history = pretrain(
        args.corpus, model_cfg, train_cfg, surface_cfg, out_dir=args.out_dir,
        clouds_dir=args.clouds, resume=args.resume,
        header_lines=_header_lines(resolved))
    if history:
        print(f"pretrain done: {len(history)} steps, "
              f"final loss {history[-1][2]:.4f}, acc {history[-1][3]:.3f}")
    else:
        print("pretrain done: 0 steps (epochs=0), checkpoint is the init")
    return 0


def _dir_embeddings_provider(directory, protein):
    from .io import format_mutation, load_embeddings

    def provider(mset):
        name = format_mutation(mset, offset=protein.chain_offset)
        path = Path(directory) / f"{name.replace(':', '+')}.s3fe"
        if not path.exists():
            raise DataError(f"no embeddings for variant {name!r}: {path}")
        return load_embeddings(path)

    return provider


def cmd_score(args) -> int:
    import dataclasses

    from .gvp import SURFACE_MODES, load_checkpoint
    from .io import load_assay, load_external_scores, load_structure
    from .scoring import ensemble_zscores, score_assay, write_scores_csv
    from .surface import generate_surface, read_cloud_tsv, surface_features
    defaults = dict(
        _SURFACE_DEFAULTS, seed=0, offset=0, mode=None,
        plddt_threshold=70.0, per_site_gating=False)
    resolved = _resolve(args, defaults)
    model = load_checkpoint(args.checkpoint)
    protein = load_structure(args.structure)
    if resolved["offset"]:
        protein = dataclasses.replace(protein, chain_offset=resolved["offset"])
    assay = load_assay(args.assay)
    mode = resolved["mode"] or model.config.mode
    base_cloud = None
    if mode in SURFACE_MODES:
        if args.cloud:
            base_cloud = read_cloud_tsv(args.cloud)
            if base_cloud.features is None:
                raise DataError(f"{args.cloud}: cloud dump lacks features")
        else:
            cfg = _surface_config(resolved)
            base_cloud = generate_surface(protein, cfg, seed=resolved["seed"])
            base_cloud = base_cloud.with_features(surface_features(base_cloud, cfg))
    provider = None
    if model.config.embedder == "file":
        if not args.embeddings:
            raise UsageError("file-mode checkpoints need --embeddings DIR")
        provider = _dir_embeddings_provider(args.embeddings, protein)
    baseline = load_external_scores(args.baseline) if args.baseline else None
    external = None
    if args.external:
        external = load_external_scores(args.external)
        missing = [v.mutant for v in assay.variants if v.mutant not in external]
        if missing:
            raise DataError(
                f"external scores missing {len(missing)} variants "
                f"(first: {missing[0]!r})")
    scores = score_assay(
        model, protein, assay, base_cloud=base_cloud,
        embeddings_provider=provider, baseline=baseline,
        plddt_threshold=resolved["plddt_threshold"],
        per_site_gating=resolved["per_site_gating"], mode=mode)
    ensembled = None
    if external is not None:
        ensembled = ensemble_zscores(
            [vs.score for vs in scores],
            [external[v.mutant] for v in assay.variants])
    write_scores_csv(args.out, scores, header_lines=_header_lines(resolved),
                     ensembled=ensembled)
    print(f"scored {len(scores)} variants -> {args.out}")
    return 0


def _variant_depth(mutant: str) -> int:
    text = mutant.strip()
    if text == "" or text.upper() == "WT":
        return 0
    return text.count(":") + 1


def _assay_column(path, column):
    from .io import read_csv
    header, rows = read_csv(path)
    if column not in header:
        raise DataError(f"{path}: no column {column!r} for --group-by")
    return [row[column] for row in rows]


def cmd_eval(args) -> int:
    import numpy as np

    from .io import load_assay, load_external_scores
    from .metrics import (aggregate_results, bootstrap_diff_stderr,
                          emit_report, evaluate_assay, METRIC_COLUMNS,
                          spearman)
    defaults = {"seed": 0, "format": "csv", "group_by": None, "bootstrap": 0}
    resolved = _resolve(args, defaults)
    if len(args.scores) != len(args.assay):
        raise UsageError("--scores and --assay must be paired one to one")
    if args.scores_b and len(args.scores_b) != len(args.assay):
        raise UsageError("--scores-b must pair with --assay one to one")

    def aligned(scores_path, assay, assay_path):
        table = load_external_scores(scores_path)
        missing = [v.mutant for v in assay.variants if v.mutant not in table]
        if missing:
            raise DataError(f"{scores_path}: missing scores for "
                            f"{len(missing)} assay variants "
                            f"(first: {missing[0]!r})")
        return np.array([table[v.mutant] for v in assay.variants])

    results = []
    group_cells = {}
    spear_a, spear_b = [], []
    for i, (scores_path, assay_path) in enumerate(zip(args.scores, args.assay)):
        assay = load_assay(assay_path)
        vec = aligned(scores_path, assay, assay_path)
        results.append(evaluate_assay(assay.protein_id, vec, assay))
        if args.scores_b:
            vec_b = aligned(args.scores_b[i], assay, assay_path)
            dms = assay.scores()
            spear_a.append(spearman(vec, dms))
            spear_b.append(spearman(vec_b, dms))
        if resolved["group_by"]:
            if resolved["group_by"] == "depth":
                keys = [str(_variant_depth(v.mutant)) for v in assay.variants]
            else:
                keys = _assay_column(assay_path, resolved["group_by"])
            for key in sorted(set(keys)):
                pick = np.array([k == key for k in keys])
                if pick.sum() < 2:
                    continue
                sub_assay = type(assay)(protein_id=assay.protein_id,
                                        variants=tuple(
                                            v for v, p in
                                            zip(assay.variants, pick) if p))
                try:
                    sub = evaluate_assay(f"{assay.protein_id}:{key}",
                                         vec[pick], sub_assay)
                except DataError:
                    continue
                group_cells.setdefault(key, []).append(sub)
    groups = {}
    for key, cells in group_cells.items():
        agg = aggregate_results(cells)
        groups[key] = {m: agg[m] for m in METRIC_COLUMNS}
        groups[key]["n_variants"] = agg["n_variants"]
    significance = None
    if args.scores_b and resolved["bootstrap"]:
        significance = {
            "spearman_diff_mean": float(np.mean(spear_a) - np.mean(spear_b)),
            "spearman_diff_stderr": bootstrap_diff_stderr(
                spear_a, spear_b, n_boot=resolved["bootstrap"],
                seed=resolved["seed"]),
            "n_boot": resolved["bootstrap"],
        }
    emit_report(args.out, results, fmt=resolved["format"],
                aggregate=aggregate_results(results),
                groups=groups or None, significance=significance,
                header_lines=_header_lines(resolved))
    print(f"evaluated {len(results)} assays -> {args.out}")
    return 0


def cmd_embed_pack(args) -> int:
    import numpy as np

    from .io import read_text_lines, save_embeddings
    path = Path(args.matrix)
    try:
        rows = np.loadtxt(read_text_lines(path), ndmin=2)
    except ValueError as exc:
        raise DataError(f"{path}: cannot parse matrix ({exc})")
    save_embeddings(args.out, rows, context_tag=args.tag or "")
    print(f"packed {rows.shape[0]}x{rows.shape[1]} matrix -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return 1
        threads = getattr(args, "threads", None)
        if threads:
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS"):
                os.environ[var] = str(threads)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"data error: file not found: {exc.filename}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
