"""Batch command line interface.

Commands: ``surface``, ``pretrain``, ``score``, ``eval``, ``embed-pack``.
Options resolve in layers (built-in defaults, then a JSON config file,
then explicit flags); every output file embeds the resolved config, its
hash and the BLAS thread cap, and runs are deterministic given (inputs,
config, seed, thread cap). A flag that sets a field of ``SurfaceConfig``,
``ModelConfig`` or ``TrainConfig`` defaults to that field's default; the
flag is named after the field unless ``_RENAMED`` maps it.

Exit codes: 0 success, 1 usage or configuration error (an unreadable
``--config`` file too), 2 data error (any other path that cannot be read
or written too), 3 numerical failure.

Importing this module loads no numpy (the package ``__init__`` is lazy
too): the command functions import it only after ``main`` has written
``--threads`` into the OpenBLAS, OpenMP and MKL thread-count variables,
which BLAS reads once, when it loads. The cap defaults to one thread,
over whatever the environment sets: OpenBLAS splits long matrix products
across threads, which changes their rounding, so only a fixed count keeps
outputs bit-reproducible. ``--threads 0`` leaves the environment alone,
and ``main`` restores the three variables when it returns.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

from . import EMBEDDERS, MODES, OPTIMIZERS, REPORT_FORMATS
from .errors import DataError, NumericsError, UsageError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_threads(parser):
    parser.add_argument("--threads", type=_non_negative, default=1,
                        help="cap BLAS thread count (default 1, which keeps "
                             "runs bit-reproducible; 0: no cap)")


def _add_common(parser):
    parser.add_argument("--config", help="JSON config file (defaults < file < flags)")
    parser.add_argument("--seed", type=_non_negative, default=None)
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
    p.add_argument("--mode", choices=MODES, default=None)
    p.add_argument("--embedder", choices=EMBEDDERS, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--optimizer", choices=OPTIMIZERS, default=None)
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
    p.add_argument("--mode", choices=MODES, default=None,
                   help="ablation override (subset of the checkpoint's mode)")
    p.add_argument("--embeddings",
                   help="directory of per-variant S3FE files (file-mode "
                        "checkpoints only)")
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
    p.add_argument("--format", choices=REPORT_FORMATS, default=None)
    p.add_argument("--group-by", default=None,
                   help='"depth" or an assay CSV column name')
    p.add_argument("--scores-b", action="append",
                   help="second model's score CSVs (for --bootstrap)")
    p.add_argument("--bootstrap", type=int, default=None,
                   help="bootstrap resamples for the significance block "
                        "(needs --scores-b)")
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
    the flag's type (and converts to a float, for a float flag), one of
    its choices, or true/false for a store-true flag. Null is allowed
    where the default is None."""
    if value is None and default is None:
        return
    if action.nargs == 0:
        ok = isinstance(value, bool)
    elif action.type is not None:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        if ok:
            try:
                action.type(str(value))
                if action.type is float:
                    float(value)   # an int too large parses from text as inf
            except (ValueError, OverflowError, argparse.ArgumentTypeError):
                ok = False
    else:
        ok = isinstance(value, str) and (action.choices is None
                                         or value in action.choices)
    if not ok:
        flag = "--" + action.dest.replace("_", "-")
        raise UsageError(f"config value {value!r} is not valid for {flag}")


# Flags named apart from the config fields they set. --layers sets the
# depth of both stacks; --no-normalize sets ``normalize`` to its negation.
_RENAMED = {"lr": ("learning_rate",),
            "layers": ("structure_layers", "surface_layers"),
            "no_normalize": ("normalize",)}


def _as_field(flag: str, value):
    """A flag value as its field's value, and a field default as the flag's."""
    return not value if flag == "no_normalize" else value


def _defaults(args) -> dict:
    """Built-in defaults of ``args``' command: a flag that sets a config
    field takes the field's default. The config classes load numpy, so
    they are imported here, after ``main`` has applied ``--threads``."""
    if args.command == "eval":
        return {"seed": 0, "format": "csv", "group_by": None, "bootstrap": 0}
    import dataclasses

    from .surface import SurfaceConfig
    classes = [SurfaceConfig]
    defaults = {"seed": 0}
    if args.command == "pretrain":
        from .gvp import ModelConfig
        from .training import TrainConfig
        classes += [ModelConfig, TrainConfig]
    elif args.command == "score":
        from .scoring import DEFAULT_PLDDT_THRESHOLD
        defaults.update(offset=0, mode=None, per_site_gating=False,
                        plddt_threshold=DEFAULT_PLDDT_THRESHOLD)
    fields = {f.name: f.default
              for cls in classes for f in dataclasses.fields(cls)}
    for action in args.parser._actions:
        name = _RENAMED.get(action.dest, (action.dest,))[0]
        if name in fields:
            defaults[action.dest] = _as_field(action.dest, fields[name])
    return defaults


def _resolve(args) -> dict:
    """defaults < config file < explicitly set flags."""
    defaults = _defaults(args)
    resolved = dict(defaults)
    if getattr(args, "config", None):
        path = Path(args.config)
        try:
            overlay = json.loads(path.read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
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
    # ``main`` has written --threads into the BLAS variables unless it is 0
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return [f"config={json.dumps(resolved, sort_keys=True)}",
            f"config_hash={_hash_config(resolved)}",
            f"blas_threads={threads}"]


def _config(cls, resolved: dict):
    """``cls`` from the flags that set its fields; the rest keep defaults."""
    import dataclasses
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{name: _as_field(flag, value)
                  for flag, value in resolved.items()
                  for name in _RENAMED.get(flag, (flag,)) if name in names})


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _output_file(path) -> None:
    """A DataError unless ``path`` can name a file to write: not a
    directory, and inside one. Commands check their outputs this way
    before any surface, model or metric work."""
    path = Path(path)
    if path.is_dir():
        raise DataError(f"cannot write {path}: Is a directory")
    if not path.parent.is_dir():
        raise DataError(f"cannot write {path}: {path.parent} is not a directory")


def cmd_surface(args) -> int:
    from .io import load_structure
    from .surface import SurfaceConfig, featured_cloud, write_cloud_tsv
    resolved = _resolve(args)
    cfg = _config(SurfaceConfig, resolved)
    protein = load_structure(args.structure)
    _output_file(args.out)
    cloud = featured_cloud(protein, cfg, resolved["seed"])
    write_cloud_tsv(cloud, args.out, header_lines=_header_lines(resolved))
    print(f"wrote {cloud.n_points} surface points to {args.out}")
    return 0


def cmd_pretrain(args) -> int:
    from .gvp import ModelConfig
    from .surface import SurfaceConfig
    from .training import TrainConfig, pretrain
    resolved = _resolve(args)
    model_cfg = _config(ModelConfig, resolved)
    train_cfg = _config(TrainConfig, resolved)
    surface_cfg = _config(SurfaceConfig, resolved)
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

    if not Path(directory).is_dir():
        raise DataError(f"embeddings path is not a directory: {directory}")
    return provider


def cmd_score(args) -> int:
    import dataclasses

    from .gvp import SURFACE_MODES, load_checkpoint
    from .io import load_assay, load_external_scores, load_structure
    from .scoring import ensemble_zscores, score_assay, write_scores_csv
    from .surface import SurfaceConfig, featured_cloud
    resolved = _resolve(args)
    model = load_checkpoint(args.checkpoint)
    mode = model.config.check_mode(resolved["mode"])
    protein = load_structure(args.structure)
    if resolved["offset"]:
        protein = dataclasses.replace(protein, chain_offset=resolved["offset"])
    assay = load_assay(args.assay)
    provider = None
    if model.config.embedder == "file":
        if not args.embeddings:
            raise UsageError("file-mode checkpoints need --embeddings DIR")
        provider = _dir_embeddings_provider(args.embeddings, protein)
    elif args.embeddings:
        raise UsageError("--embeddings is for file-mode checkpoints; this "
                         "checkpoint embeds with its own toy embedder")
    baseline = load_external_scores(args.baseline) if args.baseline else None
    external = _assay_scores(args.external, assay) if args.external else None
    _output_file(args.out)
    base_cloud = None
    if mode in SURFACE_MODES:
        base_cloud = featured_cloud(protein, _config(SurfaceConfig, resolved),
                                    resolved["seed"], dump=args.cloud)
    scores = score_assay(
        model, protein, assay, base_cloud=base_cloud,
        embeddings_provider=provider, baseline=baseline,
        plddt_threshold=resolved["plddt_threshold"],
        per_site_gating=resolved["per_site_gating"], mode=mode)
    ensembled = None
    if external is not None:
        ensembled = ensemble_zscores([vs.score for vs in scores], external)
    write_scores_csv(args.out, scores, header_lines=_header_lines(resolved),
                     ensembled=ensembled)
    print(f"scored {len(scores)} variants -> {args.out}")
    return 0


def _assay_scores(path, assay):
    """The scores of the scores CSV at ``path`` in ``assay``'s variant
    order; an assay variant without a score is a DataError."""
    import numpy as np

    from .io import load_external_scores
    table = load_external_scores(path)
    missing = [v.mutant for v in assay.variants if v.mutant not in table]
    if missing:
        raise DataError(f"{path}: external scores missing {len(missing)} "
                        f"variants (first: {missing[0]!r})")
    return np.array([table[v.mutant] for v in assay.variants])


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

    from .io import load_assay
    from .metrics import (aggregate_results, bootstrap_diff_stderr,
                          emit_report, evaluate_assay, METRIC_COLUMNS,
                          spearman)
    resolved = _resolve(args)
    if len(args.scores) != len(args.assay):
        raise UsageError("--scores and --assay must be paired one to one")
    if args.scores_b and len(args.scores_b) != len(args.assay):
        raise UsageError("--scores-b must pair with --assay one to one")
    if resolved["bootstrap"] and not args.scores_b:
        raise UsageError("--bootstrap compares two models and needs --scores-b")
    _output_file(args.out)
    loaded = []   # every input is read before any metric is computed
    for i, (scores_path, assay_path) in enumerate(zip(args.scores, args.assay)):
        assay = load_assay(assay_path)
        vec = _assay_scores(scores_path, assay)
        vec_b = _assay_scores(args.scores_b[i], assay) if args.scores_b else None
        keys = None
        if resolved["group_by"] == "depth":
            keys = [str(_variant_depth(v.mutant)) for v in assay.variants]
        elif resolved["group_by"]:
            keys = _assay_column(assay_path, resolved["group_by"])
        loaded.append((assay, vec, vec_b, keys))
    results = []
    group_cells = {}
    spear_a, spear_b = [], []
    for assay, vec, vec_b, keys in loaded:
        results.append(evaluate_assay(assay.protein_id, vec, assay))
        if vec_b is not None:
            spear_a.append(results[-1].spearman)
            try:
                spear_b.append(spearman(vec_b, assay.scores()))
            except DataError as exc:
                raise DataError(f"{assay.protein_id} (--scores-b): {exc}") from None
        if keys is not None:
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
    if resolved["bootstrap"]:
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
    _output_file(args.out)
    path = Path(args.matrix)
    lines = read_text_lines(path)
    if not any(line.split("#", 1)[0].strip() for line in lines):
        raise DataError(f"{path}: matrix has no rows")
    try:
        rows = np.loadtxt(lines, ndmin=2)
    except ValueError as exc:
        raise DataError(f"{path}: cannot parse matrix ({exc})")
    save_embeddings(args.out, rows, context_tag=args.tag or "")
    print(f"packed {rows.shape[0]}x{rows.shape[1]} matrix -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    saved = {var: os.environ.get(var) for var in
             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return 1
        threads = getattr(args, "threads", None)
        if threads:
            for var in saved:
                os.environ[var] = str(threads)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


if __name__ == "__main__":
    sys.exit(main())
