"""What the benchmark records beyond ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root is the naming authority: the
workload names, and every end-to-end and per-layer metric with its unit,
direction and (end-to-end only) regression bound, are read from it here.
This module adds what that file has no room for: each workload's sizes and
op, the metrics printed on every run but not gated (``REPORTED``), and
``LAYER_TARGETS``, the end-to-end metrics and workloads each per-layer
metric is expected to move, so that a change to one layer can be checked
against the workload that exercises it and the one that bypasses it.
"""

import json
from pathlib import Path

BENCHMARK_FILE = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
_BENCHMARK = json.loads(BENCHMARK_FILE.read_text())

WORKLOADS = [w["name"] for w in _BENCHMARK["workloads"]]
# name -> {"name", "unit", "better", "bound"}
END_TO_END = {m["name"]: m for m in _BENCHMARK["end_to_end"]}
# name -> {"name", "unit", "better"}
PER_LAYER = {m["name"]: m for m in _BENCHMARK["per_layer"]}

DETAILS = {
    "surface-mixed": {
        "sizes": "8 motif proteins of 80-104 and 156-200 residues, default SurfaceConfig "
                 "with max_points pinned per size: 1152-1536 and 2304-3008 points",
        "op": "generate_surface -> surface_features -> write_cloud_tsv -> read_cloud_tsv "
              "for one protein",
    },
    "pretrain-desk": {
        "sizes": "corpus of 20 motif proteins x 36 residues, clouds of 128-224 points, "
                 "default s3f ModelConfig, batch 2, Adam lr 1e-2",
        "op": "one training.pretrain_step",
    },
    "score-sat": {
        "sizes": "one 36-residue protein, 224-point cloud, checkpointed s3f model; "
                 "2 sites x 19 substitutions + wild type = 39 variants per assay",
        "op": "score_assay -> write_scores_csv -> evaluate_assay for one saturation assay; "
              "the run ends with ensemble_zscores and a 10,000-resample bootstrap",
    },
    "score-multi-default": {
        "sizes": "one 150-residue motif protein, default SurfaceConfig with max_points "
                 "2304 (just below the natural count), "
                 "20% of residues below pLDDT 70; 3 variants 2-3 sites deep + wild type "
                 "per assay",
        "op": "score_assay with per_site_gating=True on one small assay",
    },
}

# Printed by name with their unit on every run but left out of the gated
# set: variants_per_s exists only on the score workloads, op_tail_ms only
# when a run has at least eleven ops, and failed_frac is 0 on a correct
# program (it is also carried by the ``attempted``/``failed`` fields).
REPORTED = {
    "variants_per_s": "1/s",
    "op_tail_ms": "ms",
    "failed_frac": "ratio",
}

_MODEL = ("pretrain-desk", "score-sat", "score-multi-default")
_SCORE = ("score-sat", "score-multi-default")

# per-layer metric prefix -> [(end-to-end metric, workloads it should move on)]
LAYER_TARGETS = {
    "geometry.cross_knn": [("ops_per_s", ("surface-mixed", "score-multi-default",
                                          "pretrain-desk"))],
    "geometry.build_knn_graph": [("ops_per_s", ("score-multi-default", "pretrain-desk"))],
    # load_corpus builds one graph per protein, but score_assay builds one per call
    "geometry.build_radius_graph": [("setup_s", ("pretrain-desk",)),
                                    ("variants_per_s", _SCORE)],
    "surface.generate_surface": [("ops_per_s", ("surface-mixed",)), ("setup_s", _MODEL)],
    "surface.surface_features": [("ops_per_s", ("surface-mixed",))],
    "surface.cloud_io": [("ops_per_s", ("surface-mixed",))],
    "surface.points": [("ops_per_s", ("surface-mixed",))],
    "surface.excise": [("op_p50_ms", ("pretrain-desk",)), ("variants_per_s", _SCORE)],
    "gvp.forward_logits": [("ops_per_s", _MODEL)],
    "gvp.embed": [("ops_per_s", _MODEL)],
    "gvp.mp_structure": [("ops_per_s", ("pretrain-desk", "score-multi-default"))],
    "gvp.mp_surface": [("ops_per_s", ("pretrain-desk", "score-multi-default"))],
    "gvp.surface_init": [("ops_per_s", _MODEL)],
    "gvp.fuse": [("ops_per_s", _MODEL)],
    "gvp.structure_edges": [("ops_per_s", _MODEL)],
    "gvp.surface_edges": [("ops_per_s", _MODEL)],
    "autodiff.backward": [("ops_per_s", ("pretrain-desk",))],
    "autodiff.tape_nodes": [("ops_per_s", ("pretrain-desk",)), ("variants_per_s", _SCORE)],
    "training.pretrain_step": [("op_p50_ms", ("pretrain-desk",))],
    "training.optimizer_step": [("op_p50_ms", ("pretrain-desk",))],
    "training.clip_gradients": [("op_p50_ms", ("pretrain-desk",))],
    "training.clip_rate": [("op_p50_ms", ("pretrain-desk",))],
    "training.grad_norm_p50": [("op_p50_ms", ("pretrain-desk",))],
    "training.load_corpus": [("setup_s", ("pretrain-desk",))],
    "scoring": [("variants_per_s", _SCORE)],
    "io.load_checkpoint": [("setup_s", _SCORE)],
    "io.save_checkpoint": [("setup_s", _SCORE)],
    "io.parse_mutation": [("variants_per_s", _SCORE)],
    "metrics": [("op_p50_ms", ("score-sat",))],
    "trace.overhead_frac": [],
}
