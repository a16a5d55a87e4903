"""Zero-shot variant scoring.

A variant's score is the joint-masked log-odds sum over its sites:
one forward pass with every mutated position masked (and, in surface
mode, the cloud excised around those positions) yields per-site rows,
and the score adds log p(mutant) - log p(wild type) across sites, left
to right. That pass depends only on the masked position set (and, for
file-mode models, on the embedding rows the provider returns), so
``score_assay`` runs it once per distinct set and reuses its rows for
every variant on the set: the 19 substitutions at one site of a
saturation assay share one pass. Each pass computes only the masked rows,
running both GVP stacks on their receptive field (see
``FitnessModel.forward_logits``): its message passing grows with the
sites' neighbourhoods, not with the protein and its cloud, though the
surface kNN graph is still built over the whole excised cloud. Scoring
never calls ``backward``, so passes run under ``autodiff.no_grad`` and
build no tape. Non-finite log-probabilities raise NumericsError when the
pass returns them.

Sites on low-confidence residues (pLDDT below the threshold) fall back
to an ingested baseline scorer; by default a variant touching any
low-confidence site falls back as a whole, since mixing per-site terms
from two models would mix incompatible scales. Per-site gating is
available behind a flag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import no_grad
from .errors import DataError, NumericsError
from .geometry import build_radius_graph
from .gvp import STRUCTURE_MODES, SURFACE_MODES, FitnessModel
from .io import (AssayTable, MutationSet, Protein, ResidueEmbeddings,
                 format_mutation, load_external_scores, parse_mutation,
                 write_csv)
from .surface import SurfacePointCloud, excise_near_residue

DEFAULT_PLDDT_THRESHOLD = 70.0
DEFAULT_EXCISE_M = 20


@dataclass(frozen=True)
class VariantScore:
    mutant: str
    score: float
    provenance: tuple   # per-site "model" / "baseline" tags

    @property
    def summary(self) -> str:
        if all(tag == "baseline" for tag in self.provenance) and self.provenance:
            return "baseline"
        if any(tag == "baseline" for tag in self.provenance):
            return "mixed"
        return "model"


def score_variant(model: FitnessModel, protein: Protein, mset: MutationSet,
                  embeddings: ResidueEmbeddings = None,
                  cloud: SurfacePointCloud = None, mode: str = None) -> float:
    """Joint-masked log-odds score; exactly 0 for the wild type (empty
    site set). The cloud, when given, must already be excised at the
    mutated sites."""
    if not mset.sites:
        return 0.0
    log_probs = _log_probs(model, protein, mset.positions, mode=mode,
                           embeddings=embeddings, cloud=cloud)
    score = 0.0
    for row, (_, wt, mt) in zip(log_probs, mset.sites):
        score += float(row[mt]) - float(row[wt])
    return score


def _log_probs(model, protein, positions, **kwargs) -> np.ndarray:
    """Tape-free forward pass; its rows must be finite."""
    with no_grad():
        log_probs = model.forward_logits(protein, positions, **kwargs).data
    if not np.isfinite(log_probs).all():
        raise NumericsError(
            f"non-finite log-probabilities with positions {list(positions)} masked")
    return log_probs


def _baseline_lookup(baseline: dict, key: str, what: str) -> float:
    if baseline is None:
        raise DataError(
            f"baseline scores required for {what} (site below the pLDDT "
            f"threshold) but none were supplied")
    if key not in baseline:
        raise DataError(f"baseline scores missing entry for {key!r}")
    return float(baseline[key])


def score_assay(model: FitnessModel, protein: Protein, assay: AssayTable, *,
                base_cloud: SurfacePointCloud = None,
                embeddings_provider=None,
                baseline: dict = None,
                plddt_threshold: float = DEFAULT_PLDDT_THRESHOLD,
                per_site_gating: bool = False,
                mode: str = None) -> list:
    """Score every assay variant, routing low-pLDDT sites to the baseline.

    ``embeddings_provider`` is a callable mapping a MutationSet to
    ResidueEmbeddings masked at its sites (file-mode models only).
    """
    if not np.isfinite(plddt_threshold):
        raise DataError(f"plddt_threshold must be finite, got {plddt_threshold}")
    mode = mode or model.config.mode
    needs_surface = mode in SURFACE_MODES
    if needs_surface and base_cloud is None:
        raise DataError(f"mode {mode!r} requires a surface cloud")
    graph = None
    if mode in STRUCTURE_MODES:
        graph = build_radius_graph(protein.ca_coords, model.config.radius_cutoff,
                                   rbf=model.config.rbf)
    passes = {}   # masked position set (plus file-mode rows) -> log-prob rows
    results = []
    for variant in assay.variants:
        mset = parse_mutation(variant.mutant, protein)
        if not mset.sites:
            results.append(VariantScore(variant.mutant, 0.0, ()))
            continue
        positions = np.array(mset.positions)
        low = protein.plddt[positions] < plddt_threshold
        if low.all() or (low.any() and not per_site_gating):
            score = _baseline_lookup(baseline, variant.mutant, variant.mutant)
            tags = ("baseline",) * len(mset)
        else:
            log_probs = _shared_pass(passes, model, protein, mset,
                                     embeddings_provider, base_cloud,
                                     needs_surface, mode, graph)
            score, tags = _site_sum(log_probs, protein, mset, low, baseline)
        results.append(VariantScore(variant.mutant, score, tags))
    return results


def _shared_pass(passes, model, protein, mset, embeddings_provider, base_cloud,
                 needs_surface, mode, graph):
    """Log-prob rows of the joint forward pass with every site of ``mset``
    masked (and the cloud excised around them), run on the first variant
    with its key and looked up in ``passes`` for the rest. File-mode rows
    join the key, so only identical provider rows share a pass."""
    key = tuple(mset.positions)
    embeddings = None
    if embeddings_provider is not None:
        embeddings = embeddings_provider(mset)
        key = (key, embeddings.context_tag, embeddings.rows.shape,
               embeddings.rows.tobytes())
    log_probs = passes.get(key)
    if log_probs is None:
        cloud = None
        if needs_surface:
            cloud, _ = excise_near_residue(
                base_cloud, protein.ca_coords[mset.positions], DEFAULT_EXCISE_M)
        log_probs = _log_probs(model, protein, mset.positions, mode=mode,
                               embeddings=embeddings, cloud=cloud,
                               structure_graph=graph)
        passes[key] = log_probs
    return log_probs


def _site_sum(log_probs, protein, mset, low, baseline):
    """Left-to-right sum over sites: model log-odds terms for confident
    sites, per-site baseline values where ``low`` is set."""
    score = 0.0
    tags = []
    for row, (pos, wt, mt), is_low in zip(log_probs, mset.sites, low):
        if is_low:
            site_key = format_mutation(MutationSet(((pos, wt, mt),)),
                                       offset=protein.chain_offset)
            score += _baseline_lookup(baseline, site_key, site_key)
            tags.append("baseline")
        else:
            score += float(row[mt]) - float(row[wt])
            tags.append("model")
    return score, tuple(tags)


# ---------------------------------------------------------------------------
# ensembling
# ---------------------------------------------------------------------------

def ensemble_zscores(scores_a, scores_b) -> np.ndarray:
    """Standardize each list over the assay (population std) and sum."""
    a = np.asarray(scores_a, dtype=np.float64)
    b = np.asarray(scores_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise DataError("score lists must be equal-length vectors")
    if len(a) < 2:
        raise DataError("need at least 2 variants to ensemble")
    total = np.zeros_like(a)
    for x in (a, b):
        std = x.std()
        if std < 1e-300:
            raise DataError("zero standard deviation in a score list")
        total = total + (x - x.mean()) / std
    return total


# ---------------------------------------------------------------------------
# score CSVs
# ---------------------------------------------------------------------------

def write_scores_csv(path, scores: list, header_lines=(), ensembled=None) -> None:
    columns = ["mutant", "score", "provenance"]
    rows = [[vs.mutant, repr(vs.score), vs.summary] for vs in scores]
    if ensembled is not None:
        columns.append("ensembled")
        for row, value in zip(rows, ensembled, strict=True):
            row.append(repr(float(value)))
    write_csv(path, columns, rows, header_lines)


# Score files have one reader; perfbench calls it by this name.
read_scores_csv = load_external_scores
