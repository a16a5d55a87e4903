"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 6 and 9 share one CLI pipeline run (surface dumps, 30-epoch
pre-training on the 20-protein motif corpus, scoring a 200-variant
synthetic assay, metric report); per-stage wall times are recorded and
asserted against the stated budgets.
"""

import csv
import dataclasses
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import fibonacci_sphere, make_coil_protein, random_rotation
from oracle import (naive_auc, naive_mcc, naive_ndcg, naive_spearman,
                    read_report_csv)
from protfit import autodiff as ad
from protfit.autodiff import Tensor
from protfit.corpus import make_motif_corpus, make_synthetic_variants
from protfit.errors import DataError
from protfit.geometry import (build_knn_graph, build_radius_graph, cross_knn,
                              nearest_others)
from protfit.gvp import (Corruption, FitnessModel, GvpState, ModelConfig,
                         fuse_residue_surface, load_checkpoint,
                         run_message_passing)
from protfit.io import (AssayVariant, ResidueEmbeddings, load_assay,
                        load_structure, mask_context_tag)
from protfit.metrics import (auc, bootstrap_diff_stderr, mcc, ndcg, spearman,
                             top_fraction_recall)
from protfit.scoring import (DEFAULT_EXCISE_M, ensemble_zscores, score_assay,
                             score_variant)
from protfit.surface import (SurfaceConfig, SurfacePointCloud,
                             _field, _gaussian_curvature, excise_near_residue,
                             generate_surface, read_cloud_tsv,
                             surface_features)
from protfit.training import MaskingPolicy, apply_mask, load_corpus

pytestmark = pytest.mark.acceptance


def report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {name}: {status} {detail}")
    assert ok, f"{name}: {detail}"


def rigid_motion(seed):
    rot = random_rotation(seed)
    shift = np.random.default_rng(seed + 5000).uniform(-20, 20, 3)
    return rot, shift


# ---------------------------------------------------------------------------
# 1. equivariance suite
# ---------------------------------------------------------------------------

def test_criterion_1_equivariance():
    t_start = time.time()
    cfg = SurfaceConfig(min_points=64, max_points=128, seeds_per_atom=16)
    instances = []
    for i, n_res in enumerate((12, 16, 10)):
        protein = make_coil_protein(n_res, seed=101 + i)
        cloud = generate_surface(protein, cfg, seed=i)
        cloud = cloud.with_features(surface_features(cloud, cfg))
        instances.append((protein, cloud, [2, n_res // 2, n_res - 1]))
    model = FitnessModel(ModelConfig(mode="s3f", seed=7))
    base = [{mode: model.forward_logits(protein, masked, mode=mode,
                                        cloud=cloud).data
             for mode in ("s2f", "s3f", "surf_only")}
            for protein, cloud, masked in instances]

    worst_logit = 0.0
    for trial in range(100):
        protein, cloud, masked = instances[trial % len(instances)]
        rot, shift = rigid_motion(trial)
        moved = dataclasses.replace(protein,
                                    ca_coords=protein.ca_coords @ rot.T + shift)
        moved_cloud = SurfacePointCloud(points=cloud.points @ rot.T + shift,
                                        normals=cloud.normals @ rot.T,
                                        features=cloud.features)
        for mode in ("s2f", "s3f", "surf_only"):
            rows = model.forward_logits(moved, masked, mode=mode,
                                        cloud=moved_cloud).data
            worst_logit = max(worst_logit, float(
                np.abs(rows - base[trial % len(instances)][mode]).max()))

    # per-layer vector channels on a sample of motions, both stacks
    worst_vec = 0.0
    protein, cloud, _ = instances[0]
    d, dv = model.config.scalar_dim, model.config.vector_dim
    rng = np.random.default_rng(3)
    s0 = rng.standard_normal((protein.n_residues, d))
    v0 = rng.standard_normal((protein.n_residues, 3, dv))
    surf_s0 = rng.standard_normal((cloud.n_points, d))
    surf_v0 = rng.standard_normal((cloud.n_points, 3, dv))
    for trial in range(10):
        rot, shift = rigid_motion(trial + 900)
        for blocks, coords, s_init, v_init in (
                (model.structure_blocks, protein.ca_coords, s0, v0),
                (model.surface_blocks, cloud.points, surf_s0, surf_v0)):
            g1 = (build_radius_graph(coords, 10.0, rbf=model.config.rbf)
                  if blocks is model.structure_blocks else
                  build_knn_graph(coords, 16, rbf=model.config.rbf))
            g2 = (build_radius_graph(coords @ rot.T + shift, 10.0,
                                     rbf=model.config.rbf)
                  if blocks is model.structure_blocks else
                  build_knn_graph(coords @ rot.T + shift, 16,
                                  rbf=model.config.rbf))
            state1 = GvpState(Tensor(s_init), Tensor(v_init))
            state2 = GvpState(Tensor(s_init), Tensor(rot @ v_init))
            for block in blocks:
                state1 = run_message_passing([block], g1, state1)
                state2 = run_message_passing([block], g2, state2)
                dv_err = np.abs(state2.vector.data
                                - rot @ state1.vector.data).max()
                worst_vec = max(worst_vec, float(dv_err))
    elapsed = time.time() - t_start
    report("1-equivariance",
           worst_logit < 1e-6 and worst_vec < 1e-8 and elapsed < 120,
           f"(max logit dev {worst_logit:.2e}, max vector dev {worst_vec:.2e}, "
           f"{elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 2. gradient suite
# ---------------------------------------------------------------------------

TINY = dict(scalar_dim=6, vector_dim=2, structure_layers=1, surface_layers=1,
            init_hidden=6, embed_dim=8)


def _grad_check_model(model, loss_fn, h=1e-5, floor=1e-6):
    model.zero_grad()
    loss_fn().backward()
    analytic = {k: (p.grad.copy() if p.grad is not None
                    else np.zeros_like(p.data))
                for k, p in model.params.items()}
    worst = 0.0
    checked = 0
    for name, p in model.params.items():
        flat = p.data.ravel()
        a = analytic[name].ravel()
        for k in range(flat.size):
            old = flat[k]
            flat[k] = old + h
            up = float(loss_fn().data)
            flat[k] = old - h
            down = float(loss_fn().data)
            flat[k] = old
            fd = (up - down) / (2 * h)
            rel = abs(a[k] - fd) / max(abs(a[k]), abs(fd), floor)
            worst = max(worst, rel)
            checked += 1
    return worst, checked


def test_criterion_2_gradients():
    t_start = time.time()
    protein = make_coil_protein(6, seed=201)
    cfg = SurfaceConfig(min_points=10, max_points=16, seeds_per_atom=8,
                        curvature_k=6, hks_eigenpairs=6)
    cloud = generate_surface(protein, cfg, seed=1)
    cloud = cloud.with_features(surface_features(cloud, cfg))
    targets = protein.sequence[[1, 4]]

    toy = FitnessModel(ModelConfig(mode="s3f", seed=11, **TINY))
    corruption = Corruption(corrupted_sequence=protein.sequence.copy(),
                            mask_positions=np.array([1]),
                            random_positions=np.array([4]))

    def toy_loss():
        rows = toy.forward_logits(protein, [1, 4], mode="s3f", cloud=cloud,
                                  corruption=corruption)
        return toy.loss(rows, targets)

    worst_toy, n_toy = _grad_check_model(toy, toy_loss)

    filem = FitnessModel(ModelConfig(mode="s3f", embedder="file", seed=12, **TINY))
    emb = ResidueEmbeddings(np.random.default_rng(0).standard_normal((6, 8)))

    def file_loss():
        rows = filem.forward_logits(protein, [1, 4], mode="s3f", cloud=cloud,
                                    corruption=corruption, embeddings=emb)
        return filem.loss(rows, targets)

    worst_file, n_file = _grad_check_model(filem, file_loss)

    groups = set()
    for name in list(toy.params) + list(filem.params):
        groups.add(name.split(".")[0])
    needed = {"embed", "adapter", "structure", "surface", "surface_init", "head"}
    elapsed = time.time() - t_start
    worst = max(worst_toy, worst_file)
    report("2-gradients",
           worst < 1e-4 and needed <= groups and elapsed < 300,
           f"(max rel err {worst:.2e} over {n_toy + n_file} parameters, "
           f"groups {sorted(groups)}, {elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 3. oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_3_oracles():
    rng = np.random.default_rng(301)
    failures = []

    for trial in range(1000):
        n = int(rng.integers(2, 20))
        coords = rng.uniform(0, 10, (n, 3))
        cutoff = float(rng.uniform(1, 8))
        got = build_radius_graph(coords, cutoff)
        expected = set()
        for i in range(n):
            for j in range(n):
                if i != j and 0 < np.linalg.norm(coords[j] - coords[i]) < cutoff:
                    expected.add((j, i))
        if set(zip(got.src.tolist(), got.dst.tolist())) != expected:
            failures.append(("radius", trial))
            break

    for trial in range(1000):
        n = int(rng.integers(2, 16))
        k = int(rng.integers(1, 6))
        coords = rng.uniform(0, 8, (n, 3)).round(1)  # rounding makes ties
        got = build_knn_graph(coords, k)
        ok = True
        for i in range(n):
            d = np.linalg.norm(coords - coords[i], axis=1)
            order = [j for j in sorted(range(n), key=lambda j: (d[j], j))
                     if j != i][:min(k, n - 1)]
            if sorted(got.src[got.dst == i].tolist()) != sorted(order):
                ok = False
        if not ok:
            failures.append(("knn", trial))
            break

    for trial in range(1000):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(3, 20))
        k = int(rng.integers(1, min(n, 5) + 1))
        queries = rng.uniform(0, 8, (m, 3))
        refs = rng.uniform(0, 8, (n, 3))
        idx, dist = cross_knn(queries, refs, k)
        for q in range(m):
            d = np.linalg.norm(refs - queries[q], axis=1)
            order = sorted(range(n), key=lambda j: (d[j], j))[:k]
            if idx[q].tolist() != order:
                failures.append(("cross", trial))
                break

    for trial in range(1000):
        n = int(rng.integers(6, 40))
        m = int(rng.integers(1, 5))
        n_res = int(rng.integers(1, 4))
        if n <= m:
            continue
        cloud = SurfacePointCloud(points=rng.uniform(0, 10, (n, 3)),
                                  normals=np.tile([0., 0., 1.], (n, 1)))
        residues = rng.uniform(0, 10, (n_res, 3))
        try:
            _, emap = excise_near_residue(cloud, residues, m)
        except DataError:
            continue
        expected = set()
        for r in residues:
            d = np.linalg.norm(cloud.points - r, axis=1)
            expected.update(sorted(range(n), key=lambda j: (d[j], j))[:m])
        if set(emap.removed.tolist()) != expected:
            failures.append(("excision", trial))
            break

    for trial in range(1000):
        n_s = int(rng.integers(2, 30))
        n_r = int(rng.integers(1, 5))
        k = min(20, n_s)
        pts = rng.uniform(0, 10, (n_s, 3))
        coords = rng.uniform(0, 10, (n_r, 3))
        h_res = GvpState(Tensor(rng.standard_normal((n_r, 4))),
                         Tensor(rng.standard_normal((n_r, 3, 2))))
        h_surf = GvpState(Tensor(rng.standard_normal((n_s, 4))),
                          Tensor(rng.standard_normal((n_s, 3, 2))))
        idx, _ = cross_knn(coords, pts, k)
        out = fuse_residue_surface(h_res, h_surf, idx)
        ok = True
        for i in range(n_r):
            d = np.linalg.norm(pts - coords[i], axis=1)
            order = sorted(range(n_s), key=lambda j: (d[j], j))[:k]
            want_s = h_res.scalar.data[i] + h_surf.scalar.data[order].mean(axis=0)
            want_v = h_res.vector.data[i] + h_surf.vector.data[order].mean(axis=0)
            if (np.abs(out.scalar.data[i] - want_s).max() > 1e-12
                    or np.abs(out.vector.data[i] - want_v).max() > 1e-12):
                ok = False
        if not ok:
            failures.append(("fusion", trial))
            break

    for trial in range(1000):
        n = int(rng.integers(3, 20))
        scores = rng.integers(0, 7, n).astype(float)
        gains = rng.integers(0, 7, n).astype(float)
        labels = rng.integers(0, 2, n)
        if len(set(scores)) > 1 and len(set(gains)) > 1:
            if abs(spearman(scores, gains) - naive_spearman(scores, gains)) > 1e-12:
                failures.append(("spearman", trial))
        if 0 < labels.sum() < n:
            if abs(auc(scores, labels) - naive_auc(scores, labels)) > 1e-12:
                failures.append(("auc", trial))
            cut = float(np.median(scores))
            if abs(mcc(scores, labels) - naive_mcc(scores, labels, cut)) > 1e-12:
                failures.append(("mcc", trial))
        if abs(ndcg(scores, gains) - naive_ndcg(scores, gains)) > 1e-12:
            failures.append(("ndcg", trial))
        k = max(1, int(math.floor(0.1 * n)))
        top_s = set(sorted(range(n), key=lambda i: (-scores[i], i))[:k])
        top_g = set(sorted(range(n), key=lambda i: (-gains[i], i))[:k])
        if top_fraction_recall(scores, gains) != len(top_s & top_g) / k:
            failures.append(("recall", trial))
        if failures:
            break

    report("3-oracle-equivalence", not failures,
           f"(first failure: {failures[0] if failures else 'none'}; "
           f"6 operation families x 1000 instances + 5 metrics x 1000)")


# ---------------------------------------------------------------------------
# 4. surface validity
# ---------------------------------------------------------------------------

def test_criterion_4_surface_validity():
    cfg = SurfaceConfig(min_points=96, max_points=256, seeds_per_atom=16)
    worst_residual = 0.0
    for seed in range(20):
        protein = make_coil_protein(int(20 + 15 * (seed % 2)), seed=400 + seed)
        cloud = generate_surface(protein, cfg, seed=seed)
        residual = np.abs(_field(cloud.points, protein.ca_coords,
                                 cfg.smoothing) - cfg.level)
        worst_residual = max(worst_residual, float(residual.max()))

    radius = 5.0
    pts = fibonacci_sphere(2000, radius)
    curv = _gaussian_curvature(
        pts, pts / radius,
        nearest_others(*cross_knn(pts, pts, cfg.curvature_k + 1))[0])
    curv_err = abs(curv.mean() - 1 / radius ** 2) / (1 / radius ** 2)

    protein = make_coil_protein(25, seed=450)
    cloud = generate_surface(protein, cfg, seed=1)
    feats = surface_features(cloud, cfg)
    rot, shift = rigid_motion(451)
    moved = SurfacePointCloud(points=cloud.points @ rot.T + shift,
                              normals=cloud.normals @ rot.T)
    hks_dev = float(np.abs(surface_features(moved, cfg) - feats).max())

    report("4-surface-validity",
           worst_residual < 1e-3 and curv_err < 0.25 and hks_dev < 1e-6,
           f"(max |SDF-level| {worst_residual:.2e}, curvature rel err "
           f"{curv_err:.3f}, HKS motion dev {hks_dev:.2e})")


# ---------------------------------------------------------------------------
# 5. masking statistics
# ---------------------------------------------------------------------------

def test_criterion_5_masking_statistics():
    rng = np.random.default_rng(501)
    policy = MaskingPolicy()
    seq = np.zeros(100, dtype=np.int64)
    selected = 0
    actions = np.zeros(3)
    draws = 1000   # 1000 sequences x 100 positions = 100k selection draws
    for _ in range(draws):
        plan = apply_mask(seq, rng, policy)
        selected += len(plan.selected)
        actions += np.bincount(plan.actions, minlength=3)
    select_rate = selected / (draws * 100)
    fractions = actions / actions.sum()
    dev = np.abs(fractions - [0.80, 0.10, 0.10]).max()
    ok = abs(select_rate - 0.15) < 0.01 and dev < 0.01
    report("5-masking-statistics", ok,
           f"(select {select_rate:.4f}, actions "
           f"{np.round(fractions, 4).tolist()})")


# ---------------------------------------------------------------------------
# shared pipeline for criteria 6 and 9
# ---------------------------------------------------------------------------

PIPE_SURFACE_FLAGS = ["--min-points", "128", "--max-points", "224",
                      "--seeds-per-atom", "16"]


def _cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "protfit", *map(str, args)],
                          capture_output=True, text=True, cwd=cwd)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """surface -> pretrain -> score -> eval on the motif corpus."""
    root = tmp_path_factory.mktemp("pipeline")
    times = {}
    proteins = make_motif_corpus(root / "corpus", n_proteins=20, n_res=36,
                                 seed=0)

    t0 = time.time()
    (root / "clouds").mkdir()
    for protein in proteins:
        proc = _cli("surface", root / "corpus" / f"{protein.id}.tsv",
                    "--out", root / "clouds" / f"{protein.id}.surface.tsv",
                    *PIPE_SURFACE_FLAGS)
        assert proc.returncode == 0, proc.stderr
    times["surface"] = time.time() - t0

    t0 = time.time()
    proc = _cli("pretrain", root / "corpus", "--out-dir", root / "run",
                "--clouds", root / "clouds", "--mode", "s3f",
                "--epochs", "30", "--batch-size", "2", "--lr", "1e-2",
                "--seed", "0", *PIPE_SURFACE_FLAGS)
    assert proc.returncode == 0, proc.stderr
    times["pretrain"] = time.time() - t0

    target = proteins[0]
    rng = np.random.default_rng(90)
    variants = make_synthetic_variants(target, 200, rng, max_depth=2)
    probe_assay = root / "probe_assay.csv"
    with open(probe_assay, "w") as fh:
        fh.write("mutant,DMS_score\n")
        for v in variants:
            fh.write(f"{v},0.0\n")

    t0 = time.time()
    scores_csv = root / "scores.csv"
    proc = _cli("score", root / "run" / "checkpoint.s3fc",
                root / "corpus" / f"{target.id}.tsv", probe_assay,
                "--out", scores_csv, "--cloud",
                root / "clouds" / f"{target.id}.surface.tsv")
    assert proc.returncode == 0, proc.stderr
    times["score"] = time.time() - t0

    from protfit.scoring import read_scores_csv
    model_scores = read_scores_csv(scores_csv)
    values = np.array([model_scores[v] for v in variants])
    noise = np.random.default_rng(91).normal(0, 0.05 * values.std(), len(values))
    assay_csv = root / "assay.csv"
    with open(assay_csv, "w") as fh:
        fh.write("mutant,DMS_score\n")
        for v, dms in zip(variants, values + noise):
            fh.write(f"{v},{float(dms)!r}\n")

    t0 = time.time()
    report_csv = root / "report.csv"
    proc = _cli("eval", "--scores", scores_csv, "--assay", assay_csv,
                "--out", report_csv, "--group-by", "depth")
    assert proc.returncode == 0, proc.stderr
    times["eval"] = time.time() - t0
    return {"root": root, "times": times, "proteins": proteins,
            "report": report_csv}


def test_criterion_6_learnability(pipeline):
    root = pipeline["root"]
    model = load_checkpoint(root / "run" / "checkpoint.s3fc")
    cfg = SurfaceConfig(min_points=128, max_points=224, seeds_per_atom=16)
    items = load_corpus(root / "corpus", model.config, cfg, "s3f",
                        surface_seed=0, clouds_dir=root / "clouds")
    rng = np.random.default_rng(600)
    policy = MaskingPolicy()
    total_ce = hits = count = 0
    for _ in range(3):
        for item in items:
            plan = apply_mask(item.protein.sequence, rng, policy)
            cloud, _ = excise_near_residue(
                item.cloud, item.protein.ca_coords[plan.selected],
                DEFAULT_EXCISE_M)
            rows = model.forward_logits(
                item.protein, plan.selected, mode="s3f", cloud=cloud,
                corruption=plan.corruption()).data
            tgt = item.protein.sequence[plan.selected]
            total_ce += float(-rows[np.arange(len(tgt)), tgt].sum())
            hits += int((rows.argmax(axis=1) == tgt).sum())
            count += len(tgt)
    ce = total_ce / count
    acc = hits / count
    elapsed = pipeline["times"]["pretrain"]

    # loss is non-increasing in expectation over the run: median of the
    # last 5 epochs' step losses below the median of the first 5 epochs'
    with open(root / "run" / "loss_log.csv") as fh:
        rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
    by_epoch = {}
    for row in rows:
        by_epoch.setdefault(int(row["epoch"]), []).append(float(row["loss"]))
    epochs = sorted(by_epoch)
    first = np.median([l for e in epochs[:5] for l in by_epoch[e]])
    last = np.median([l for e in epochs[-5:] for l in by_epoch[e]])

    ok = (ce <= 0.7 * np.log(20.0) and acc > 0.15 and elapsed < 600
          and last < first)
    report("6-learnability", ok,
           f"(masked CE {ce:.3f} vs budget {0.7 * np.log(20):.3f} "
           f"[{100 * (1 - ce / np.log(20)):.0f}% below ln20], acc {acc:.3f}, "
           f"epoch-loss medians {first:.3f}->{last:.3f}, "
           f"pretrain {elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 7. scoring contracts
# ---------------------------------------------------------------------------

def test_criterion_7_scoring_contracts():
    protein = make_coil_protein(10, seed=700)
    model = FitnessModel(ModelConfig(mode="s2f", seed=701, scalar_dim=16,
                                     vector_dim=3, structure_layers=2,
                                     surface_layers=2, init_hidden=8,
                                     embed_dim=16))
    from protfit.io import MutationSet, RESIDUE_TYPES
    wt_zero = score_variant(model, protein, MutationSet(())) == 0.0

    wt4 = int(protein.sequence[4])
    mutant = f"{RESIDUE_TYPES[wt4]}5{RESIDUE_TYPES[(wt4 + 1) % 20]}"
    from protfit.io import AssayTable
    assay = AssayTable(protein_id="t", variants=(AssayVariant(mutant, 0.0),))
    gate_ok = True
    for plddt_value, expect in ((69.0, "baseline"), (70.0, "model")):
        plddt = np.full(10, 100.0)
        plddt[4] = plddt_value
        gated = dataclasses.replace(protein, plddt=plddt)
        out = score_assay(model, gated, assay, baseline={mutant: -9.0})
        gate_ok = gate_ok and out[0].summary == expect

    rng = np.random.default_rng(702)
    a = rng.standard_normal(64)
    b = rng.standard_normal(64)
    base = ensemble_zscores(a, b)
    dev = max(float(np.abs(ensemble_zscores(2.5 * a + 7.0, b) - base).max()),
              float(np.abs(ensemble_zscores(a, 0.3 * b - 2.0) - base).max()))
    report("7-scoring-contracts", wt_zero and gate_ok and dev < 1e-10,
           f"(wt score exact 0: {wt_zero}, gating 69->baseline/70->model: "
           f"{gate_ok}, affine dev {dev:.2e})")


# ---------------------------------------------------------------------------
# 8. significance procedure
# ---------------------------------------------------------------------------

def test_criterion_8_significance():
    a = [0.41, 0.52, 0.63, 0.38, 0.57]
    zero = bootstrap_diff_stderr(a, a, n_boot=10_000, seed=1)
    b = [0.40, 0.47, 0.66, 0.30, 0.52]
    d = np.array(a) - np.array(b)
    analytic = d.std() / math.sqrt(len(d))
    got = bootstrap_diff_stderr(a, b, n_boot=100_000, seed=2)
    rel = abs(got - analytic) / analytic
    report("8-significance", zero == 0.0 and rel < 0.05,
           f"(identical lists -> {zero}, analytic oracle rel err {rel:.3f})")


# ---------------------------------------------------------------------------
# 9. end-to-end
# ---------------------------------------------------------------------------

def test_criterion_9_end_to_end(pipeline):
    times = pipeline["times"]
    total = sum(times.values())
    parsed = read_report_csv(pipeline["report"])
    row = parsed["assays"][0]
    rho = row["spearman"]
    has_metrics = all(k in row for k in ("spearman", "auc", "mcc", "ndcg",
                                         "recall10"))
    ok = total < 900 and rho > 0.9 and has_metrics and parsed["aggregate"]
    stages = ", ".join(f"{k} {v:.0f}s" for k, v in times.items())
    report("9-end-to-end", ok,
           f"(Spearman {rho:.4f} on the self-consistency assay, {stages}, "
           f"total {total:.0f}s)")
