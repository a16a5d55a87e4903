"""The four benchmark workloads.

Each workload builds its inputs from its seed with ``protfit.corpus``
helpers, runs ops through the public protfit API and checks every output.
Calls go through module attributes (``surface.generate_surface(...)``) so
that a traced run sees them.

A workload has:

- ``setup()``: build inputs, models and clouds; run several times, the
  last one is kept;
- ``op(i)``: op number ``i`` of the timed phase; returns its output;
- ``finish(outputs)``: timed work that closes the run (may be a no-op);
- ``check(i, output)`` and ``check_run(result)``: untimed correctness
  checks returning a list of failure messages.

Every input of op ``i`` is fixed by (seed, i), so a run that completes more
ops does the same work per op. Reference values for the default seed are
in ``reference.json``; they are checked only at full scale.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
from scipy.special import logsumexp

from protfit import corpus, gvp, io, metrics, scoring, surface, training

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
DEFAULT_SEED = 0
REF_RTOL = 1e-7
ORACLE_RTOL = 1e-9
EXCISE_M = scoring.DEFAULT_EXCISE_M

# desk-scale clouds, as in the acceptance pipeline
DESK_SURFACE = surface.SurfaceConfig(min_points=128, max_points=224, seeds_per_atom=16)
TOY_SURFACE = surface.SurfaceConfig(min_points=48, max_points=96, seeds_per_atom=10)
TOY_MODEL = dict(embed_dim=8, scalar_dim=12, vector_dim=3, structure_layers=1,
                 surface_layers=1, init_hidden=8)


def _model_config(scale: str) -> gvp.ModelConfig:
    return gvp.ModelConfig(**TOY_MODEL) if scale == "toy" else gvp.ModelConfig()


def _close(a, b, rtol, atol=1e-12) -> bool:
    return bool(np.allclose(np.asarray(a, dtype=float), np.asarray(b, dtype=float),
                            rtol=rtol, atol=atol))


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Workload:
    name = ""
    trace_ops = 1      # ops in each phase of a traced run
    min_ops = 1        # ops the timed phase runs even past --seconds
    variants_per_op = None

    def __init__(self, seed: int, scale: str, workdir: Path):
        self.seed = seed
        self.scale = scale
        self.workdir = Path(workdir)
        self.reference = None
        if scale == "full" and seed == DEFAULT_SEED and REFERENCE_FILE.exists():
            self.reference = json.loads(REFERENCE_FILE.read_text()).get(self.name)

    def setup(self):
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def finish(self, outputs):
        return None

    def check(self, i: int, output) -> list:
        return []

    def check_run(self, result) -> list:
        return []

    def reference_values(self, i: int, output):
        """JSON-able values of op ``i`` compared against ``reference.json``."""
        return None

    def check_reference(self, i: int, output) -> list:
        if self.reference is None or i >= len(self.reference):
            return []
        if _values_close(self.reference_values(i, output), self.reference[i]):
            return []
        return [f"op {i}: differs from the default-seed reference"]


def _values_close(got, want) -> bool:
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(_values_close(got[k], want[k]) for k in want))
    if isinstance(want, int) and not isinstance(want, bool):
        return got == want
    return _close(got, want, REF_RTOL)


# ---------------------------------------------------------------------------
# surface-mixed
# ---------------------------------------------------------------------------

class SurfaceMixed(Workload):
    """Surface plus features and a cloud dump round trip, one protein per op.

    Sizes alternate between the dense-eigensolver side (at most 104
    residues, under 2048 points) and the sparse side (at least 156
    residues). Each size slot runs the default SurfaceConfig with
    ``max_points`` set just below the natural point count of coils of that
    length, so clouds have the same size for every seed and the seed does
    not move the O(n^3) dense eigensolver cost.
    """

    name = "surface-mixed"
    SLOTS = {"full": ((80, 1152), (156, 2304), (88, 1280), (170, 2560),
                      (96, 1408), (184, 2688), (104, 1536), (200, 3008)),
             "toy": ((18, 96), (22, 96), (26, 96), (30, 96))}
    POOL = 32

    @property
    def trace_ops(self):
        return len(self.SLOTS[self.scale])

    def setup(self):
        slots = self.SLOTS[self.scale]
        base = TOY_SURFACE if self.scale == "toy" else surface.SurfaceConfig()
        self.cfgs = [replace(base, max_points=cap) for _, cap in slots]
        rng = np.random.default_rng(self.seed)
        self.proteins = [
            corpus.make_motif_protein(f"s{i:02d}", slots[i % len(slots)][0], rng)
            for i in range(self.POOL)]
        self.dump = _fresh_dir(self.workdir / "clouds")

    def op(self, i):
        protein = self.proteins[i % self.POOL]
        cfg = self.cfgs[i % len(self.cfgs)]
        cloud = surface.generate_surface(protein, cfg, seed=0)
        cloud = cloud.with_features(surface.surface_features(cloud, cfg))
        path = self.dump / f"{protein.id}.surface.tsv"
        surface.write_cloud_tsv(cloud, path)
        return protein, cloud, surface.read_cloud_tsv(path)

    def check(self, i, output):
        protein, cloud, back = output
        cfg = self.cfgs[i % len(self.cfgs)]
        fails = []
        if not cfg.min_points <= cloud.n_points <= cfg.max_points:
            fails.append(f"{cloud.n_points} points outside "
                         f"[{cfg.min_points}, {cfg.max_points}]")
        # soft-min distance field, computed here independently of protfit
        dist = np.linalg.norm(cloud.points[:, None, :] - protein.ca_coords[None], axis=2)
        field = -cfg.smoothing * logsumexp(-dist / cfg.smoothing, axis=1)
        residual = float(np.abs(field - cfg.level).max())
        if not residual < cfg.level_tol:
            fails.append(f"level-set residual {residual:.3g} >= {cfg.level_tol}")
        if not np.allclose(np.linalg.norm(cloud.normals, axis=1), 1.0, atol=1e-9):
            fails.append("normals are not unit length")
        if cloud.features.shape != (cloud.n_points, 5) or not np.isfinite(cloud.features).all():
            fails.append("features missing or non-finite")
        if not (np.array_equal(back.points, cloud.points)
                and np.array_equal(back.normals, cloud.normals)
                and np.array_equal(back.features, cloud.features)):
            fails.append("cloud dump does not read back exactly")
        return fails

    def reference_values(self, i, output):
        _, cloud, _ = output
        return {"n_points": int(cloud.n_points),
                "points": cloud.points[:2].tolist(),
                "features": cloud.features[:2].tolist()}


# ---------------------------------------------------------------------------
# pretrain-desk
# ---------------------------------------------------------------------------

class PretrainDesk(Workload):
    """One masked pre-training step per op over a desk-scale motif corpus."""

    name = "pretrain-desk"
    CORPUS = {"full": (20, 36), "toy": (4, 16)}
    BATCH = 2
    LR = 1e-2
    GRAD_CLIP = 1.0
    trace_ops = 10

    def setup(self):
        n_proteins, n_res = self.CORPUS[self.scale]
        folder = _fresh_dir(self.workdir / "corpus")
        corpus.make_motif_corpus(folder, n_proteins=n_proteins, n_res=n_res, seed=self.seed)
        cfg = _model_config(self.scale)
        cloud_cfg = TOY_SURFACE if self.scale == "toy" else DESK_SURFACE
        self.items = training.load_corpus(folder, cfg, cloud_cfg, "s3f", surface_seed=0)
        self.model = gvp.FitnessModel(cfg)
        self.optimizer = training.Adam(self.model.params, self.LR)
        self.policy = training.MaskingPolicy()
        self.rng = np.random.default_rng(self.seed)

    def op(self, i):
        n = len(self.items)
        batch = [self.items[(self.BATCH * i + b) % n] for b in range(self.BATCH)]
        return training.pretrain_step(self.model, batch, self.optimizer, self.policy,
                                      self.rng, "s3f", grad_clip=self.GRAD_CLIP)

    def check(self, i, output):
        loss, acc = output
        fails = []
        if not (np.isfinite(loss) and loss > 0):
            fails.append(f"loss {loss!r} is not finite and positive")
        if not 0.0 <= acc <= 1.0:
            fails.append(f"masked accuracy {acc!r} outside [0, 1]")
        return fails

    def check_run(self, result):
        bad = [name for name, p in self.model.params.items() if not np.isfinite(p.data).all()]
        return [f"non-finite parameters: {bad[:3]}"] if bad else []

    def reference_values(self, i, output):
        return {"loss": float(output[0]), "acc": float(output[1])}


# ---------------------------------------------------------------------------
# scoring workloads
# ---------------------------------------------------------------------------

class _Scoring(Workload):
    oracle_ops = 1   # ops whose sampled variant is re-scored by the plain path

    def _build_model(self, cfg):
        """Fixed-seed model, written and read back through a checkpoint."""
        path = self.workdir / f"{self.name}.s3fc"
        gvp.save_checkpoint(gvp.FitnessModel(cfg), path)
        return gvp.load_checkpoint(path)

    def _cloud(self, protein, cfg):
        cloud = surface.generate_surface(protein, cfg, seed=0)
        return cloud.with_features(surface.surface_features(cloud, cfg))

    def _assay(self, i, mutants):
        rng = np.random.default_rng([self.seed, i])
        dms = rng.standard_normal(len(mutants))
        return io.AssayTable(f"{self.name}-{i}", tuple(
            io.AssayVariant(m, float(d)) for m, d in zip(mutants, dms)))

    def _common_checks(self, results, mutants):
        fails = []
        if [r.mutant for r in results] != list(mutants):
            fails.append("results do not follow the assay order")
        for r in results:
            if r.mutant == "WT" and (r.score != 0.0 or r.provenance != ()):
                fails.append(f"wild type scored {r.score!r}, not exactly 0")
            if not np.isfinite(r.score):
                fails.append(f"{r.mutant}: non-finite score")
            mset = io.parse_mutation(r.mutant, self.protein)
            if r.provenance != self._expected_tags(mset):
                fails.append(f"{r.mutant}: provenance {r.provenance} breaks the pLDDT rule")
        return fails

    def _expected_tags(self, mset):
        low = [self.protein.plddt[p] < scoring.DEFAULT_PLDDT_THRESHOLD for p in mset.positions]
        if not any(low):
            return ("model",) * len(low)
        if all(low) or not self.per_site_gating:
            return ("baseline",) * len(low)
        return tuple("baseline" if is_low else "model" for is_low in low)

    def _oracle(self, result):
        """Score one variant through score_variant on a freshly excised cloud."""
        mset = io.parse_mutation(result.mutant, self.protein)
        reduced, _ = surface.excise_near_residue(
            self.cloud, self.protein.ca_coords[mset.positions], EXCISE_M)
        plain = scoring.score_variant(self.model, self.protein, mset, cloud=reduced)
        if _close(plain, result.score, ORACLE_RTOL):
            return []
        return [f"{result.mutant}: score_assay {result.score!r} != score_variant {plain!r}"]


class ScoreSat(_Scoring):
    """Saturation mutagenesis: all 19 substitutions at a few sites per assay."""

    name = "score-sat"
    SIZES = {"full": 36, "toy": 16}
    SITES_PER_OP = {"full": 2, "toy": 1}
    N_BOOT = 10000
    per_site_gating = False
    trace_ops = 2
    min_ops = 2          # the closing bootstrap needs two assays
    oracle_ops = 3

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.protein = corpus.make_motif_protein("sat", self.SIZES[self.scale], rng)
        self.cloud = self._cloud(self.protein, TOY_SURFACE if self.scale == "toy"
                                 else DESK_SURFACE)
        self.model = self._build_model(_model_config(self.scale))
        self.site_order = rng.permutation(self.protein.n_residues)
        self.sites = self.SITES_PER_OP[self.scale]
        self.variants_per_op = 1 + 19 * self.sites
        self.out = _fresh_dir(self.workdir / "scores")

    def mutants(self, i):
        n = self.protein.n_residues
        out = ["WT"]
        for k in range(self.sites):
            pos = int(self.site_order[(self.sites * i + k) % n])
            wt = io.RESIDUE_TYPES[self.protein.sequence[pos]]
            out += [f"{wt}{pos + 1}{aa}" for aa in io.RESIDUE_TYPES if aa != wt]
        return out

    def op(self, i):
        assay = self._assay(i, self.mutants(i))
        results = scoring.score_assay(self.model, self.protein, assay, base_cloud=self.cloud)
        path = self.out / f"{assay.protein_id}.csv"
        scoring.write_scores_csv(path, results)
        report = metrics.evaluate_assay(assay.protein_id, [r.score for r in results], assay)
        return assay, results, path, report

    def finish(self, outputs):
        """Ensemble with an external score list, then a paired bootstrap of
        per-assay Spearman values against it."""
        done = [o for o in outputs if not isinstance(o, Exception)]
        rng = np.random.default_rng([self.seed, 1 << 20])
        model_scores = np.concatenate([[r.score for r in res] for _, res, _, _ in done])
        external = rng.standard_normal(len(model_scores))
        ensembled = scoring.ensemble_zscores(model_scores, external)
        sp_model, sp_external, start = [], [], 0
        for assay, res, _, report in done:
            stop = start + len(res)
            sp_model.append(report.spearman)
            sp_external.append(metrics.spearman(external[start:stop], assay.scores()))
            start = stop
        stderr = metrics.bootstrap_diff_stderr(sp_model, sp_external, n_boot=self.N_BOOT,
                                               seed=self.seed)
        return ensembled, stderr

    def check(self, i, output):
        assay, results, path, report = output
        fails = self._common_checks(results, self.mutants(i))
        written = scoring.read_scores_csv(path)
        if written != {r.mutant: r.score for r in results}:
            fails.append("scores CSV does not read back exactly")
        values = [report.spearman, report.auc, report.mcc, report.ndcg, report.recall10]
        if report.n_variants != len(results) or not np.isfinite(values).all():
            fails.append(f"bad assay report {report}")
        if i < self.oracle_ops:
            fails += self._oracle(results[1 + (7 * i) % (len(results) - 1)])
        return fails

    def check_run(self, result):
        ensembled, stderr = result
        fails = []
        if not (np.isfinite(ensembled).all() and abs(float(ensembled.mean())) < 1e-9):
            fails.append("ensembled z-scores are not finite and centred")
        if not (np.isfinite(stderr) and stderr >= 0):
            fails.append(f"bootstrap stderr {stderr!r}")
        return fails

    def reference_values(self, i, output):
        return [r.score for r in output[1]]


class ScoreMultiDefault(_Scoring):
    """Small multi-site assays at default size, with pLDDT routing.

    Every op scores the wild type plus three variants on position sets
    that occur once in the run: one on confident sites (model), one mixing
    confident and low-confidence sites (mixed, per-site gating) and one on
    low-confidence sites only (baseline).
    """

    name = "score-multi-default"
    SIZES = {"full": 150, "toy": 30}
    # Default settings except for a cap just below the natural point count
    # of 150-residue coils (2.3k-2.7k), so every seed gets the same cloud
    # size and the forward cost does not vary with the seed.
    SURFACE = surface.SurfaceConfig(max_points=2304)
    LOW_FRAC = 0.2
    POOL = {"full": 48, "toy": 8}
    per_site_gating = True
    variants_per_op = 4
    trace_ops = 2

    def setup(self):
        rng = np.random.default_rng(self.seed)
        base = corpus.make_motif_protein("multi", self.SIZES[self.scale], rng)
        n = base.n_residues
        plddt = rng.uniform(75.0, 98.0, n)
        low = rng.choice(n, size=int(self.LOW_FRAC * n), replace=False)
        plddt[low] = rng.uniform(40.0, 69.0, len(low))
        self.protein = io.Protein(id=base.id, sequence=base.sequence,
                                  ca_coords=base.ca_coords, plddt=plddt)
        self.cloud = self._cloud(self.protein, TOY_SURFACE if self.scale == "toy"
                                 else self.SURFACE)
        self.model = self._build_model(_model_config(self.scale))
        self.plans = self._plans(rng, np.sort(low), np.setdiff1d(np.arange(n), low))
        self.baseline = self._ingest_baseline(rng)

    def _plans(self, rng, low, high):
        """Per op: (model, mixed, baseline) variant strings on position sets
        that never repeat."""
        used = set()

        def pick(pool_a, n_a, pool_b=(), n_b=0):
            while True:
                pos = list(rng.choice(pool_a, n_a, replace=False))
                if n_b:
                    pos += list(rng.choice(pool_b, n_b, replace=False))
                key = frozenset(int(p) for p in pos)
                if key not in used:
                    used.add(key)
                    return self._mutant(sorted(key), rng)

        plans = []
        for _ in range(self.POOL[self.scale]):
            depth = int(rng.integers(2, 4))
            plans.append((pick(high, depth),
                          pick(high, depth - 1, low, 1),
                          pick(low, 2)))
        return plans

    def _mutant(self, positions, rng):
        sites = []
        for pos in positions:
            wt = int(self.protein.sequence[pos])
            mt = int(rng.integers(0, 19))
            sites.append((pos, wt, mt + (mt >= wt)))
        return io.format_mutation(io.MutationSet(tuple(sites)),
                                  offset=self.protein.chain_offset)

    def _ingest_baseline(self, rng):
        """Baseline scores for every key the routing can ask for, written as
        a CSV and read back the way the score command ingests them."""
        keys = []
        for _, mixed, baseline in self.plans:
            keys.append(baseline)
            for token in mixed.split(":"):
                pos = int(token[1:-1]) - 1 - self.protein.chain_offset
                if self.protein.plddt[pos] < scoring.DEFAULT_PLDDT_THRESHOLD:
                    keys.append(token)
        keys = list(dict.fromkeys(keys))
        path = self.workdir / "baseline.csv"
        values = rng.standard_normal(len(keys))
        path.write_text("mutant,score\n" + "".join(
            f"{k},{float(v)!r}\n" for k, v in zip(keys, values)))
        return io.load_external_scores(path)

    def mutants(self, i):
        return ("WT",) + self.plans[i % len(self.plans)]

    def op(self, i):
        assay = self._assay(i, self.mutants(i))
        return scoring.score_assay(self.model, self.protein, assay, base_cloud=self.cloud,
                                   baseline=self.baseline, per_site_gating=True)

    def check(self, i, results):
        fails = self._common_checks(results, self.mutants(i))
        baseline_only = results[3]
        if baseline_only.score != self.baseline[baseline_only.mutant]:
            fails.append(f"{baseline_only.mutant}: baseline score not passed through")
        if i < self.oracle_ops:
            fails += self._oracle(results[1])
        return fails

    def reference_values(self, i, output):
        return [r.score for r in output]


WORKLOADS = {cls.name: cls for cls in (SurfaceMixed, PretrainDesk, ScoreSat,
                                        ScoreMultiDefault)}
