import numpy as np
import pytest

from conftest import make_coil_protein
from protfit import scoring
from protfit.autodiff import Tensor
from protfit.errors import DataError, NumericsError
from protfit.gvp import FitnessModel, ModelConfig
from protfit.io import (RESIDUE_TYPES, AssayTable, AssayVariant, MutationSet,
                        ResidueEmbeddings, format_mutation, mask_context_tag,
                        parse_mutation)
from protfit.scoring import (VariantScore, ensemble_zscores, read_scores_csv,
                             score_assay, score_variant, write_scores_csv)
from protfit.surface import (SurfaceConfig, excise_near_residue,
                             generate_surface, surface_features)

MODEL_KW = dict(scalar_dim=12, vector_dim=3, structure_layers=2,
                surface_layers=2, init_hidden=8, embed_dim=12)
SURF = SurfaceConfig(min_points=40, max_points=96, seeds_per_atom=16)


def s2f_model(seed=0):
    return FitnessModel(ModelConfig(mode="s2f", seed=seed, **MODEL_KW))


def make_cloud(protein, seed=0):
    cloud = generate_surface(protein, SURF, seed=seed)
    return cloud.with_features(surface_features(cloud, SURF))


class StubModel:
    """Fixed log-probability rows, for exercising the log-odds arithmetic."""

    def __init__(self, rows):
        self.rows = np.log(np.asarray(rows))
        self.config = ModelConfig(mode="s2f", **MODEL_KW)

    def forward_logits(self, protein, masked, **kw):
        return Tensor(self.rows[: len(list(masked))])


def test_wild_type_scores_exactly_zero():
    protein = make_coil_protein(8, seed=1)
    model = s2f_model()
    assert score_variant(model, protein, MutationSet(())) == 0.0


def test_hand_set_logits_log_odds():
    probs = np.full(20, 0.7 / 18)
    probs[3] = 0.1   # wild type
    probs[5] = 0.2   # mutant
    stub = StubModel([probs])
    protein = make_coil_protein(8, seed=2)
    mset = MutationSet(((4, 3, 5),))
    score = score_variant(stub, protein, mset)
    assert score == pytest.approx(np.log(2.0), abs=1e-12)


def test_double_mutant_is_sum_of_joint_terms():
    protein = make_coil_protein(14, seed=3)
    model = s2f_model(seed=4)
    wt0, wt1 = int(protein.sequence[2]), int(protein.sequence[9])
    mset = MutationSet(((2, wt0, (wt0 + 3) % 20), (9, wt1, (wt1 + 5) % 20)))
    score = score_variant(model, protein, mset)
    rows = model.forward_logits(protein, [2, 9], mode="s2f").data
    expected = (rows[0, (wt0 + 3) % 20] - rows[0, wt0]
                + rows[1, (wt1 + 5) % 20] - rows[1, wt1])
    assert score == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# pLDDT gating
# ---------------------------------------------------------------------------

def _gating_setup(plddt_site):
    protein = make_coil_protein(10, seed=5)
    plddt = np.full(10, 100.0)
    plddt[4] = plddt_site
    import dataclasses
    protein = dataclasses.replace(protein, plddt=plddt)
    wt = int(protein.sequence[4])
    mt = (wt + 1) % 20
    from protfit.io import RESIDUE_TYPES
    mutant = f"{RESIDUE_TYPES[wt]}5{RESIDUE_TYPES[mt]}"
    assay = AssayTable(protein_id="t",
                       variants=(AssayVariant(mutant, 1.0),))
    return protein, assay, mutant


def test_plddt_69_routes_to_baseline():
    protein, assay, mutant = _gating_setup(69.0)
    model = s2f_model(seed=6)
    out = score_assay(model, protein, assay, baseline={mutant: -2.5})
    assert out[0].score == -2.5
    assert out[0].summary == "baseline"


def test_plddt_70_routes_to_model():
    protein, assay, mutant = _gating_setup(70.0)
    model = s2f_model(seed=6)
    out = score_assay(model, protein, assay, baseline={mutant: -2.5})
    assert out[0].summary == "model"
    mset = parse_mutation(mutant, protein)
    assert out[0].score == pytest.approx(
        score_variant(model, protein, mset), abs=1e-12)


def test_missing_baseline_rejected():
    protein, assay, _ = _gating_setup(50.0)
    model = s2f_model(seed=6)
    with pytest.raises(DataError, match="baseline"):
        score_assay(model, protein, assay)


def test_high_confidence_assay_matches_direct_calls(rng):
    protein = make_coil_protein(20, seed=7)
    model = FitnessModel(ModelConfig(mode="s3f", seed=8, **MODEL_KW))
    cloud = make_cloud(protein)
    from protfit.corpus import make_synthetic_variants
    variants = make_synthetic_variants(protein, 12, rng)
    assay = AssayTable(protein_id="t",
                       variants=tuple(AssayVariant(v, 0.0) for v in variants))
    out = score_assay(model, protein, assay, base_cloud=cloud)
    from protfit.surface import excise_near_residue
    for vs in out:
        mset = parse_mutation(vs.mutant, protein)
        reduced, _ = excise_near_residue(
            cloud, protein.ca_coords[list(mset.positions)], 20)
        direct = score_variant(model, protein, mset, cloud=reduced)
        assert vs.score == pytest.approx(direct, abs=1e-12)
        assert vs.summary == "model"


def test_mixed_variant_default_whole_baseline():
    protein = make_coil_protein(12, seed=9)
    import dataclasses
    plddt = np.full(12, 100.0)
    plddt[3] = 50.0
    protein = dataclasses.replace(protein, plddt=plddt)
    from protfit.io import RESIDUE_TYPES
    wt3, wt8 = int(protein.sequence[3]), int(protein.sequence[8])
    mutant = (f"{RESIDUE_TYPES[wt3]}4{RESIDUE_TYPES[(wt3 + 1) % 20]}:"
              f"{RESIDUE_TYPES[wt8]}9{RESIDUE_TYPES[(wt8 + 1) % 20]}")
    assay = AssayTable(protein_id="t", variants=(AssayVariant(mutant, 0.0),))
    model = s2f_model(seed=10)
    out = score_assay(model, protein, assay, baseline={mutant: 3.25})
    assert out[0].score == 3.25
    assert out[0].summary == "baseline"

    # per-site gating mixes joint-forward model terms with per-site baseline
    site_key = f"{RESIDUE_TYPES[wt3]}4{RESIDUE_TYPES[(wt3 + 1) % 20]}"
    out2 = score_assay(model, protein, assay,
                       baseline={site_key: -1.0}, per_site_gating=True)
    assert out2[0].summary == "mixed"
    rows = model.forward_logits(protein, [3, 8], mode="s2f").data
    model_term = rows[1, (wt8 + 1) % 20] - rows[1, wt8]
    assert out2[0].score == pytest.approx(-1.0 + model_term, abs=1e-12)
    assert out2[0].provenance == ("baseline", "model")


# ---------------------------------------------------------------------------
# one forward pass per distinct position set
# ---------------------------------------------------------------------------

def count_forwards(model):
    """Wrap the model's forward_logits; returns the list of masked sets."""
    calls = []
    forward = model.forward_logits

    def counted(protein, masked, **kw):
        calls.append(tuple(masked))
        return forward(protein, masked, **kw)

    model.forward_logits = counted
    return calls


def saturation_assay(protein, sites, extra=()):
    mutants = ["WT"]
    for pos in sites:
        wt = RESIDUE_TYPES[protein.sequence[pos]]
        mutants += [f"{wt}{pos + 1}{aa}" for aa in RESIDUE_TYPES if aa != wt]
    mutants += list(extra)
    return AssayTable(protein_id="sat", variants=tuple(
        AssayVariant(m, float(i)) for i, m in enumerate(mutants)))


def mutant(protein, positions, shift=1):
    """Each site substituted by the residue type ``shift`` codes above its own."""
    sites = tuple((p, int(protein.sequence[p]), (int(protein.sequence[p]) + shift) % 20)
                  for p in positions)
    return format_mutation(MutationSet(sites))


@pytest.fixture(scope="module")
def sat_setup():
    protein = make_coil_protein(20, seed=11)
    model = FitnessModel(ModelConfig(mode="s3f", seed=12, **MODEL_KW))
    cloud = make_cloud(protein)
    assay = saturation_assay(protein, (3, 11), extra=(
        mutant(protein, (3, 11)), mutant(protein, (3, 11), shift=2)))
    return protein, model, cloud, assay


def test_saturation_assay_one_pass_per_position_set(sat_setup, monkeypatch):
    protein, model, cloud, assay = sat_setup
    model = FitnessModel(model.config)
    forwards = count_forwards(model)
    excised = []
    excise = scoring.excise_near_residue

    def counted_excise(base, coords, m):
        excised.append(len(coords))
        return excise(base, coords, m)

    monkeypatch.setattr(scoring, "excise_near_residue", counted_excise)
    out = score_assay(model, protein, assay, base_cloud=cloud)
    assert len(out) == 1 + 2 * 19 + 2
    assert forwards == [(3,), (11,), (3, 11)]
    assert excised == [1, 1, 2]


def test_shared_scores_equal_fresh_score_variant(sat_setup):
    protein, model, cloud, assay = sat_setup
    out = score_assay(model, protein, assay, base_cloud=cloud)
    assert [vs.mutant for vs in out] == [v.mutant for v in assay.variants]
    assert out[0].score == 0.0 and out[0].provenance == ()
    for vs in out[1:]:
        mset = parse_mutation(vs.mutant, protein)
        reduced, _ = excise_near_residue(
            cloud, protein.ca_coords[mset.positions], 20)
        assert vs.score == score_variant(model, protein, mset, cloud=reduced)
        assert vs.provenance == ("model",) * len(mset)


def test_mixed_variants_share_a_pass_under_per_site_gating():
    import dataclasses
    protein = make_coil_protein(12, seed=9)
    plddt = np.full(12, 100.0)
    plddt[3] = 50.0
    protein = dataclasses.replace(protein, plddt=plddt)
    first, second = mutant(protein, (3, 8)), mutant(protein, (3, 8), shift=4)
    single = mutant(protein, (8,))
    assay = AssayTable(protein_id="t", variants=tuple(
        AssayVariant(m, 0.0) for m in (first, single, second)))
    baseline = {first.split(":")[0]: -1.0, second.split(":")[0]: 0.5}
    model = s2f_model(seed=10)
    forwards = count_forwards(model)
    out = score_assay(model, protein, assay, baseline=baseline,
                      per_site_gating=True)
    assert forwards == [(3, 8), (8,)]
    assert [vs.summary for vs in out] == ["mixed", "model", "mixed"]
    rows = FitnessModel(model.config).forward_logits(protein, [3, 8]).data
    for vs in (out[0], out[2]):
        _, (_, wt, mt) = parse_mutation(vs.mutant, protein).sites
        assert vs.score == baseline[vs.mutant.split(":")[0]] + (
            float(rows[1, mt]) - float(rows[1, wt]))


def test_file_mode_shares_only_identical_rows():
    protein = make_coil_protein(10, seed=13)
    model = FitnessModel(ModelConfig(mode="s2f", embedder="file", seed=14,
                                     **MODEL_KW))
    assay = saturation_assay(protein, (4,))
    base_rows = np.random.default_rng(15).standard_normal(
        (protein.n_residues, MODEL_KW["embed_dim"]))

    def provider(mset):
        rows = base_rows.copy()
        if format_mutation(mset) == assay.variants[7].mutant:
            rows[0, 0] += 1e-9   # a provider that differs for one variant
        return ResidueEmbeddings(rows, mask_context_tag(mset.positions))

    forwards = count_forwards(model)
    out = score_assay(model, protein, assay, embeddings_provider=provider)
    assert forwards == [(4,), (4,)]
    for vs in out[1:]:
        mset = parse_mutation(vs.mutant, protein)
        assert vs.score == score_variant(model, protein, mset,
                                         embeddings=provider(mset))


def test_file_mode_rows_live_only_while_their_set_is_scored():
    """Provider rows (1 MiB per call, a fresh copy each time) must be
    dropped once their position set is scored, so the traced peak over 40
    distinct sets stays within a few row-sets of the peak over 10."""
    import tracemalloc
    protein = make_coil_protein(64, seed=16)
    kw = dict(MODEL_KW, embed_dim=2048)
    model = FitnessModel(ModelConfig(mode="s2f", embedder="file", seed=17, **kw))
    base_rows = np.random.default_rng(18).standard_normal((64, 2048))

    def provider(mset):
        return ResidueEmbeddings(base_rows.copy(), mask_context_tag(mset.positions))

    def peak_over(n_sets):
        assay = AssayTable(protein_id="t", variants=tuple(
            AssayVariant(mutant(protein, (p,)), 0.0) for p in range(n_sets)))
        tracemalloc.start()
        try:
            score_assay(model, protein, assay, embeddings_provider=provider)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak_over(1)   # first-call allocations are not rows
    few, many = peak_over(10), peak_over(40)
    assert many - few < 3 * base_rows.nbytes, (few, many)


def test_non_finite_log_probs_raise_numerics_error():
    probs = np.full((1, 20), 1.0 / 20)
    probs[0, 7] = np.nan
    stub = StubModel(probs)
    protein = make_coil_protein(8, seed=2)
    assay = saturation_assay(protein, (4,))
    with pytest.raises(NumericsError, match="non-finite"):
        score_assay(stub, protein, assay)


@pytest.mark.parametrize("mode", ["s3f", "surf_only"])
def test_mode_the_model_cannot_run_is_rejected_on_entry(mode):
    """Checked before any variant is routed, so an assay that needs no
    forward pass (wild type only) is rejected too."""
    protein = make_coil_protein(8, seed=2)
    assay = AssayTable(protein_id="p", variants=(AssayVariant("WT", 0.0),))
    with pytest.raises(DataError, match=f"cannot run '{mode}'"):
        score_assay(s2f_model(), protein, assay, base_cloud=make_cloud(protein),
                    mode=mode)


# ---------------------------------------------------------------------------
# z-score ensembling
# ---------------------------------------------------------------------------

def test_ensemble_identical_lists_double_zscore(rng):
    a = rng.standard_normal(30)
    out = ensemble_zscores(a, a)
    z = (a - a.mean()) / a.std()
    assert np.abs(out - 2 * z).max() < 1e-12
    assert np.array_equal(np.argsort(out), np.argsort(a))


def test_ensemble_opposite_lists_cancel():
    out = ensemble_zscores([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
    assert np.abs(out).max() < 1e-12


def test_ensemble_matches_naive_oracle(rng):
    a = rng.standard_normal(100)
    b = rng.standard_normal(100)
    out = ensemble_zscores(a, b)
    mean_a = sum(a) / 100
    std_a = (sum((x - mean_a) ** 2 for x in a) / 100) ** 0.5
    mean_b = sum(b) / 100
    std_b = (sum((x - mean_b) ** 2 for x in b) / 100) ** 0.5
    naive = [(x - mean_a) / std_a + (y - mean_b) / std_b for x, y in zip(a, b)]
    assert np.abs(out - naive).max() < 1e-12


def test_ensemble_affine_invariance(rng):
    a = rng.standard_normal(50)
    b = rng.standard_normal(50)
    base = ensemble_zscores(a, b)
    scaled = ensemble_zscores(3.7 * a + 11.0, b)
    assert np.abs(base - scaled).max() < 1e-10


def test_ensemble_zero_std_rejected():
    with pytest.raises(DataError):
        ensemble_zscores([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# score CSV round trip
# ---------------------------------------------------------------------------

def test_scores_csv_round_trip(tmp_path):
    scores = [VariantScore("A1G", 0.125, ("model",)),
              VariantScore("WT", 0.0, ()),
              VariantScore("C2D:E3F", -1.5, ("baseline", "baseline"))]
    path = tmp_path / "scores.csv"
    write_scores_csv(path, scores, header_lines=["config_hash=x"],
                     ensembled=[1.0, 2.0, 3.0])
    table = read_scores_csv(path)
    assert table == {"A1G": 0.125, "WT": 0.0, "C2D:E3F": -1.5}
    text = path.read_text()
    assert text.startswith("# config_hash=x")
    assert "ensembled" in text.splitlines()[1]
