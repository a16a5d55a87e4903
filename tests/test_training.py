import numpy as np
import pytest

from conftest import make_coil_protein
from protfit.corpus import make_motif_corpus, make_motif_protein
from protfit.errors import DataError
from protfit.geometry import build_radius_graph
from protfit.gvp import FitnessModel, ModelConfig, load_checkpoint
from protfit.surface import SurfaceConfig, excise_near_residue, generate_surface, surface_features
from protfit.training import (Adam, CorpusItem, MASK, KEEP, RANDOM,
                              MaskingPolicy, TrainConfig, apply_mask,
                              clip_gradients, load_corpus, load_train_state,
                              make_optimizer, pretrain, pretrain_step,
                              save_train_state)

MODEL_KW = dict(scalar_dim=12, vector_dim=3, structure_layers=2,
                surface_layers=2, init_hidden=8, embed_dim=12, rbf_kernels=4)
SURF = SurfaceConfig(min_points=40, max_points=96, seeds_per_atom=16)


def tiny_setup(tmp_path, n_proteins=3, n_res=18, mode="s3f", seed=0):
    corpus_dir = tmp_path / "corpus"
    make_motif_corpus(corpus_dir, n_proteins=n_proteins, n_res=n_res, seed=seed)
    model_cfg = ModelConfig(mode=mode, seed=seed, **MODEL_KW)
    train_cfg = TrainConfig(epochs=2, batch_size=2, learning_rate=3e-3,
                            seed=seed, checkpoint_every=1)
    return corpus_dir, model_cfg, train_cfg


# ---------------------------------------------------------------------------
# masking
# ---------------------------------------------------------------------------

def test_apply_mask_full_selection():
    policy = MaskingPolicy(select_rate=1.0, mask_rate=1.0, random_rate=0.0)
    plan = apply_mask(np.arange(20) % 20, np.random.default_rng(0), policy)
    assert plan.selected.tolist() == list(range(20))
    assert (plan.actions == MASK).all()
    assert np.array_equal(plan.corrupted, np.arange(20) % 20)


def test_apply_mask_always_selects_at_least_one():
    policy = MaskingPolicy(select_rate=0.01)
    rng = np.random.default_rng(3)
    for _ in range(50):
        plan = apply_mask(np.zeros(4, dtype=int), rng, policy)
        assert len(plan.selected) >= 1


def test_apply_mask_deterministic():
    seq = np.random.default_rng(5).integers(0, 20, 60)
    a = apply_mask(seq, np.random.default_rng(77))
    b = apply_mask(seq, np.random.default_rng(77))
    assert np.array_equal(a.selected, b.selected)
    assert np.array_equal(a.actions, b.actions)
    assert np.array_equal(a.corrupted, b.corrupted)


def test_apply_mask_statistics_small():
    rng = np.random.default_rng(11)
    seq = np.zeros(100, dtype=int)
    n_selected = 0
    action_counts = np.zeros(3)
    trials = 2000
    for _ in range(trials):
        plan = apply_mask(seq, rng)
        n_selected += len(plan.selected)
        action_counts += np.bincount(plan.actions, minlength=3)
    assert abs(n_selected / (trials * 100) - 0.15) < 0.01
    fractions = action_counts / action_counts.sum()
    assert np.abs(fractions - [0.80, 0.10, 0.10]).max() < 0.02


def test_policy_validation():
    for mask_rate, random_rate in ((0.95, 0.1), (-0.1, 0.1), (np.nan, 0.1),
                                   (0.8, np.nan)):
        with pytest.raises(DataError):
            MaskingPolicy(mask_rate=mask_rate, random_rate=random_rate)
    with pytest.raises(DataError):
        MaskingPolicy(select_rate=0.0)


def test_corruption_hides_masked_types():
    policy = MaskingPolicy(select_rate=0.5)
    seq = np.random.default_rng(0).integers(0, 20, 40)
    plan = apply_mask(seq, np.random.default_rng(1), policy)
    corr = plan.corruption()
    kept = plan.selected[plan.actions == KEEP]
    assert np.array_equal(plan.corrupted[kept], seq[kept])
    assert set(corr.mask_positions) == set(plan.selected[plan.actions == MASK])
    assert set(corr.random_positions) == set(plan.selected[plan.actions == RANDOM])


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def test_adam_replay_reproduces_parameters(rng):
    model = FitnessModel(ModelConfig(mode="s2f", seed=1, **MODEL_KW))
    opt = Adam(model.params, lr=1e-3)
    log = []
    for step in range(3):
        grads = {k: rng.standard_normal(p.data.shape)
                 for k, p in model.params.items()}
        log.append(grads)
        opt.step(grads)
    final = {k: p.data.copy() for k, p in model.params.items()}

    replay_model = FitnessModel(ModelConfig(mode="s2f", seed=1, **MODEL_KW))
    replay_opt = Adam(replay_model.params, lr=1e-3)
    for grads in log:
        replay_opt.step(grads)
    for k in final:
        assert np.array_equal(replay_model.params[k].data, final[k])


def test_clip_gradients_norm():
    grads = {"a": np.array([3.0, 0.0]), "b": np.array([0.0, 4.0])}
    clipped = clip_gradients(grads, 1.0)
    total = np.sqrt(sum((g ** 2).sum() for g in clipped.values()))
    assert total == pytest.approx(1.0, rel=1e-9)
    untouched = clip_gradients(grads, 100.0)
    assert untouched["a"] is grads["a"]


# ---------------------------------------------------------------------------
# steps
# ---------------------------------------------------------------------------

def _items_for(protein, model_cfg, mode):
    item = CorpusItem(protein=protein)
    if mode in ("s2f", "s3f"):
        item.graph = build_radius_graph(protein.ca_coords,
                                        model_cfg.radius_cutoff,
                                        rbf=model_cfg.rbf)
    if mode in ("s3f", "surf_only"):
        cloud = generate_surface(protein, SURF, seed=0)
        item.cloud = cloud.with_features(surface_features(cloud, SURF))
    return item


def test_pretrain_step_deterministic():
    protein = make_motif_protein("p", 18, np.random.default_rng(2))
    model_cfg = ModelConfig(mode="s3f", seed=3, **MODEL_KW)
    states = []
    for _ in range(2):
        model = FitnessModel(model_cfg)
        opt = make_optimizer(model, TrainConfig(learning_rate=1e-3))
        item = _items_for(protein, model_cfg, "s3f")
        rng = np.random.default_rng(9)
        for _ in range(2):
            pretrain_step(model, [item], opt, MaskingPolicy(), rng, "s3f")
        states.append({k: p.data.copy() for k, p in model.params.items()})
    for k in states[0]:
        assert np.array_equal(states[0][k], states[1][k])


def test_initial_loss_near_uniform_entropy():
    protein = make_coil_protein(24, seed=4)
    model_cfg = ModelConfig(mode="s2f", seed=5, **MODEL_KW)
    model = FitnessModel(model_cfg)
    opt = make_optimizer(model, TrainConfig())
    item = _items_for(protein, model_cfg, "s2f")
    loss, _ = pretrain_step(model, [item], opt, MaskingPolicy(),
                            np.random.default_rng(1), "s2f")
    assert abs(loss - np.log(20.0)) < 0.2


def test_leakage_excision_brute_force_recheck():
    protein = make_motif_protein("p", 20, np.random.default_rng(6))
    cloud = generate_surface(protein, SURF, seed=0)
    cloud = cloud.with_features(surface_features(cloud, SURF))
    plan = apply_mask(protein.sequence, np.random.default_rng(7))
    reduced, emap = excise_near_residue(
        cloud, protein.ca_coords[plan.selected], 20)
    removed = set(emap.removed.tolist())
    for pos in plan.selected:
        d = np.linalg.norm(cloud.points - protein.ca_coords[pos], axis=1)
        top = sorted(range(cloud.n_points), key=lambda j: (d[j], j))[:20]
        assert set(top) <= removed
    # no removed point survives in the reduced cloud
    kept_rows = {tuple(p) for p in reduced.points}
    for j in removed:
        assert tuple(cloud.points[j]) not in kept_rows


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_loss_aborts():
    protein = make_coil_protein(12, seed=8)
    model_cfg = ModelConfig(mode="s2f", seed=9, **MODEL_KW)
    model = FitnessModel(model_cfg)
    model.params["head.b"].data += np.inf
    opt = make_optimizer(model, TrainConfig())
    item = _items_for(protein, model_cfg, "s2f")
    from protfit.errors import NumericsError
    with pytest.raises(NumericsError):
        pretrain_step(model, [item], opt, MaskingPolicy(),
                      np.random.default_rng(0), "s2f")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_update_aborts():
    # the loss is finite, so only the check after the update can catch this
    protein = make_coil_protein(12, seed=8)
    model_cfg = ModelConfig(mode="s2f", seed=9, **MODEL_KW)
    model = FitnessModel(model_cfg)
    item = _items_for(protein, model_cfg, "s2f")
    from protfit.errors import NumericsError
    with pytest.raises(NumericsError, match="non-finite parameters"):
        pretrain_step(model, [item], Adam(model.params, np.inf), MaskingPolicy(),
                      np.random.default_rng(0), "s2f")


# ---------------------------------------------------------------------------
# epoch loop
# ---------------------------------------------------------------------------

def test_pretrain_epochs_zero_equals_init(tmp_path):
    corpus_dir, model_cfg, train_cfg = tiny_setup(tmp_path)
    train_cfg = TrainConfig(epochs=0, seed=0)
    model, history = pretrain(corpus_dir, model_cfg, train_cfg, SURF,
                              out_dir=tmp_path / "run")
    assert history == []
    init = FitnessModel(model_cfg)
    for k, p in init.params.items():
        assert np.array_equal(model.params[k].data, p.data)
    ckpt = load_checkpoint(tmp_path / "run" / "checkpoint.s3fc")
    for k, p in init.params.items():
        assert np.array_equal(ckpt.params[k].data,
                              p.data.astype(np.float32).astype(np.float64))


def test_pretrain_two_runs_bit_identical(tmp_path):
    corpus_dir, model_cfg, train_cfg = tiny_setup(tmp_path)
    a, _ = pretrain(corpus_dir, model_cfg, train_cfg, SURF)
    b, _ = pretrain(corpus_dir, model_cfg, train_cfg, SURF)
    for k in a.params:
        assert np.array_equal(a.params[k].data, b.params[k].data)


def test_pretrain_resume_equivalence(tmp_path):
    corpus_dir, model_cfg, train_cfg = tiny_setup(tmp_path)
    full, _ = pretrain(corpus_dir, model_cfg, train_cfg, SURF,
                       out_dir=tmp_path / "run")
    resumed, _ = pretrain(
        corpus_dir, model_cfg, train_cfg, SURF,
        resume=tmp_path / "run" / "checkpoint_epoch0001.state.npz")
    for k in full.params:
        assert np.array_equal(full.params[k].data, resumed.params[k].data)


def _tiny_train_state(path, optimizer="adam"):
    model = FitnessModel(ModelConfig(mode="s2f", scalar_dim=2, vector_dim=1,
                                     structure_layers=1, embed_dim=2,
                                     rbf_kernels=2))
    opt = make_optimizer(model, TrainConfig(optimizer=optimizer))
    save_train_state(path, model, opt, np.random.default_rng(0), 1)
    return model


def test_train_state_cut_at_any_byte_is_data_error(tmp_path):
    path = tmp_path / "s.state.npz"
    _tiny_train_state(path)
    blob = path.read_bytes()
    cut = tmp_path / "cut.npz"
    for size in range(len(blob)):
        cut.write_bytes(blob[:size])
        with pytest.raises(DataError):
            load_train_state(cut)


@pytest.mark.parametrize("offset, value", [
    (10, 99),   # compression method zipfile does not implement
    (8, 1),     # general-purpose flag: entry is encrypted
])
def test_train_state_bad_zip_entry_is_data_error(tmp_path, offset, value):
    path = tmp_path / "s.state.npz"
    _tiny_train_state(path)
    blob = bytearray(path.read_bytes())
    blob[blob.index(b"PK\x01\x02") + offset] = value   # first central entry
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="unreadable resume state"):
        load_train_state(path)


def test_train_state_needs_every_parameter(tmp_path):
    path = tmp_path / "s.state.npz"
    model = _tiny_train_state(path)
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    np.savez(tmp_path / "drop.npz",
             **{k: v for k, v in arrays.items() if k != "p/head.b"})
    with pytest.raises(DataError, match="missing parameters.*head.b"):
        load_train_state(tmp_path / "drop.npz")
    np.savez(tmp_path / "extra.npz", **arrays, **{"p/extra": np.zeros(2)})
    with pytest.raises(DataError, match="unexpected array"):
        load_train_state(tmp_path / "extra.npz")
    # an SGD sidecar has no moments for Adam to resume from
    _tiny_train_state(tmp_path / "sgd.npz", optimizer="sgd")
    _, opt_state, _, _ = load_train_state(tmp_path / "sgd.npz")
    with pytest.raises(DataError, match="Adam moments"):
        Adam(model.params, 1e-3).load_state(opt_state)


def test_pretrain_loss_log_written(tmp_path):
    corpus_dir, model_cfg, train_cfg = tiny_setup(tmp_path)
    pretrain(corpus_dir, model_cfg, train_cfg, SURF, out_dir=tmp_path / "run",
             header_lines=["config_hash=abc"])
    text = (tmp_path / "run" / "loss_log.csv").read_text()
    assert text.startswith("# config_hash=abc")
    assert "epoch,step,loss,masked_acc" in text


def test_corpus_embedding_mismatch_rejected(tmp_path):
    corpus_dir, model_cfg, _ = tiny_setup(tmp_path)
    file_cfg = ModelConfig(mode="s2f", embedder="file", seed=0, **MODEL_KW)
    with pytest.raises(DataError, match="missing"):
        load_corpus(corpus_dir, file_cfg, SURF, "s2f")


def test_single_protein_overfit():
    """500 steps on one small protein memorize its sequence, including
    positions shown as the mask token or a wrong random type."""
    protein = make_motif_protein("p", 10, np.random.default_rng(10))
    model_cfg = ModelConfig(mode="s2f", seed=11,
                            **{**MODEL_KW, "scalar_dim": 24, "embed_dim": 64,
                               "init_hidden": 16})
    model = FitnessModel(model_cfg)
    cfg = TrainConfig(learning_rate=5e-3)
    opt = make_optimizer(model, cfg)
    item = _items_for(protein, model_cfg, "s2f")
    rng = np.random.default_rng(12)
    policy = MaskingPolicy()
    for _ in range(500):
        pretrain_step(model, [item], opt, policy, rng, "s2f")
    hits = total = 0
    eval_rng = np.random.default_rng(13)
    for _ in range(80):
        plan = apply_mask(protein.sequence, eval_rng, policy)
        rows = model.forward_logits(protein, plan.selected, mode="s2f",
                                    corruption=plan.corruption(),
                                    structure_graph=item.graph).data
        targets = protein.sequence[plan.selected]
        hits += int((rows.argmax(axis=1) == targets).sum())
        total += len(targets)
    assert hits / total > 0.95
