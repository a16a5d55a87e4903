import argparse
import csv
import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from protfit import cli
from protfit.corpus import make_motif_corpus, make_synthetic_variants
from protfit.gvp import load_checkpoint
from protfit.io import load_structure
from protfit.metrics import bootstrap_diff_stderr, read_report_csv, spearman
from protfit.scoring import read_scores_csv
from protfit.surface import SurfaceConfig, _field, read_cloud_tsv

SURFACE_FLAGS = ["--min-points", "48", "--max-points", "128",
                 "--seeds-per-atom", "16"]
MODEL_FLAGS = ["--scalar-dim", "16", "--vector-dim", "3", "--layers", "2",
               "--embed-dim", "16"]


def run_cli(*args, cwd=None):
    proc = subprocess.run([sys.executable, "-m", "protfit", *map(str, args)],
                          capture_output=True, text=True, cwd=cwd)
    return proc


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    proteins = make_motif_corpus(root / "corpus", n_proteins=3, n_res=22, seed=0)
    rng = np.random.default_rng(1)
    variants = make_synthetic_variants(proteins[0], 12, rng)
    with open(root / "assay.csv", "w") as fh:
        fh.write("mutant,DMS_score\nWT,0.0\n")
        for v in variants:
            fh.write(f"{v},{rng.normal():.6f}\n")
    return root, proteins, variants


@pytest.fixture(scope="module")
def trained(workspace):
    root, proteins, variants = workspace
    proc = run_cli("pretrain", root / "corpus", "--out-dir", root / "run",
                   "--epochs", "1", "--batch-size", "2", "--lr", "3e-3",
                   *MODEL_FLAGS, *SURFACE_FLAGS)
    assert proc.returncode == 0, proc.stderr
    return root / "run" / "checkpoint.s3fc"


# ---------------------------------------------------------------------------
# surface
# ---------------------------------------------------------------------------

def test_surface_dump_passes_level_residual(workspace, tmp_path):
    root, proteins, _ = workspace
    out = tmp_path / "cloud.tsv"
    proc = run_cli("surface", root / "corpus" / "motif000.tsv", "--out", out,
                   *SURFACE_FLAGS)
    assert proc.returncode == 0, proc.stderr
    cloud = read_cloud_tsv(out)
    protein = load_structure(root / "corpus" / "motif000.tsv")
    cfg = SurfaceConfig()
    residual = _field(cloud.points, protein.ca_coords, cfg.smoothing) - cfg.level
    assert np.abs(residual).max() < 1e-3
    assert cloud.features is not None and cloud.features.shape[1] == 5
    assert "config_hash=" in out.read_text()


def test_surface_missing_input_names_path(tmp_path):
    proc = run_cli("surface", tmp_path / "nope.tsv", "--out", tmp_path / "x.tsv")
    assert proc.returncode == 2
    assert "nope.tsv" in proc.stderr


def test_surface_reruns_bit_identical(workspace, tmp_path):
    root, _, _ = workspace
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    for out in (a, b):
        proc = run_cli("surface", root / "corpus" / "motif001.tsv",
                       "--out", out, *SURFACE_FLAGS, "--seed", "9")
        assert proc.returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_surface_config_file_layering(workspace, tmp_path):
    root, _, _ = workspace
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"min_points": 48, "max_points": 128,
                                    "seeds_per_atom": 16}))
    out = tmp_path / "c.tsv"
    proc = run_cli("surface", root / "corpus" / "motif000.tsv", "--out", out,
                   "--config", cfg_file)
    assert proc.returncode == 0, proc.stderr
    cloud = read_cloud_tsv(out)
    assert 48 <= cloud.n_points <= 128

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"not_a_key": 1}))
    proc = run_cli("surface", root / "corpus" / "motif000.tsv",
                   "--out", tmp_path / "d.tsv", "--config", bad)
    assert proc.returncode == 1


@pytest.mark.parametrize("overlay", [
    {"seeds_per_atom": "16"}, {"seeds_per_atom": 16.5}, {"smoothing": None},
    {"paper_scale": "no"}, {"seed": -1}, ["min_points", 48]])
def test_config_value_must_pass_its_flag_check(workspace, tmp_path, capsys,
                                               overlay):
    root, _, _ = workspace
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(overlay))
    out = tmp_path / "c.tsv"
    code = cli.main(["surface", str(root / "corpus" / "motif000.tsv"),
                     "--out", str(out), "--config", str(cfg_file)])
    assert code == 1
    assert "config" in capsys.readouterr().err
    assert not out.exists()


def test_cli_import_leaves_numpy_unloaded():
    """``main`` applies ``--threads`` before numpy loads, so importing the
    command-line module must not load it; package names still resolve."""
    probe = ("import sys, protfit.cli; loaded = 'numpy' in sys.modules; "
             "import protfit; print(loaded, protfit.FitnessModel.__name__)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "FitnessModel"]


def test_unknown_flag_is_usage_error(workspace):
    root, _, _ = workspace
    proc = run_cli("surface", root / "corpus" / "motif000.tsv",
                   "--out", "x.tsv", "--bogus-flag")
    assert proc.returncode == 1


@pytest.mark.slow
def test_surface_paper_scale_point_range(tmp_path):
    from protfit.corpus import make_motif_protein
    from protfit.io import serialize_structure
    protein = make_motif_protein("long", 150, np.random.default_rng(4))
    path = tmp_path / "long.tsv"
    path.write_text(serialize_structure(protein))
    out = tmp_path / "cloud.tsv"
    proc = run_cli("surface", path, "--out", out, "--paper-scale",
                   "--hks-eigenpairs", "16")
    assert proc.returncode == 0, proc.stderr
    cloud = read_cloud_tsv(out)
    assert 6000 <= cloud.n_points <= 20000


# ---------------------------------------------------------------------------
# pretrain
# ---------------------------------------------------------------------------

def test_pretrain_deterministic_checkpoints(workspace, tmp_path):
    root, _, _ = workspace
    outs = []
    for name in ("r1", "r2"):
        proc = run_cli("pretrain", root / "corpus", "--out-dir", tmp_path / name,
                       "--epochs", "1", "--batch-size", "2", *MODEL_FLAGS,
                       *SURFACE_FLAGS, "--seed", "3")
        assert proc.returncode == 0, proc.stderr
        outs.append((tmp_path / name / "checkpoint.s3fc").read_bytes())
    assert outs[0] == outs[1]


def test_pretrain_divergence_exits_3(workspace, tmp_path):
    # unnormalized blocks + unclipped giant SGD steps overflow in a few steps
    root, _, _ = workspace
    proc = run_cli("pretrain", root / "corpus", "--out-dir", tmp_path / "boom",
                   "--mode", "s2f", "--epochs", "5", "--lr", "1e9",
                   "--optimizer", "sgd", "--grad-clip", "0", "--no-normalize",
                   *MODEL_FLAGS)
    assert proc.returncode == 3
    assert "non-finite" in proc.stderr


@pytest.mark.parametrize("flag,value,field", [
    ("--scalar-dim", "-5", "scalar_dim"), ("--scalar-dim", "0", "scalar_dim"),
    ("--layers", "-1", "structure_layers"), ("--vector-dim", "0", "vector_dim"),
    ("--embed-dim", "0", "embed_dim"), ("--grad-clip", "-1", "grad_clip"),
    ("--checkpoint-every", "-1", "checkpoint_every"),
    ("--lr", "nan", "learning_rate"), ("--lr", "inf", "learning_rate")])
def test_pretrain_model_size_that_cannot_run_exits_2(workspace, tmp_path, flag,
                                                     value, field):
    root, _, _ = workspace
    proc = run_cli("pretrain", root / "corpus", "--out-dir", tmp_path / "bad",
                   "--mode", "s2f", "--epochs", "1", *MODEL_FLAGS, flag, value)
    assert proc.returncode == 2, proc.stderr
    assert field in proc.stderr
    assert not (tmp_path / "bad" / "checkpoint.s3fc").exists()


def test_pretrain_s2f_checkpoint_has_no_surface_tensors(workspace, tmp_path):
    root, _, _ = workspace
    proc = run_cli("pretrain", root / "corpus", "--out-dir", tmp_path / "s2f",
                   "--mode", "s2f", "--epochs", "1", *MODEL_FLAGS)
    assert proc.returncode == 0, proc.stderr
    model = load_checkpoint(tmp_path / "s2f" / "checkpoint.s3fc")
    assert not any(name.startswith(("surface.", "surface_init."))
                   for name in model.params)


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------

def test_score_wild_type_row_zero(workspace, trained, tmp_path):
    root, _, _ = workspace
    out = tmp_path / "scores.csv"
    proc = run_cli("score", trained, root / "corpus" / "motif000.tsv",
                   root / "assay.csv", "--out", out, *SURFACE_FLAGS)
    assert proc.returncode == 0, proc.stderr
    table = read_scores_csv(out)
    assert table["WT"] == 0.0
    assert len(table) == 13


def test_score_low_plddt_without_baseline_fails(workspace, trained, tmp_path):
    root, proteins, _ = workspace
    from protfit.io import serialize_structure
    import dataclasses
    protein = dataclasses.replace(proteins[0],
                                  plddt=np.full(proteins[0].n_residues, 69.0))
    low = tmp_path / "low.tsv"
    low.write_text(serialize_structure(protein))
    proc = run_cli("score", trained, low, root / "assay.csv",
                   "--out", tmp_path / "s.csv", *SURFACE_FLAGS)
    assert proc.returncode == 2
    assert "baseline" in proc.stderr


def test_score_ensemble_column_matches_oracle(workspace, trained, tmp_path):
    root, _, variants = workspace
    rng = np.random.default_rng(5)
    ext = tmp_path / "external.csv"
    ext_values = {}
    with open(ext, "w") as fh:
        fh.write("mutant,score\nWT,0.0\n")
        ext_values["WT"] = 0.0
        for v in variants:
            ext_values[v] = float(rng.normal())
            fh.write(f"{v},{ext_values[v]!r}\n")
    out = tmp_path / "scores.csv"
    proc = run_cli("score", trained, root / "corpus" / "motif000.tsv",
                   root / "assay.csv", "--out", out, "--external", ext,
                   *SURFACE_FLAGS)
    assert proc.returncode == 0, proc.stderr
    with open(out) as fh:
        rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
    model_scores = np.array([float(r["score"]) for r in rows])
    ens = np.array([float(r["ensembled"]) for r in rows])
    ext_scores = np.array([ext_values[r["mutant"]] for r in rows])
    za = (model_scores - model_scores.mean()) / model_scores.std()
    zb = (ext_scores - ext_scores.mean()) / ext_scores.std()
    assert np.abs(ens - (za + zb)).max() < 1e-10


def test_score_non_finite_external_exits_2(workspace, trained, tmp_path):
    root, _, variants = workspace
    ext = tmp_path / "external.csv"
    _write_scores(ext, [("WT", 0.0)] + [(v, 1.0 + i) for i, v in enumerate(variants)])
    ext.write_text(ext.read_text().replace(",2.0\n", ",inf\n"))
    proc = run_cli("score", trained, root / "corpus" / "motif000.tsv",
                   root / "assay.csv", "--out", tmp_path / "s.csv",
                   "--external", ext, *SURFACE_FLAGS)
    assert proc.returncode == 2, proc.stderr
    assert "non-finite score inf" in proc.stderr


@pytest.mark.parametrize("bad", ["missing", "inf"])
def test_score_bad_external_exits_2_before_scoring(workspace, trained, tmp_path,
                                                   monkeypatch, capsys, bad):
    from protfit import cli, scoring

    def no_scoring(*args, **kwargs):
        raise AssertionError("score_assay ran before --external was checked")

    monkeypatch.setattr(scoring, "score_assay", no_scoring)
    root, _, variants = workspace
    pairs = [("WT", 0.0)] + [(v, 1.0 + i) for i, v in enumerate(variants)]
    if bad == "missing":
        pairs = pairs[:-1]
    ext = tmp_path / "external.csv"
    _write_scores(ext, pairs)
    if bad == "inf":
        ext.write_text(ext.read_text().replace(",2.0\n", ",inf\n"))
    out = tmp_path / "s.csv"
    code = cli.main(["score", str(trained), str(root / "corpus" / "motif000.tsv"),
                     str(root / "assay.csv"), "--out", str(out),
                     "--external", str(ext), *SURFACE_FLAGS])
    assert code == 2
    assert ("external scores missing 1 variants" if bad == "missing"
            else "non-finite score inf") in capsys.readouterr().err
    assert not out.exists()


def test_config_not_utf8_is_usage_error(workspace, tmp_path):
    root, _, _ = workspace
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_bytes(b'{"seed": 1}\xff')
    proc = run_cli("surface", root / "corpus" / "motif000.tsv",
                   "--out", tmp_path / "c.tsv", "--config", cfg_file)
    assert proc.returncode == 1, proc.stderr
    assert "bad config file" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_score_truncated_checkpoint_exits_2(workspace, trained, tmp_path):
    root, _, _ = workspace
    cut = tmp_path / "cut.s3fc"
    cut.write_bytes(trained.read_bytes()[:-5])
    proc = run_cli("score", cut, root / "corpus" / "motif000.tsv",
                   root / "assay.csv", "--out", tmp_path / "s.csv",
                   *SURFACE_FLAGS)
    assert proc.returncode == 2, proc.stderr
    assert "truncated checkpoint" in proc.stderr


def test_score_ablation_mode_override(workspace, trained, tmp_path):
    root, _, _ = workspace
    out = tmp_path / "s2f_scores.csv"
    proc = run_cli("score", trained, root / "corpus" / "motif000.tsv",
                   root / "assay.csv", "--out", out, "--mode", "s2f")
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _write_scores(path, pairs):
    with open(path, "w") as fh:
        fh.write("mutant,score\n")
        for mutant, score in pairs:
            fh.write(f"{mutant},{float(score)!r}\n")


def test_eval_perfect_scores(workspace, tmp_path):
    root, _, _ = workspace
    from protfit.io import load_assay
    assay = load_assay(root / "assay.csv")
    scores = tmp_path / "perfect.csv"
    _write_scores(scores, [(v.mutant, v.dms_score) for v in assay.variants])
    out = tmp_path / "report.csv"
    proc = run_cli("eval", "--scores", scores, "--assay", root / "assay.csv",
                   "--out", out)
    assert proc.returncode == 0, proc.stderr
    report = read_report_csv(out)
    row = report["assays"][0]
    assert row["spearman"] == pytest.approx(1.0)
    assert row["ndcg"] == pytest.approx(1.0)
    assert row["recall10"] == pytest.approx(1.0)


def test_eval_group_by_depth(workspace, tmp_path):
    root, _, _ = workspace
    from protfit.io import load_assay
    assay = load_assay(root / "assay.csv")
    rng = np.random.default_rng(7)
    scores = tmp_path / "s.csv"
    _write_scores(scores, [(v.mutant, float(rng.normal()))
                           for v in assay.variants])
    out = tmp_path / "report.csv"
    proc = run_cli("eval", "--scores", scores, "--assay", root / "assay.csv",
                   "--out", out, "--group-by", "depth")
    assert proc.returncode == 0, proc.stderr
    report = read_report_csv(out)
    assert set(report["groups"]) <= {"1", "2"}
    assert len(report["groups"]) == 2
    assert report["aggregate"] is not None


def _two_model_eval_args(tmp_path):
    """eval arguments for three synthetic assays scored by two models, and
    each model's per-assay Spearman."""
    rng = np.random.default_rng(8)
    args, spear_a, spear_b = [], [], []
    for k in range(3):
        apath = tmp_path / f"assay{k}.csv"
        mutants = [f"A{i + 1}G" for i in range(15)]
        dms = rng.normal(size=15)
        with open(apath, "w") as fh:
            fh.write("mutant,DMS_score\n")
            for m, s in zip(mutants, dms):
                fh.write(f"{m},{float(s)!r}\n")
        sa = rng.normal(size=15)
        sb = rng.normal(size=15)
        pa, pb = tmp_path / f"a{k}.csv", tmp_path / f"b{k}.csv"
        _write_scores(pa, zip(mutants, sa))
        _write_scores(pb, zip(mutants, sb))
        args += ["--assay", apath, "--scores", pa, "--scores-b", pb]
        spear_a.append(spearman(sa, dms))
        spear_b.append(spearman(sb, dms))
    return args, spear_a, spear_b


def test_eval_bootstrap_matches_module_oracle(tmp_path):
    pairs, spear_a, spear_b = _two_model_eval_args(tmp_path)
    out = tmp_path / "report.json"
    proc = run_cli("eval", "--out", out, "--format", "json", "--bootstrap",
                   "4000", "--seed", "17", *pairs)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    expected = bootstrap_diff_stderr(spear_a, spear_b, n_boot=4000, seed=17)
    assert payload["significance"]["spearman_diff_stderr"] == pytest.approx(expected)
    assert payload["significance"]["spearman_diff_mean"] == pytest.approx(
        float(np.mean(spear_a) - np.mean(spear_b)))


def test_eval_negative_bootstrap_exits_2_and_zero_is_off(tmp_path):
    pairs, _, _ = _two_model_eval_args(tmp_path)
    out = tmp_path / "report.json"
    proc = run_cli("eval", "--out", out, "--format", "json", "--bootstrap",
                   "-5", *pairs)
    assert proc.returncode == 2, proc.stderr
    assert "bootstrap" in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()
    proc = run_cli("eval", "--out", out, "--format", "json", "--bootstrap",
                   "0", *pairs)
    assert proc.returncode == 0, proc.stderr
    assert "significance" not in json.loads(out.read_text())


def test_eval_missing_score_for_variant(workspace, tmp_path):
    root, _, _ = workspace
    scores = tmp_path / "short.csv"
    _write_scores(scores, [("WT", 0.0)])
    proc = run_cli("eval", "--scores", scores, "--assay", root / "assay.csv",
                   "--out", tmp_path / "r.csv")
    assert proc.returncode == 2


# ---------------------------------------------------------------------------
# embed-pack
# ---------------------------------------------------------------------------

def test_embed_pack_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    matrix = rng.standard_normal((6, 4)).astype(np.float32)
    src = tmp_path / "m.txt"
    np.savetxt(src, matrix)
    out = tmp_path / "m.s3fe"
    proc = run_cli("embed-pack", src, "--out", out, "--tag", "masked:2")
    assert proc.returncode == 0, proc.stderr
    from protfit.io import load_embeddings
    emb = load_embeddings(out)
    assert emb.context_tag == "masked:2"
    assert np.abs(emb.rows - matrix).max() < 1e-6
    # --config and --seed would do nothing here, so they are not flags
    for extra in (["--config", tmp_path / "none.json"], ["--seed", "-7"]):
        proc = run_cli("embed-pack", src, "--out", tmp_path / "x.s3fe", *extra)
        assert proc.returncode == 1
        assert "unrecognized arguments" in proc.stderr


# ---------------------------------------------------------------------------
# every numeric flag at its edge values
# ---------------------------------------------------------------------------

def _numeric_options():
    """(command, flag) for every typed (int, float or seed) option of every
    subcommand except --threads, which would start that many BLAS threads."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    return [(name, action.option_strings[0])
            for name, sub in commands.items() for action in sub._actions
            if action.option_strings and action.type is not None
            and action.dest != "threads"]


def _base_argv(command, workspace, trained, out):
    root, _, _ = workspace
    structure = root / "corpus" / "motif000.tsv"
    if command == "surface":
        return ["surface", structure, "--out", out / "cloud.tsv", *SURFACE_FLAGS]
    if command == "pretrain":
        return ["pretrain", root / "corpus", "--out-dir", out, "--epochs", "1",
                "--batch-size", "2", "--lr", "3e-3", *MODEL_FLAGS, *SURFACE_FLAGS]
    if command == "score":
        return ["score", trained, structure, root / "assay.csv",
                "--out", out / "scores.csv", *SURFACE_FLAGS]
    assert command == "eval"
    return ["eval", *_two_model_eval_args(out)[0], "--out", out / "report.json",
            "--format", "json", "--bootstrap", "20"]


def _non_finite_outputs(folder):
    """Files under ``folder`` holding a NaN or infinite number."""
    bad = []
    for path in sorted(p for p in folder.rglob("*") if p.is_file()):
        if path.suffix == ".s3fc":
            finite = all(np.isfinite(p.data).all()
                         for p in load_checkpoint(path).params.values())
        elif path.suffix == ".npz":
            with np.load(path) as data:
                finite = all(np.isfinite(data[k]).all() for k in data.files
                             if data[k].dtype.kind == "f")
        else:
            finite = True
            for token in re.split(r'[\s,=:{}\[\]"]+', path.read_text()):
                try:
                    finite = finite and math.isfinite(float(token))
                except ValueError:
                    pass
        if not finite:
            bad.append(path.name)
    return bad


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize("command,flag", _numeric_options())
def test_numeric_flag_edge_values_keep_the_exit_contract(
        workspace, trained, tmp_path, command, flag, value):
    out = tmp_path / "out"
    out.mkdir()
    argv = _base_argv(command, workspace, trained, out) + [flag, value]
    code = cli.main([str(a) for a in argv])
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert _non_finite_outputs(out) == []
