import argparse
import csv
import dataclasses
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg

from conftest import overwrite_checkpoint_value
from oracle import read_report_csv
from protfit import cli, io, metrics, surface
from protfit.corpus import make_motif_corpus, make_synthetic_variants
from protfit.errors import NumericsError
from protfit.gvp import (FitnessModel, ModelConfig, load_checkpoint,
                         save_checkpoint)
from protfit.io import load_structure
from protfit.metrics import bootstrap_diff_stderr, spearman
from protfit.scoring import read_scores_csv
from protfit.surface import (SurfaceConfig, _field, generate_surface,
                             read_cloud_tsv, write_cloud_tsv)

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


def test_surface_laplacian_factor_failure_exits_3(workspace, tmp_path,
                                                  monkeypatch, capsys):
    root, proteins, _ = workspace

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)
    cfg = SurfaceConfig(min_points=48, max_points=128, seeds_per_atom=16)
    cloud = generate_surface(proteins[0], cfg)
    with pytest.raises(NumericsError, match="exactly singular"):
        surface.surface_features(cloud, cfg)
    out = tmp_path / "cloud.tsv"
    code = cli.main(["surface", str(root / "corpus" / "motif000.tsv"),
                     "--out", str(out), *SURFACE_FLAGS])
    assert code == 3
    assert "exactly singular" in capsys.readouterr().err
    assert not out.exists()


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
    {"per_site_gating": "no"}, {"seed": -1}, ["min_points", 48],
    {"atom_radius": 10 ** 400}])
def test_config_value_must_pass_its_flag_check(workspace, trained, tmp_path,
                                               capsys, overlay):
    """``score`` takes the surface flags and a switch, so one command
    covers the number, null, true/false and JSON-object rules."""
    root, _, _ = workspace
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(overlay))
    out = tmp_path / "scores.csv"
    code = cli.main([str(a) for a in (
        "score", trained, root / "corpus" / "motif000.tsv", root / "assay.csv",
        "--out", out, "--config", cfg_file)])
    assert code == 1
    assert "config" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["surface", "embed-pack"])
def test_negative_threads_is_usage_error(tmp_path, capsys, monkeypatch, command):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    code = cli.main([command, str(tmp_path / "in.txt"),
                     "--out", str(tmp_path / "out"), "--threads", "-1"])
    assert code == 1
    assert "--threads" in capsys.readouterr().err
    assert "OPENBLAS_NUM_THREADS" not in os.environ


def test_cli_import_leaves_numpy_unloaded():
    """``main`` applies ``--threads`` before numpy loads, so importing the
    command-line module must not load it; package names still resolve.
    The import is also kept small: no ``dataclasses`` (the config classes
    are read only inside the commands) and no protfit module but the
    package and its errors."""
    probe = ("import sys, protfit.cli; "
             "loaded = sorted(m for m in sys.modules if m == 'numpy' "
             "or m == 'dataclasses' or m.split('.')[0] == 'protfit'); "
             "import protfit; print(*loaded, protfit.FitnessModel.__name__)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["protfit", "protfit.cli", "protfit.errors",
                                   "FitnessModel"]


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
    proc = run_cli("surface", path, "--out", out, "--min-points", "6000",
                   "--max-points", "20000", "--hks-eigenpairs", "16")
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


def test_default_thread_cap_outputs_do_not_depend_on_blas_env(tmp_path):
    """With no --threads flag, pretrain and score write the same bytes
    whether the environment asks OpenBLAS for one thread or two. Default
    model widths on 40-residue proteins with desk-scale clouds are large
    enough that an uncapped two-thread run splits the weight-gradient
    products and moves the optimizer state (ROADMAP item 7)."""
    proteins = make_motif_corpus(tmp_path / "corpus", n_proteins=3, n_res=40, seed=0)
    rng = np.random.default_rng(1)
    with open(tmp_path / "assay.csv", "w") as fh:
        fh.write("mutant,DMS_score\n")
        for v in make_synthetic_variants(proteins[0], 12, rng):
            fh.write(f"{v},{rng.normal():.6f}\n")
    desk = ["--min-points", "128", "--max-points", "224", "--seeds-per-atom", "16"]
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        for argv in (["pretrain", tmp_path / "corpus", "--out-dir", out,
                      "--epochs", "1", "--batch-size", "2", *desk],
                     ["score", out / "checkpoint.s3fc", tmp_path / "corpus" / "motif000.tsv",
                      tmp_path / "assay.csv", "--out", out / "scores.csv", *desk]):
            proc = subprocess.run([sys.executable, "-m", "protfit", *map(str, argv)],
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
        written.append({name: (out / name).read_bytes()
                        for name in ("checkpoint.s3fc", "checkpoint.state.npz",
                                     "loss_log.csv", "scores.csv")})
    for name, data in written[0].items():
        assert written[1][name] == data, name


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _header_run(command, workspace, trained, out):
    """Arguments of a small run of ``command`` and the file whose header
    it writes, both under ``out``."""
    root, _, variants = workspace
    structure = root / "corpus" / "motif000.tsv"
    if command == "surface":
        return ["surface", structure, "--out", out / "c.tsv", *SURFACE_FLAGS], out / "c.tsv"
    if command == "pretrain":
        return (["pretrain", root / "corpus", "--out-dir", out, "--epochs", "0",
                 *MODEL_FLAGS, *SURFACE_FLAGS], out / "loss_log.csv")
    if command == "score":
        return (["score", trained, structure, root / "assay.csv", "--out",
                 out / "s.csv", *SURFACE_FLAGS], out / "s.csv")
    _write_scores(out / "scores.csv", [("WT", 0.0)] + [
        (v, 1.0 + i) for i, v in enumerate(variants)])
    return (["eval", "--scores", out / "scores.csv", "--assay", root / "assay.csv",
             "--out", out / "r.csv"], out / "r.csv")


@pytest.mark.parametrize("command", ["surface", "pretrain", "score", "eval"])
def test_outputs_record_the_blas_thread_cap(workspace, trained, tmp_path,
                                            monkeypatch, command):
    """Every output header names the BLAS thread cap the run had: the
    --threads value, or with --threads 0 the environment's (or "unset").
    The config and its hash do not include it."""
    cases = [([], None, "1"), (["--threads", "2"], None, "2"),
             (["--threads", "0"], "3", "3"), (["--threads", "0"], None, "unset")]
    hashes = set()
    for i, (flags, env, want) in enumerate(cases):
        for var in THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        if env is not None:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", env)
        out = tmp_path / str(i)
        out.mkdir()
        argv, written = _header_run(command, workspace, trained, out)
        assert cli.main([str(a) for a in argv + flags]) == 0
        header = [line for line in written.read_text().splitlines()
                  if line.startswith("# ")]
        assert f"# blas_threads={want}" in header
        hashes.update(line for line in header if line.startswith("# config_hash="))
    assert len(hashes) == 1


def test_threads_flag_leaves_the_callers_environment(workspace, trained, tmp_path,
                                                     monkeypatch):
    """An in-process run restores the three thread variables as it found
    them, set or unset, also when it fails, so a later --threads 0 run
    records the caller's value rather than the earlier run's cap."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.setenv("OMP_NUM_THREADS", "4")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    before = {var: os.environ.get(var) for var in THREAD_VARS}
    runs = [tmp_path / name for name in ("capped", "failed", "caller")]
    for out in runs:
        out.mkdir()
    argv, _ = _header_run("eval", workspace, trained, runs[0])
    assert cli.main([str(a) for a in argv + ["--threads", "2"]]) == 0
    assert {var: os.environ.get(var) for var in THREAD_VARS} == before
    assert cli.main(["eval", "--scores", str(runs[1] / "missing.csv"), "--assay",
                     str(runs[1] / "missing.csv"), "--out", str(runs[1] / "r.csv"),
                     "--threads", "2"]) == 2
    assert {var: os.environ.get(var) for var in THREAD_VARS} == before
    argv, written = _header_run("eval", workspace, trained, runs[2])
    assert cli.main([str(a) for a in argv + ["--threads", "0"]]) == 0
    assert "# blas_threads=3" in written.read_text().splitlines()


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


def test_pretrain_resume_past_epochs_exits_2(workspace, trained, tmp_path,
                                             capsys):
    """A sidecar whose next epoch exceeds --epochs would train nothing and
    rewrite the sidecar with a wrong epoch; the run must write nothing."""
    root, _, _ = workspace
    run = tmp_path / "run"
    shutil.copytree(trained.parent, run)
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    code = cli.main([str(a) for a in (
        "pretrain", root / "corpus", "--out-dir", run, "--epochs", "0",
        "--resume", run / "checkpoint.state.npz", *MODEL_FLAGS,
        *SURFACE_FLAGS)])
    assert code == 2
    assert "past epochs=0" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


@pytest.mark.parametrize("flags, message", [
    (["--epochs", "0"], "past epochs=0"),
    (["--epochs", "1", "--seed", "5"], "does not match")])
def test_rejected_resume_generates_no_surface(workspace, trained, tmp_path,
                                              capsys, monkeypatch, flags,
                                              message):
    """The sidecar is checked before the corpus is loaded, so a rejected
    resume in s3f reports its error without generating any cloud."""
    root, _, _ = workspace
    calls = []
    real = surface.generate_surface

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(surface, "generate_surface", counted)
    out = tmp_path / "run"
    code = cli.main([str(a) for a in (
        "pretrain", root / "corpus", "--out-dir", out, "--mode", "s3f",
        "--resume", trained.parent / "checkpoint.state.npz", *flags,
        *MODEL_FLAGS, *SURFACE_FLAGS)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_pretrain_missing_clouds_dir_exits_2(workspace, tmp_path, capsys):
    root, _, _ = workspace
    out = tmp_path / "run"
    code = cli.main([str(a) for a in (
        "pretrain", root / "corpus", "--out-dir", out, "--mode", "s3f",
        "--epochs", "0", "--clouds", tmp_path / "nope", *MODEL_FLAGS,
        *SURFACE_FLAGS)])
    assert code == 2
    assert "clouds directory not found" in capsys.readouterr().err
    assert not out.exists()


def test_pretrain_s2f_checkpoint_has_no_surface_tensors(workspace, tmp_path):
    root, _, _ = workspace
    proc = run_cli("pretrain", root / "corpus", "--out-dir", tmp_path / "s2f",
                   "--mode", "s2f", "--epochs", "1", *MODEL_FLAGS)
    assert proc.returncode == 0, proc.stderr
    model = load_checkpoint(tmp_path / "s2f" / "checkpoint.s3fc")
    assert not any(name.startswith(("surface.", "surface_init."))
                   for name in model.params)


def test_pretrain_defaults_are_the_model_config_defaults(workspace, tmp_path):
    root, _, _ = workspace
    code = cli.main([str(a) for a in ("pretrain", root / "corpus", "--out-dir",
                                      tmp_path, "--epochs", "0", *SURFACE_FLAGS)])
    assert code == 0
    assert load_checkpoint(tmp_path / "checkpoint.s3fc").config == ModelConfig()


@pytest.mark.parametrize("argv, n_keys, config_hash", [
    (["surface", "s.tsv", "--out", "o"], 10, "92fc55763e6099a4"),
    (["pretrain", "corpus", "--out-dir", "o"], 23, "c0a9ff7bd413a163"),
    (["score", "c.s3fc", "s.tsv", "a.csv", "--out", "o"], 14, "858bff72a93f604a"),
    (["eval", "--scores", "s.csv", "--assay", "a.csv", "--out", "o"], 4,
     "1863016674946587"),
], ids=["surface", "pretrain", "score", "eval"])
def test_default_resolved_config_is_pinned(argv, n_keys, config_hash):
    """With no option set, each command resolves to the same config (and
    so writes the same header) as when its defaults were written out in
    the command-line module."""
    resolved = cli._resolve(cli.build_parser().parse_args(argv))
    assert len(resolved) == n_keys
    assert cli._hash_config(resolved) == config_hash


def test_every_config_field_has_a_flag():
    """A config field that no flag or config key sets is a knob no run can
    turn. The one exception is the surface-init width, which perfbench's
    toy model shrinks."""
    from protfit.training import TrainConfig
    set_by_flags = {name for sub in _subcommands().values()
                    for action in sub._actions
                    for name in cli._RENAMED.get(action.dest, (action.dest,))}
    unset = {f"{cls.__name__}.{f.name}"
             for cls in (ModelConfig, SurfaceConfig, TrainConfig)
             for f in dataclasses.fields(cls) if f.name not in set_by_flags}
    assert unset == {"ModelConfig.init_hidden"}


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


def test_score_non_finite_checkpoint_exits_2(workspace, trained, tmp_path):
    root, _, _ = workspace
    bad = tmp_path / "nan.s3fc"
    shutil.copyfile(trained, bad)
    overwrite_checkpoint_value(bad, "head.w", 0x7FA00000)
    proc = run_cli("score", bad, root / "corpus" / "motif000.tsv",
                   root / "assay.csv", "--out", tmp_path / "s.csv", *SURFACE_FLAGS)
    assert proc.returncode == 2, proc.stderr
    assert "non-finite values in tensor 'head.w'" in proc.stderr
    assert not (tmp_path / "s.csv").exists()


def test_score_two_chain_pdb_exits_2(workspace, trained, tmp_path):
    """The motif protein written as a PDB file whose second half is chain
    B, numbered on from chain A, is a data error naming both chains."""
    root, proteins, _ = workspace
    protein = proteins[0]
    three = {one: three for three, one in io.THREE_TO_ONE.items()}
    half = protein.n_residues // 2
    pdb = tmp_path / "two_chains.pdb"
    pdb.write_text("".join(
        f"ATOM  {i + 1:5d}  CA  {three[io.RESIDUE_TYPES[t]]} {'A' if i < half else 'B'}"
        f"{i + 1:4d}    {x:8.3f}{y:8.3f}{z:8.3f}  1.00 90.00           C\n"
        for i, (t, (x, y, z)) in enumerate(zip(protein.sequence, protein.ca_coords))))
    proc = run_cli("score", trained, pdb, root / "assay.csv",
                   "--out", tmp_path / "s.csv", *SURFACE_FLAGS)
    assert proc.returncode == 2, proc.stderr
    assert "CA atom of chain 'B' after chain 'A'" in proc.stderr
    assert not (tmp_path / "s.csv").exists()


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


def test_score_embeddings_with_toy_checkpoint_is_usage_error(
        workspace, trained, tmp_path, capsys):
    root, _, _ = workspace
    out = tmp_path / "s.csv"
    code = cli.main([str(a) for a in (
        "score", trained, root / "corpus" / "motif000.tsv", root / "assay.csv",
        "--out", out, "--embeddings", tmp_path / "nope", *SURFACE_FLAGS)])
    assert code == 1
    assert "--embeddings" in capsys.readouterr().err
    assert not out.exists()


def test_score_truncated_checkpoint_exits_2(workspace, trained, tmp_path):
    root, _, _ = workspace
    cut = tmp_path / "cut.s3fc"
    cut.write_bytes(trained.read_bytes()[:-5])
    proc = run_cli("score", cut, root / "corpus" / "motif000.tsv",
                   root / "assay.csv", "--out", tmp_path / "s.csv",
                   *SURFACE_FLAGS)
    assert proc.returncode == 2, proc.stderr
    assert "truncated checkpoint" in proc.stderr


@pytest.mark.parametrize("mode, wild_type_only", [
    ("s3f", True), ("s3f", False), ("surf_only", False)])
def test_score_mode_the_checkpoint_cannot_run_generates_no_surface(
        workspace, tmp_path, capsys, monkeypatch, mode, wild_type_only):
    """An s2f checkpoint has no surface stack. The mode is checked against
    it before any work, so the run exits 2 without generating a surface
    or writing scores, even for an assay that needs no forward pass."""
    root, _, _ = workspace
    checkpoint = tmp_path / "s2f" / "checkpoint.s3fc"
    assert cli.main([str(a) for a in (
        "pretrain", root / "corpus", "--out-dir", checkpoint.parent,
        "--mode", "s2f", "--epochs", "0", *MODEL_FLAGS)]) == 0
    assay = root / "assay.csv"
    if wild_type_only:
        assay = tmp_path / "wt.csv"
        assay.write_text("mutant,DMS_score\nWT,0.0\n")
    calls = []
    real = surface.generate_surface

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(surface, "generate_surface", counted)
    out = tmp_path / "scores.csv"
    code = cli.main([str(a) for a in (
        "score", checkpoint, root / "corpus" / "motif000.tsv", assay,
        "--out", out, "--mode", mode, *SURFACE_FLAGS)])
    assert code == 2
    assert f"model built for 's2f' cannot run {mode!r}" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_score_ablation_mode_override(workspace, trained, tmp_path):
    root, _, _ = workspace
    out = tmp_path / "s2f_scores.csv"
    proc = run_cli("score", trained, root / "corpus" / "motif000.tsv",
                   root / "assay.csv", "--out", out, "--mode", "s2f")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command", ["score", "pretrain"])
def test_cloud_dump_without_features_exits_2(workspace, trained, tmp_path,
                                             capsys, command):
    root, _, _ = workspace
    protein = load_structure(root / "corpus" / "motif000.tsv")
    cloud = generate_surface(protein, SurfaceConfig(
        min_points=48, max_points=128, seeds_per_atom=16))
    dump = tmp_path / "motif000.surface.tsv"
    if command == "score":
        argv = ["score", trained, root / "corpus" / "motif000.tsv",
                root / "assay.csv", "--out", tmp_path / "scores.csv",
                "--cloud", dump]
    else:
        argv = ["pretrain", root / "corpus", "--out-dir", tmp_path / "run",
                "--epochs", "1", *MODEL_FLAGS, *SURFACE_FLAGS,
                "--clouds", tmp_path]
    # no feature columns, and fewer than the model reads
    for features in (None, np.ones((cloud.n_points, 3))):
        write_cloud_tsv(cloud if features is None
                        else cloud.with_features(features), dump)
        assert cli.main([str(a) for a in argv]) == 2
        width = 0 if features is None else 3
        assert f"{width} feature columns" in capsys.readouterr().err


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


@pytest.mark.parametrize("source", ["flag", "config"])
def test_eval_bootstrap_without_scores_b_is_usage_error(tmp_path, capsys, source):
    pairs, _, _ = _two_model_eval_args(tmp_path)
    one_model = [a for i, a in enumerate(pairs) if i % 6 < 4]   # no --scores-b
    if source == "flag":
        extra = ["--bootstrap", "100"]
    else:
        (tmp_path / "boot.json").write_text('{"bootstrap": 100}')
        extra = ["--config", tmp_path / "boot.json"]
    out = tmp_path / "report.json"
    code = cli.main([str(a) for a in ("eval", "--out", out, *one_model, *extra)])
    assert code == 1
    assert "--scores-b" in capsys.readouterr().err
    assert not out.exists()


def test_eval_names_the_assay_a_metric_rejects(workspace, tmp_path, capsys):
    """AUC and MCC have no value on one label class, and Spearman none on
    constant scores: eval exits 2 and names the assay."""
    root, _, _ = workspace
    from protfit.io import load_assay
    assay = load_assay(root / "assay.csv")
    one_class, other = tmp_path / "one_class.csv", tmp_path / "other.csv"
    with open(one_class, "w") as fh:
        fh.write("mutant,DMS_score,DMS_score_bin\n")
        for v in assay.variants:
            fh.write(f"{v.mutant},{v.dms_score!r},1\n")
    shutil.copy(root / "assay.csv", other)
    scores, flat = tmp_path / "s.csv", tmp_path / "flat.csv"
    _write_scores(scores, [(v.mutant, i) for i, v in enumerate(assay.variants)])
    _write_scores(flat, [(v.mutant, 0.0) for v in assay.variants])
    for argv, named in (
            (["--assay", root / "assay.csv", "--scores", scores,
              "--assay", one_class, "--scores", scores],
             "one_class: both classes must be present"),
            (["--assay", root / "assay.csv", "--scores", scores,
              "--scores-b", scores, "--assay", other, "--scores", scores,
              "--scores-b", flat],
             "other (--scores-b): zero rank variance")):
        code = cli.main([str(a) for a in ("eval", *argv,
                                          "--out", tmp_path / "r.csv")])
        assert code == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()


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


@pytest.mark.parametrize("text", ["", "# header only\n\n"])
def test_embed_pack_matrix_without_rows_exits_2(tmp_path, capsys, text):
    src = tmp_path / "m.txt"
    src.write_text(text)
    out = tmp_path / "m.s3fe"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["embed-pack", str(src), "--out", str(out)])
    assert code == 2
    assert "no rows" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# every numeric flag at its edge values
# ---------------------------------------------------------------------------

def _subcommands():
    """Subcommand name -> its parser, from ``build_parser()``."""
    return next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _numeric_options():
    """(command, flag) for every typed (int, float or non-negative int)
    option of every subcommand except --threads, which would start that
    many BLAS threads."""
    return [(name, action.option_strings[0])
            for name, sub in _subcommands().items() for action in sub._actions
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


# ---------------------------------------------------------------------------
# every path argument at a path that cannot be read or written
# ---------------------------------------------------------------------------

# What each path argument of each subcommand names: a file that is read
# ("in"), a directory that is read ("in_dir"), a file that is written
# ("out") or a directory that outputs are written into ("out_dir").
PATH_KINDS = {
    "surface": {"structure": "in", "out": "out", "config": "in"},
    "pretrain": {"corpus": "in_dir", "out_dir": "out_dir", "resume": "in",
                 "clouds": "in_dir", "config": "in"},
    "score": {"checkpoint": "in", "structure": "in", "assay": "in",
              "out": "out", "embeddings": "in_dir", "baseline": "in",
              "external": "in", "cloud": "in", "config": "in"},
    "eval": {"scores": "in", "assay": "in", "out": "out", "scores_b": "in",
             "config": "in"},
    "embed-pack": {"matrix": "in", "out": "out"},
}


def test_path_table_covers_every_path_argument():
    """Every argument that takes a value but has no type and no choices
    names a path, except --group-by (a column) and --tag (a text)."""
    found = {name: {action.dest for action in sub._actions
                    if action.type is None and action.choices is None
                    and action.nargs != 0
                    and action.dest not in ("group_by", "tag")}
             for name, sub in _subcommands().items()}
    assert found == {name: set(kinds) for name, kinds in PATH_KINDS.items()}


def _bad_path(kind, case, tmp_path):
    """A path of the wrong kind for ``kind`` (a directory for a file, a
    file for a directory), or a missing one (for an output: one inside a
    missing directory, or inside a file)."""
    folder, regular = tmp_path / "a_dir", tmp_path / "a_file"
    folder.mkdir()
    regular.write_text("x\n")
    if case == "wrong_kind":
        return regular if kind in ("in_dir", "out_dir") else folder
    return {"in": tmp_path / "missing", "in_dir": tmp_path / "missing",
            "out": tmp_path / "missing" / "x", "out_dir": regular / "x"}[kind]


def _path_run(command, dest, workspace, trained, tmp_path):
    """(dest -> value of each required path argument, other arguments) of
    a valid run of ``command`` that reads ``dest`` when it is given."""
    root, _, variants = workspace
    structure = root / "corpus" / "motif000.tsv"
    out = tmp_path / "out"
    out.mkdir()
    if command == "surface":
        paths = {"structure": structure, "out": out / "c.tsv"}
        extra = SURFACE_FLAGS
    elif command == "pretrain":
        paths = {"corpus": root / "corpus", "out_dir": out}
        extra = ["--epochs", "1", "--batch-size", "2", *MODEL_FLAGS,
                 *SURFACE_FLAGS]
    elif command == "score":
        paths = {"checkpoint": trained, "structure": structure,
                 "assay": root / "assay.csv", "out": out / "s.csv"}
        extra = SURFACE_FLAGS
        if dest == "embeddings":   # read by file-mode checkpoints only
            paths["checkpoint"] = tmp_path / "file.s3fc"
            save_checkpoint(FitnessModel(ModelConfig(
                mode="s2f", embedder="file", scalar_dim=4, vector_dim=2,
                structure_layers=1, embed_dim=4)), paths["checkpoint"])
    elif command == "eval":
        paths = {"scores": tmp_path / "scores.csv",
                 "assay": root / "assay.csv", "out": out / "r.csv"}
        _write_scores(paths["scores"], [("WT", 0.0)] + [
            (v, 1.0 + i) for i, v in enumerate(variants)])
        extra = []
    else:
        matrix = tmp_path / "m.txt"
        matrix.write_text("1 2\n3 4\n")
        paths, extra = {"matrix": matrix, "out": out / "m.s3fe"}, []
    return paths, extra


@pytest.mark.parametrize("case", ["wrong_kind", "missing"])
@pytest.mark.parametrize("command,dest", [
    (command, dest) for command in PATH_KINDS for dest in PATH_KINDS[command]])
def test_unusable_path_keeps_the_exit_contract(workspace, trained, tmp_path,
                                               capsys, monkeypatch, command,
                                               dest, case):
    """Each path argument given a path it cannot use exits 2 (1 for
    --config) with one stderr line naming the path, before any surface is
    generated, any forward pass runs, any assay is evaluated or any
    embedding file is written."""
    work = []
    for owner, name in ((surface, "generate_surface"),
                        (FitnessModel, "forward_logits"),
                        (metrics, "evaluate_assay"),
                        (io, "save_embeddings")):
        def counted(*a, _real=getattr(owner, name), _name=name, **kw):
            work.append(_name)
            return _real(*a, **kw)
        monkeypatch.setattr(owner, name, counted)
    paths, extra = _path_run(command, dest, workspace, trained, tmp_path)
    bad = paths[dest] = _bad_path(PATH_KINDS[command][dest], case, tmp_path)
    argv = [command]
    for action in _subcommands()[command]._actions:
        if action.dest in paths:
            argv += [*action.option_strings[:1], paths[action.dest]]
    code = cli.main([str(a) for a in argv + list(extra)])
    err = capsys.readouterr().err
    assert code == (1 if dest == "config" else 2), err
    assert len(err.splitlines()) == 1 and str(bad) in err, err
    assert "Traceback" not in err and "variant" not in err
    assert work == [], err


# ---------------------------------------------------------------------------
# README examples
# ---------------------------------------------------------------------------

def _readme_examples():
    """Argument lists of every ``protfit ...`` line in README's bash blocks:
    ``\\`` continuations joined, ``#`` comments and ``...`` tokens dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = []
    for block in re.findall(r"```bash\n(.*?)```", text, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            tokens = [t for t in shlex.split(line, comments=True) if t != "..."]
            if tokens[:1] == ["protfit"]:
                examples.append(tokens[1:])
    return examples


def test_readme_examples_parse():
    examples = _readme_examples()
    assert len(examples) >= 8
    parser = cli.build_parser()
    for argv in examples:
        try:
            parser.parse_args(argv)
        except cli.UsageError as exc:
            pytest.fail(f"README example 'protfit {' '.join(argv)}': {exc}")
