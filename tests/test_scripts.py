import subprocess
import sys
from pathlib import Path

from oracle import read_report_csv
from protfit.io import load_assay, load_structure, parse_mutation

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_make_toy_corpus_writes_readable_corpus_and_assay(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "make_toy_corpus.py"), str(tmp_path),
         "--proteins", "2", "--residues", "20", "--variants", "5"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    paths = sorted((tmp_path / "corpus").iterdir())
    assert [p.name for p in paths] == ["motif000.tsv", "motif001.tsv"]
    proteins = [load_structure(p) for p in paths]
    assert all(len(p.sequence) == 20 for p in proteins)
    assay = load_assay(tmp_path / "motif000_assay.csv")
    assert len(assay.variants) == 5
    for variant in assay.variants:
        parse_mutation(variant.mutant, proteins[0])


def test_run_demo_experiment_reports_near_perfect_spearman(tmp_path):
    """The demo's assay is the trained model's own log-odds plus small
    noise, so its report reads a Spearman near 1.0 even after one epoch."""
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_demo_experiment.py"), str(tmp_path),
         "--proteins", "2", "--epochs", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = read_report_csv(tmp_path / "report.csv")
    assert [row["assay_id"] for row in report["assays"]] == ["assay"]
    assert report["assays"][0]["n_variants"] == 200
    assert report["assays"][0]["spearman"] > 0.9
