import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from protfit import gvp, metrics, scoring, surface, training
from protfit.errors import DataError
from protfit.io import (AssayVariant, MutationSet, Protein, ResidueEmbeddings,
                        RESIDUE_TYPES, format_mutation, load_assay,
                        load_embeddings, load_external_scores, load_structure,
                        mask_context_tag, parse_mutation, parse_structure,
                        read_csv, save_embeddings, serialize_structure,
                        write_csv)

PDB_CA_LINE = ("ATOM      2  CA  ALA A   1       0.000   0.000   0.000"
               "  1.00 95.00           C")
PDB_SIDECHAIN = ("ATOM      3  CB  ALA A   1       1.000   1.000   1.000"
                 "  1.00 90.00           C")


def test_pdb_min_single_ca():
    protein = parse_structure(PDB_CA_LINE + "\n", "pdb-min")
    assert protein.n_residues == 1
    assert protein.sequence.tolist() == [RESIDUE_TYPES.index("A")]
    assert protein.plddt[0] == 95.0
    assert np.array_equal(protein.ca_coords, np.zeros((1, 3)))


def test_pdb_min_no_ca_rejected():
    with pytest.raises(DataError, match="no alpha carbons"):
        parse_structure(PDB_SIDECHAIN + "\n", "pdb-min")


def test_pdb_min_skips_headers_and_sidechains():
    text = "HEADER junk\nREMARK more junk\n" + PDB_SIDECHAIN + "\n" + PDB_CA_LINE + "\n"
    assert parse_structure(text, "pdb-min").n_residues == 1


def test_pdb_min_unknown_residue_names_line():
    bad = PDB_CA_LINE.replace("ALA", "XXX")
    with pytest.raises(DataError, match="line 2"):
        parse_structure("REMARK\n" + bad + "\n", "pdb-min")


def test_pdb_min_duplicate_residue_index():
    with pytest.raises(DataError, match="duplicate residue index"):
        parse_structure(PDB_CA_LINE + "\n" + PDB_CA_LINE + "\n", "pdb-min")


def test_pdb_min_clamps_experimental_bfactors():
    line = PDB_CA_LINE.replace(" 95.00", "120.00")
    assert parse_structure(line + "\n", "pdb-min").plddt[0] == 100.0


def _pdb_ca(record, res3, chain, resnum, x):
    """A CA line of the given record type, residue, chain and number."""
    return (f"{record:<6}{resnum + 1:5d}  CA  {res3:>3} {chain}{resnum:4d}    "
            f"{x:8.3f}{0.0:8.3f}{0.0:8.3f}  1.00 90.00           C\n")


@pytest.mark.parametrize("second", ["B", " "], ids=["B", "blank"])
def test_pdb_min_second_chain_is_data_error(second):
    """A second chain is not joined onto the first, also when its residue
    numbers continue the first chain's; the error names both chains."""
    text = (_pdb_ca("ATOM", "ALA", "A", 1, 0.0) + _pdb_ca("ATOM", "GLY", "A", 2, 3.8)
            + "TER\n" + _pdb_ca("ATOM", "SER", second, 3, 7.6))
    with pytest.raises(DataError,
                       match=f"line 4: CA atom of chain '{second}' after chain 'A'"):
        parse_structure(text, "pdb-min")


def test_pdb_min_reads_selenomethionine_as_methionine():
    """HETATM MSE keeps its place in the chain as M; other HETATM records,
    such as a calcium ion (atom name CA), a ligand and water, stay skipped."""
    text = (_pdb_ca("ATOM", "ALA", "A", 1, 0.0) + _pdb_ca("HETATM", "MSE", "A", 2, 3.8)
            + _pdb_ca("ATOM", "GLY", "A", 3, 7.6) + _pdb_ca("HETATM", "CA", "A", 101, 20.0)
            + _pdb_ca("HETATM", "HEM", "B", 201, 30.0)
            + _pdb_ca("HETATM", "HOH", "W", 301, 40.0))
    protein = parse_structure(text, "pdb-min")
    assert "".join(RESIDUE_TYPES[t] for t in protein.sequence) == "AMG"
    assert protein.ca_coords[:, 0].tolist() == [0.0, 3.8, 7.6]


def test_tsv_three_rows_bit_exact():
    text = ("# comment\n"
            "1\tA\t0.125\t-3.5\t7.25\t88.5\n"
            "2\tC\t1e-3\t2.5\t-0.75\n"
            "3\tD\t4.0\t5.0\t6.0\t100\n")
    protein = parse_structure(text, "tsv")
    assert protein.n_residues == 3
    assert protein.ca_coords[0, 0] == float("0.125")
    assert protein.ca_coords[1, 0] == float("1e-3")
    assert protein.plddt[1] == 100.0  # optional sixth column defaults


def test_tsv_duplicate_index_rejected():
    text = "1\tA\t0\t0\t0\n1\tC\t1\t1\t1\n"
    with pytest.raises(DataError, match="duplicate residue index"):
        parse_structure(text, "tsv")


def test_tsv_unknown_code_names_line():
    with pytest.raises(DataError, match="line 2"):
        parse_structure("1\tA\t0\t0\t0\nx\tB\t0\t0\t0\n"
                        .replace("x", "2"), "tsv")


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 30), st.integers(0, 10_000))
def test_tsv_round_trip_identity(n_res, seed):
    rng = np.random.default_rng(seed)
    protein = Protein(id="p", sequence=rng.integers(0, 20, n_res),
                      ca_coords=rng.standard_normal((n_res, 3)) * 50,
                      plddt=rng.uniform(0, 100, n_res))
    again = parse_structure(serialize_structure(protein), "tsv", "p")
    assert np.array_equal(again.sequence, protein.sequence)
    assert np.array_equal(again.ca_coords, protein.ca_coords)
    assert np.array_equal(again.plddt, protein.plddt)


# ---------------------------------------------------------------------------
# mutations
# ---------------------------------------------------------------------------

def _protein_with(seq: str) -> Protein:
    n = len(seq)
    return Protein(id="m", sequence=[RESIDUE_TYPES.index(c) for c in seq],
                   ca_coords=np.arange(3 * n, dtype=float).reshape(n, 3))


def test_parse_mutation_single_token():
    protein = _protein_with("C" * 23 + "A" + "C" * 6)
    mset = parse_mutation("A24G", protein, offset=0)
    assert mset.sites == ((23, RESIDUE_TYPES.index("A"), RESIDUE_TYPES.index("G")),)


def test_parse_mutation_sorted():
    seq = list("C" * 60)
    seq[23] = "A"
    seq[55] = "F"
    protein = _protein_with("".join(seq))
    mset = parse_mutation("F56L:A24G", protein, offset=0)
    assert [s[0] for s in mset.sites] == [23, 55]
    assert mset.sites[0][1] == RESIDUE_TYPES.index("A")
    assert mset.sites[1][2] == RESIDUE_TYPES.index("L")


def test_parse_mutation_wt_equals_mt_rejected():
    protein = _protein_with("C" * 23 + "A" + "C" * 6)
    with pytest.raises(DataError, match="wild-type equals mutant"):
        parse_mutation("A24A", protein, offset=0)


def test_parse_mutation_wt_mismatch_names_position():
    protein = _protein_with("CCCC")
    with pytest.raises(DataError, match="position 2"):
        parse_mutation("A2G", protein, offset=0)


def test_parse_mutation_malformed_token():
    protein = _protein_with("CCCC")
    with pytest.raises(DataError, match="malformed"):
        parse_mutation("C2", protein, offset=0)


def test_parse_mutation_offset_and_wt():
    protein = _protein_with("ACDE")
    mset = parse_mutation("C26D", protein, offset=24)  # 26 - 1 - 24 = index 1
    assert mset.sites[0][0] == 1
    assert parse_mutation("WT", protein).sites == ()
    assert parse_mutation("  ", protein).sites == ()


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_parse_mutation_positions_strictly_increasing(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))
    protein = Protein(id="p", sequence=rng.integers(0, 20, n),
                      ca_coords=rng.standard_normal((n, 3)))
    positions = rng.choice(n, size=int(rng.integers(1, min(n, 5) + 1)),
                           replace=False)
    tokens = []
    for pos in rng.permutation(positions):
        wt = int(protein.sequence[pos])
        mt = (wt + int(rng.integers(1, 20))) % 20
        tokens.append(f"{RESIDUE_TYPES[wt]}{pos + 1}{RESIDUE_TYPES[mt]}")
    mset = parse_mutation(":".join(tokens), protein, offset=0)
    got = [s[0] for s in mset.sites]
    assert got == sorted(got) and len(set(got)) == len(got)
    assert format_mutation(mset).count(":") == len(tokens) - 1


def test_mutation_set_invariants():
    with pytest.raises(DataError):
        MutationSet(((3, 1, 1),))
    with pytest.raises(DataError):
        MutationSet(((3, 1, 2), (3, 2, 4)))
    with pytest.raises(DataError):
        MutationSet(((5, 1, 2), (3, 2, 4)))


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------

def test_embeddings_zero_matrix(tmp_path):
    path = tmp_path / "e.s3fe"
    save_embeddings(path, np.zeros((2, 3)))
    emb = load_embeddings(path)
    assert emb.rows.shape == (2, 3)
    assert np.array_equal(emb.rows, np.zeros((2, 3)))
    assert emb.context_tag == ""


def test_embeddings_truncated_payload(tmp_path):
    path = tmp_path / "e.s3fe"
    save_embeddings(path, np.zeros((2, 3)))
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(DataError, match="payload size mismatch"):
        load_embeddings(path)


def test_embeddings_magic_mismatch(tmp_path):
    path = tmp_path / "e.s3fe"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(DataError, match="magic mismatch"):
        load_embeddings(path)


def test_embeddings_round_trip_with_tag(tmp_path):
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((5, 8)).astype(np.float32).astype(np.float64)
    path = tmp_path / "e.s3fe"
    save_embeddings(path, rows, context_tag=mask_context_tag([3, 1]))
    emb = load_embeddings(path)
    assert np.array_equal(emb.rows, rows)
    assert emb.context_tag == "masked:1,3"


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 10_000))
def test_embeddings_round_trip_bit_exact(n, d, seed):
    rows = (np.random.default_rng(seed).standard_normal((n, d))
            .astype(np.float32).astype(np.float64))
    import tempfile, os
    fd, path = tempfile.mkstemp(suffix=".s3fe")
    os.close(fd)
    try:
        save_embeddings(path, rows)
        assert np.array_equal(load_embeddings(path).rows, rows)
    finally:
        os.unlink(path)


def test_embeddings_reject_nonfinite(tmp_path):
    with pytest.raises(DataError):
        save_embeddings(tmp_path / "e.s3fe", np.array([[np.nan, 1.0]]))


# ---------------------------------------------------------------------------
# assay and external-score CSVs
# ---------------------------------------------------------------------------

def test_load_assay_two_rows(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("mutant,DMS_score\nA1G,1.0\nC2D,2.0\n")
    table = load_assay(path)
    assert [v.mutant for v in table.variants] == ["A1G", "C2D"]
    assert table.scores().tolist() == [1.0, 2.0]
    assert not table.has_bins


def test_load_assay_missing_score_column(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("mutant,other\nA1G,1.0\n")
    with pytest.raises(DataError, match="DMS_score"):
        load_assay(path)


def test_load_assay_bins_preserved(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("mutant,DMS_score,DMS_score_bin\nA1G,1.0,1\nC2D,2.0,0\n")
    table = load_assay(path)
    assert table.bins().tolist() == [1, 0]
    again = tmp_path / "b.csv"
    again.write_text(path.read_text())
    assert load_assay(again).bins().tolist() == [1, 0]


def test_load_assay_rejects_nan(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("mutant,DMS_score\nA1G,nan\n")
    with pytest.raises(DataError, match="NaN"):
        load_assay(path)


@pytest.mark.parametrize("value", ["inf", "-inf", "1e999"])
def test_load_assay_rejects_infinite_score(tmp_path, value):
    path = tmp_path / "a.csv"
    path.write_text(f"mutant,DMS_score\nA1G,0.5\nC2D,{value}\n")
    with pytest.raises(DataError, match=r"a\.csv row 3: non-finite"):
        load_assay(path)


def test_load_assay_rejects_duplicate_mutant(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("mutant,DMS_score\nA3C,1.0\nC4D,0.5\n A3C ,2.0\n")
    with pytest.raises(DataError, match=r"a\.csv row 4: duplicate mutant 'A3C'"):
        load_assay(path)


def test_external_scores_single(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("mutant,score\nA24G,0.5\n")
    assert load_external_scores(path) == {"A24G": 0.5}


def test_external_scores_duplicate(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("mutant,score\nA24G,0.5\nA24G,0.7\n")
    with pytest.raises(DataError, match="duplicate"):
        load_external_scores(path)


def test_external_scores_matches_naive(tmp_path, rng):
    rows = [(f"A{i + 1}G", float(rng.standard_normal())) for i in range(100)]
    path = tmp_path / "x.csv"
    path.write_text("mutant,score\n" +
                    "".join(f"{k},{v!r}\n" for k, v in rows))
    naive = {}
    for k, v in rows:
        naive[k] = v
    assert load_external_scores(path) == naive


def test_external_scores_ignore_extra_columns(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("# header\nmutant,score,provenance\nA24G,0.5,model\n")
    assert load_external_scores(path) == {"A24G": 0.5}
    assert scoring.read_scores_csv is load_external_scores


@pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "1e999"])
def test_external_scores_reject_non_finite(tmp_path, value):
    path = tmp_path / "x.csv"
    path.write_text(f"mutant,score\nA24G,0.5\nC2D,{value}\n")
    with pytest.raises(DataError, match="row 3: non-finite score"):
        load_external_scores(path)


def test_assay_row_missing_mutant_cell(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("DMS_score,mutant\n1.0,A1G\n2.0\n")
    with pytest.raises(DataError, match="row 3: 1 cells, header has 2"):
        load_assay(path)


def test_csv_row_number_is_the_file_line(tmp_path):
    """Comment lines, blank rows and lines inside a quoted cell all count."""
    path = tmp_path / "x.csv"
    path.write_text("# a\n# b\nmutant,score\nA1G,0.5\n\nC2D,inf\n")
    with pytest.raises(DataError, match=r"x\.csv row 6: non-finite score"):
        load_external_scores(path)
    path.write_text('# a\nmutant,DMS_score\n"A1G\n",0.5\n\n#\nC2D\n')
    with pytest.raises(DataError, match=r"x\.csv row 7: 1 cells, header has 2"):
        load_assay(path)


# ---------------------------------------------------------------------------
# text-table core
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, reader", [
    ("s.tsv", load_structure), ("s.pdb", load_structure),
    ("a.csv", load_assay), ("x.csv", load_external_scores)])
def test_text_readers_reject_non_utf8(tmp_path, name, reader):
    path = tmp_path / name
    path.write_bytes(b"mutant,score\nA1G,0.5\xff\n")
    with pytest.raises(DataError, match="not UTF-8"):
        reader(path)


def test_parse_structure_bytes_must_be_utf8():
    with pytest.raises(DataError, match="not UTF-8"):
        parse_structure(PDB_CA_LINE.encode() + b"\xc3\n", "pdb-min")


def test_read_csv_keeps_line_ends_and_skips_comments(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b'# c\r\na,b\r\n"x\r\ny",2\r\n\r\n#c,3\r\n3,4,5\r\n')
    header, rows = read_csv(path)
    assert header == ["a", "b"]
    assert rows == [{"a": "x\r\ny", "b": "2"}, {"a": "3", "b": "4"}]


def test_write_csv_layout(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["mutant", "score"], [["A1G", "0.5"], ["a,b", 2]],
              ["config_hash=x", "y"])
    assert path.read_bytes() == (b"# config_hash=x\n# y\nmutant,score\r\n"
                                 b"A1G,0.5\r\n\"a,b\",2\r\n")


# ---------------------------------------------------------------------------
# every reader: malformed bytes yield DataError, never another exception
# ---------------------------------------------------------------------------

READERS = {"s.tsv": load_structure, "s.pdb": load_structure,
           "a.csv": load_assay, "sc.csv": load_external_scores,
           "c.tsv": surface.read_cloud_tsv, "r.csv": oracle.read_report_csv,
           "e.s3fe": load_embeddings, "m.s3fc": gvp.load_checkpoint,
           "m.state.npz": training.load_train_state}


@pytest.fixture(scope="module")
def sample_dir(tmp_path_factory):
    """One valid file for each reader in READERS, named by its key."""
    root = tmp_path_factory.mktemp("samples")
    rng = np.random.default_rng(0)
    protein = Protein("p", rng.integers(0, 20, 6),
                      np.cumsum(2.0 * rng.standard_normal((6, 3)), axis=0),
                      plddt=np.linspace(50.0, 99.0, 6))
    (root / "s.tsv").write_text(serialize_structure(protein))
    (root / "s.pdb").write_text("".join(
        f"ATOM  {i + 1:5d}  CA  {res} A{i + 1:4d}    {x:8.3f}{y:8.3f}{z:8.3f}"
        f"  1.00{b:6.2f}           C\n"
        for i, (res, (x, y, z), b) in enumerate(zip(
            ["ALA", "GLY", "TRP"], protein.ca_coords, [90.0, 45.5, 70.0])))
        + "END\n")
    (root / "a.csv").write_text("# c\nmutant,DMS_score,DMS_score_bin\n"
                                "A1G,1.0,1\nC2D:E3F,-2.5,0\nWT,0.0,0\n")
    scoring.write_scores_csv(
        root / "sc.csv", [scoring.VariantScore("A1G", 0.125, ("model",)),
                          scoring.VariantScore("C2D", -1.5, ("baseline",))],
        header_lines=["config_hash=x"], ensembled=[1.0, -1.0])
    cloud = surface.SurfacePointCloud(points=rng.standard_normal((4, 3)),
                                      normals=rng.standard_normal((4, 3)),
                                      features=rng.standard_normal((4, 2)))
    surface.write_cloud_tsv(cloud, root / "c.tsv", header_lines=["h"])
    metrics.emit_report(
        root / "r.csv", [metrics.AssayResult("a", 10, 0.4, 0.6, 0.1, 0.8, 0.2)],
        groups={"1": {"spearman": 0.3, "auc": 0.5, "mcc": 0.0, "ndcg": 0.7,
                      "recall10": 0.1, "n_variants": 12}},
        significance={"spearman_diff_stderr": 0.0123}, header_lines=["h"])
    save_embeddings(root / "e.s3fe", rng.standard_normal((3, 2)), "masked:1,2")
    model = gvp.FitnessModel(gvp.ModelConfig(
        mode="s2f", scalar_dim=2, vector_dim=1, structure_layers=1,
        embed_dim=2))
    gvp.save_checkpoint(model, root / "m.s3fc")
    optimizer = training.make_optimizer(model, training.TrainConfig())
    training.save_train_state(root / "m.state.npz", model, optimizer,
                              np.random.default_rng(0), 1)
    for name, reader in READERS.items():
        reader(root / name)   # every sample reads cleanly before mutation
    return root


@pytest.mark.parametrize("name", READERS)
@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(flips=st.lists(st.tuples(st.integers(0, 1 << 20), st.integers(1, 255)),
                      min_size=1, max_size=3))
def test_reader_mutated_bytes_data_error_only(sample_dir, name, flips):
    """Flip 1-3 bytes of a valid file: the reader returns a value or raises
    DataError; any other exception fails the test."""
    blob = bytearray((sample_dir / name).read_bytes())
    for at, mask in flips:
        blob[at % len(blob)] ^= mask
    mutated = sample_dir / ("mutated_" + name)
    mutated.write_bytes(bytes(blob))
    try:
        READERS[name](mutated)
    except DataError:
        pass


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize("name", READERS)
def test_reader_unreadable_path_is_data_error(tmp_path, name, kind):
    """A missing path, or a directory where the file should be, is a
    DataError naming the path for every reader."""
    path = tmp_path / name
    if kind == "directory":
        path.mkdir()
    with pytest.raises(DataError, match=re.escape(str(path))):
        READERS[name](path)
