"""Ingestion of structures, assay tables, mutation strings, residue
embeddings and external score files, plus the shared text-table core.

All readers are pure functions over immutable inputs and are safe to call
concurrently. On-disk formats:

* structure tsv: tab separated ``index  code  x  y  z  [plddt]``, ``#``
  comments allowed
* pdb-min: the CA atoms of one chain in a PDB file, from ATOM records
  and HETATM selenomethionine (read as methionine), B-factor column
  read as pLDDT
* embeddings: ``S3FE`` binary (little endian), optional UTF-8 footer
  holding the masking context tag
* assay CSV: header with ``mutant``, ``DMS_score``, optional
  ``DMS_score_bin``
* scores CSV: header with ``mutant`` and ``score`` (external, baseline
  and written score files alike); every score must be finite

Every reader opens its file through ``read_file``, which turns an
OSError (a missing file, a directory, no permission) into a DataError
naming the path. Every text table (structures, assays, scores, cloud
dumps, reports) is read through ``read_text_lines``: the bytes must
decode as UTF-8 and lines starting with ``#`` are comments.
``read_csv_rows`` and ``read_csv`` parse CSV on top of it, and
``write_csv`` writes every CSV table: ``# `` header lines, then the
rows. Malformed input of any kind raises DataError; a "row N" in its
message is line N of the file, counting comment and blank lines.

Each input rule has one owner. Both structure formats reduce to
``(line, residue index, one-letter code, xyz, pLDDT)`` records from a
per-format generator, and the one loop in ``parse_structure`` rejects a
duplicate index and a structure without alpha carbons and assembles the
``Protein``. Assay and score CSVs both go through ``_mutant_rows``, which
checks the columns, one row per stripped mutant and a finite value.
"""

from __future__ import annotations

import csv
import math
import re
import struct
from dataclasses import dataclass
from io import StringIO
from pathlib import Path

import numpy as np

from .errors import DataError

RESIDUE_TYPES = "ACDEFGHIKLMNPQRSTVWY"
RESIDUE_INDEX = {aa: i for i, aa in enumerate(RESIDUE_TYPES)}
N_RESIDUE_TYPES = 20

THREE_TO_ONE = {
    "ALA": "A", "ARG": "R", "ASN": "N", "ASP": "D", "CYS": "C",
    "GLN": "Q", "GLU": "E", "GLY": "G", "HIS": "H", "ILE": "I",
    "LEU": "L", "LYS": "K", "MET": "M", "PHE": "F", "PRO": "P",
    "SER": "S", "THR": "T", "TRP": "W", "TYR": "Y", "VAL": "V",
}
# pdb-min also reads selenomethionine, a methionine with selenium for sulfur
_PDB_RESIDUES = {**THREE_TO_ONE, "MSE": "M"}

EMBED_MAGIC = b"S3FE"
EMBED_VERSION = 1

_MUTATION_TOKEN = re.compile(r"^([A-Z])(\d+)([A-Z])$")


def mask_context_tag(positions) -> str:
    """Canonical tag recording which positions were masked for an embedding."""
    positions = sorted(int(p) for p in positions)
    if not positions:
        return ""
    return "masked:" + ",".join(str(p) for p in positions)


@dataclass(frozen=True)
class Protein:
    """One chain: residue type codes, alpha-carbon coordinates, confidence.

    ``chain_offset`` records the residue-numbering origin used by mutation
    strings for this protein: author position p maps to index p - 1 - offset.
    """

    id: str
    sequence: np.ndarray          # (n_r,) int codes in [0, 20)
    ca_coords: np.ndarray         # (n_r, 3) float64, Angstrom
    plddt: np.ndarray = None      # (n_r,) float64 in [0, 100]; default 100
    chain_offset: int = 0

    def __post_init__(self):
        seq = np.asarray(self.sequence, dtype=np.int64)
        coords = np.asarray(self.ca_coords, dtype=np.float64)
        plddt = self.plddt
        if plddt is None:
            plddt = np.full(len(seq), 100.0)
        plddt = np.asarray(plddt, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != 3:
            raise DataError(f"ca_coords must be (n, 3), got {coords.shape}")
        if not (len(seq) == len(coords) == len(plddt)):
            raise DataError("sequence, ca_coords and plddt lengths disagree")
        if len(seq) == 0:
            raise DataError("empty protein")
        if seq.min() < 0 or seq.max() >= N_RESIDUE_TYPES:
            raise DataError("residue code out of range")
        if not np.isfinite(coords).all():
            raise DataError("non-finite coordinates")
        if not np.isfinite(plddt).all() or plddt.min() < 0 or plddt.max() > 100:
            raise DataError("pLDDT values must be finite and in [0, 100]")
        object.__setattr__(self, "sequence", seq)
        object.__setattr__(self, "ca_coords", coords)
        object.__setattr__(self, "plddt", plddt)

    @property
    def n_residues(self) -> int:
        return len(self.sequence)


@dataclass(frozen=True)
class MutationSet:
    """Substitutions for one variant: sorted (position, wt code, mt code).

    An empty site tuple represents the wild type itself.
    """

    sites: tuple = ()

    def __post_init__(self):
        sites = tuple((int(p), int(w), int(m)) for p, w, m in self.sites)
        for pos, wt, mt in sites:
            if wt == mt:
                raise DataError(f"site {pos}: wild-type equals mutant type")
            if not (0 <= wt < N_RESIDUE_TYPES and 0 <= mt < N_RESIDUE_TYPES):
                raise DataError(f"site {pos}: residue code out of range")
        positions = [p for p, _, _ in sites]
        if any(b <= a for a, b in zip(positions, positions[1:])):
            raise DataError("mutation positions must be strictly increasing")
        object.__setattr__(self, "sites", sites)

    @property
    def positions(self) -> list:
        return [p for p, _, _ in self.sites]

    def __len__(self) -> int:
        return len(self.sites)


@dataclass(frozen=True)
class ResidueEmbeddings:
    """Per-residue embedding rows plus the masking context they encode."""

    rows: np.ndarray              # (n_r, dim) float64
    context_tag: str = ""

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2:
            raise DataError("embedding rows must be a 2-D matrix")
        if not np.isfinite(rows).all():
            raise DataError("non-finite embedding values")
        object.__setattr__(self, "rows", rows)

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    @property
    def n_residues(self) -> int:
        return self.rows.shape[0]


@dataclass(frozen=True)
class AssayVariant:
    mutant: str
    dms_score: float
    dms_bin: int = None


@dataclass(frozen=True)
class AssayTable:
    protein_id: str
    variants: tuple

    @property
    def has_bins(self) -> bool:
        return all(v.dms_bin is not None for v in self.variants)

    def scores(self) -> np.ndarray:
        return np.array([v.dms_score for v in self.variants], dtype=np.float64)

    def bins(self) -> np.ndarray:
        return np.array([v.dms_bin for v in self.variants], dtype=np.int64)


# ---------------------------------------------------------------------------
# structures
# ---------------------------------------------------------------------------

def parse_structure(data, fmt: str, name: str = "protein") -> Protein:
    """Parse a structure stream in ``pdb-min`` or ``tsv`` format. The
    format's record generator reads its own lines; this one loop applies
    the rules both formats share."""
    text = _decode(data, name) if isinstance(data, bytes) else data
    if fmt not in _STRUCTURE_RECORDS:
        raise DataError(f"unknown structure format {fmt!r}")
    seq, coords, plddt = [], [], []
    seen = set()
    for lineno, index, code, xyz, conf in _STRUCTURE_RECORDS[fmt](text):
        if index in seen:
            raise DataError(f"line {lineno}: duplicate residue index {index}")
        seen.add(index)
        seq.append(RESIDUE_INDEX[code])
        coords.append(xyz)
        plddt.append(conf)
    if not coords:
        raise DataError("no alpha carbons")
    return Protein(id=name, sequence=np.array(seq), ca_coords=np.array(coords),
                   plddt=np.array(plddt))


def _pdb_min_records(text: str):
    """(line, residue number, one-letter code, xyz, pLDDT) per CA atom of
    an ``ATOM`` record, or of a ``HETATM`` selenomethionine (MSE), which
    reads as methionine. A CA atom of a second chain is a DataError naming
    both chains."""
    # Other records and non-CA atoms are skipped, not rejected: real PDB
    # files carry headers, side chains, ligands, waters and ions (calcium
    # is a HETATM atom named CA) that this pipeline never needs.
    chain = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        res3 = line[17:20].strip()
        amino = line.startswith("ATOM") or (line.startswith("HETATM") and res3 == "MSE")
        if not amino or line[12:16].strip() != "CA":
            continue
        if res3 not in _PDB_RESIDUES:
            raise DataError(f"line {lineno}: unknown residue code {res3!r}")
        if chain is None:
            chain = line[21:22]
        elif line[21:22] != chain:
            raise DataError(f"line {lineno}: CA atom of chain {line[21:22]!r} after "
                            f"chain {chain!r}; pdb-min reads one chain")
        try:
            resnum = int(line[22:26])
            xyz = float(line[30:38]), float(line[38:46]), float(line[46:54])
        except ValueError:
            raise DataError(f"line {lineno}: malformed ATOM record") from None
        bfac = line[60:66].strip()
        try:
            conf = float(bfac) if bfac else 100.0
        except ValueError:
            raise DataError(f"line {lineno}: malformed B-factor field") from None
        # experimental B-factors are not confidences and can exceed 100;
        # clamp into the pLDDT range instead of rejecting the structure
        yield lineno, resnum, _PDB_RESIDUES[res3], xyz, min(max(conf, 0.0), 100.0)


def _tsv_records(text: str):
    """(line, index, one-letter code, xyz, pLDDT) per non-comment line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) not in (5, 6):
            raise DataError(f"line {lineno}: expected 5 or 6 columns, got {len(parts)}")
        try:
            index = int(parts[0])
            xyz = float(parts[2]), float(parts[3]), float(parts[4])
            conf = float(parts[5]) if len(parts) == 6 else 100.0
        except ValueError:
            raise DataError(f"line {lineno}: malformed numeric field") from None
        code = parts[1].strip()
        if code not in RESIDUE_INDEX:
            raise DataError(f"line {lineno}: unknown residue code {code!r}")
        yield lineno, index, code, xyz, conf


_STRUCTURE_RECORDS = {"pdb-min": _pdb_min_records, "tsv": _tsv_records}


def serialize_structure(protein: Protein) -> str:
    """Write a protein as structure tsv; floats round-trip bit-exactly."""
    lines = ["# protfit structure tsv: index\tcode\tx\ty\tz\tplddt"]
    for i in range(protein.n_residues):
        x, y, z = protein.ca_coords[i]
        lines.append("\t".join([
            str(i + 1), RESIDUE_TYPES[protein.sequence[i]],
            repr(float(x)), repr(float(y)), repr(float(z)),
            repr(float(protein.plddt[i])),
        ]))
    return "\n".join(lines) + "\n"


# structure file suffixes, matched case-insensitively, and their formats
STRUCTURE_FORMATS = {".tsv": "tsv", ".pdb": "pdb-min", ".ent": "pdb-min"}


def load_structure(path, name: str = None) -> Protein:
    """Load a structure file, inferring the format from the extension; a
    suffix not in ``STRUCTURE_FORMATS`` reads as tsv."""
    path = Path(path)
    fmt = STRUCTURE_FORMATS.get(path.suffix.lower(), "tsv")
    return parse_structure(read_file(path), fmt, name or path.stem)


# ---------------------------------------------------------------------------
# mutations
# ---------------------------------------------------------------------------

def parse_mutation(text: str, protein: Protein, offset: int = None) -> MutationSet:
    """Parse ``<WT><pos><MT>`` tokens joined by ':' into a MutationSet.

    Positions are 1-based author numbering shifted by ``offset`` (defaults to
    the protein's chain_offset). ``WT`` or an empty string denotes the wild
    type and yields an empty site tuple.
    """
    if offset is None:
        offset = protein.chain_offset
    stripped = text.strip()
    if stripped == "" or stripped.upper() == "WT":
        return MutationSet(())
    sites = []
    for token in stripped.split(":"):
        m = _MUTATION_TOKEN.match(token.strip())
        if m is None:
            raise DataError(f"malformed mutation token {token!r}")
        wt_letter, pos_text, mt_letter = m.groups()
        if wt_letter not in RESIDUE_INDEX or mt_letter not in RESIDUE_INDEX:
            raise DataError(f"unknown residue letter in token {token!r}")
        idx = int(pos_text) - 1 - offset
        if not (0 <= idx < protein.n_residues):
            raise DataError(f"position {pos_text} out of range for {protein.id}")
        wt = RESIDUE_INDEX[wt_letter]
        mt = RESIDUE_INDEX[mt_letter]
        if wt != protein.sequence[idx]:
            raise DataError(
                f"wild-type mismatch at position {pos_text}: structure has "
                f"{RESIDUE_TYPES[protein.sequence[idx]]}, token says {wt_letter}")
        if wt == mt:
            raise DataError(f"token {token!r}: wild-type equals mutant type")
        sites.append((idx, wt, mt))
    sites.sort(key=lambda s: s[0])
    positions = [s[0] for s in sites]
    if len(set(positions)) != len(positions):
        raise DataError("duplicate mutation position")
    return MutationSet(tuple(sites))


def format_mutation(mset: MutationSet, offset: int = 0) -> str:
    if not mset.sites:
        return "WT"
    return ":".join(
        f"{RESIDUE_TYPES[wt]}{pos + 1 + offset}{RESIDUE_TYPES[mt]}"
        for pos, wt, mt in mset.sites)


# ---------------------------------------------------------------------------
# embeddings (S3FE binary)
# ---------------------------------------------------------------------------

def save_embeddings(path, rows, context_tag: str = "") -> None:
    rows = ResidueEmbeddings(rows, context_tag).rows
    n, d = rows.shape
    with open(path, "wb") as fh:
        fh.write(EMBED_MAGIC)
        fh.write(struct.pack("<III", EMBED_VERSION, n, d))
        fh.write(np.ascontiguousarray(rows, dtype="<f4").tobytes())
        if context_tag:
            fh.write(context_tag.encode("utf-8"))


def load_embeddings(path) -> ResidueEmbeddings:
    blob = read_file(path)
    if blob[:4] != EMBED_MAGIC:
        raise DataError(f"{path}: magic mismatch (not an S3FE file)")
    if len(blob) < 16:
        raise DataError(f"{path}: truncated header")
    version, n, d = struct.unpack("<III", blob[4:16])
    if version != EMBED_VERSION:
        raise DataError(f"{path}: unsupported version {version}")
    need = n * d * 4
    payload = blob[16:16 + need]
    if len(payload) != need:
        raise DataError(f"{path}: payload size mismatch")
    try:
        tag = blob[16 + need:].decode("utf-8")
    except UnicodeDecodeError:
        raise DataError(f"{path}: undecodable context tag footer") from None
    rows = np.frombuffer(payload, dtype="<f4").reshape(n, d).astype(np.float64)
    if not np.isfinite(rows).all():
        raise DataError(f"{path}: non-finite embedding values")
    return ResidueEmbeddings(rows=rows, context_tag=tag)


# ---------------------------------------------------------------------------
# text tables
# ---------------------------------------------------------------------------

def read_file(path) -> bytes:
    """The bytes of the file at ``path``. Any OSError (a missing file, a
    directory, no permission) is a DataError naming the path."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from None


def _decode(data: bytes, where) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{where}: not UTF-8 text (byte {exc.start})") from None


def _numbered_lines(path) -> list:
    """(1-based line number, line) of each line of a UTF-8 text file, line
    ends kept, ``#`` lines dropped."""
    text = StringIO(_decode(read_file(path), path), newline="")
    return [(i, line) for i, line in enumerate(text, start=1)
            if not line.startswith("#")]


def read_text_lines(path) -> list:
    """Lines of a UTF-8 text file, line ends kept, ``#`` lines dropped."""
    return [line for _, line in _numbered_lines(path)]


def read_csv_rows(path) -> list:
    """(line, cells) for each row of a CSV text table, where ``line`` is the
    1-based line of the file the row starts on; blank rows are skipped."""
    numbered = _numbered_lines(path)
    reader = csv.reader(line for _, line in numbered)
    rows, start = [], 0
    try:
        for cells in reader:
            if cells:
                rows.append((numbered[start][0], cells))
            start = reader.line_num
    except csv.Error as exc:
        raise DataError(f"{path}: malformed CSV ({exc})") from None
    return rows


def _numbered_csv(path) -> tuple:
    """``read_csv`` with each row paired with the file line it starts on."""
    rows = read_csv_rows(path)
    if not rows:
        return [], []
    (_, header), body = rows[0], rows[1:]
    for line, cells in body:
        if len(cells) < len(header):
            raise DataError(f"{path} row {line}: {len(cells)} cells, header has "
                            f"{len(header)}")
    return header, [(line, dict(zip(header, cells))) for line, cells in body]


def read_csv(path) -> tuple:
    """(header, rows) of a CSV text table, each row a dict keyed by the
    header. A row with fewer cells than the header is a DataError; cells
    past the header are ignored."""
    header, rows = _numbered_csv(path)
    return header, [row for _, row in rows]


def write_csv(path, columns, rows, header_lines=()) -> None:
    """Write ``# `` header lines, then a CSV table of ``columns`` and ``rows``."""
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# assay and score CSVs
# ---------------------------------------------------------------------------

def _mutant_rows(path, column: str):
    """Yield (line, mutant, value, row) for each row of a CSV table
    keyed by ``mutant``: the header holds ``mutant`` and ``column``, each
    stripped mutant appears once and every ``column`` cell is a finite
    float."""
    header, rows = _numbered_csv(path)
    for col in ("mutant", column):
        if col not in header:
            raise DataError(f"{path}: missing mandatory column {col!r}")
    seen = set()
    for i, row in rows:
        mutant = row["mutant"].strip()
        if mutant in seen:
            raise DataError(f"{path} row {i}: duplicate mutant {mutant!r}")
        seen.add(mutant)
        try:
            value = float(row[column])
        except ValueError:
            raise DataError(f"{path} row {i}: unparseable {column}") from None
        if not math.isfinite(value):
            raise DataError(f"{path} row {i}: non-finite {column} {value!r} "
                            f"(NaN or infinite)")
        yield i, mutant, value, row


def load_assay(path, protein_id: str = None) -> AssayTable:
    path = Path(path)
    variants = []
    for i, mutant, score, row in _mutant_rows(path, "DMS_score"):
        dms_bin = None
        if "DMS_score_bin" in row:
            raw = row["DMS_score_bin"].strip()
            if raw not in ("0", "1"):
                raise DataError(f"{path} row {i}: DMS_score_bin must be 0 or 1")
            dms_bin = int(raw)
        variants.append(AssayVariant(mutant, score, dms_bin))
    if not variants:
        raise DataError(f"{path}: empty assay table")
    return AssayTable(protein_id=protein_id or path.stem, variants=tuple(variants))


def load_external_scores(path) -> dict:
    """Read a scores CSV (``mutant`` and ``score`` columns, others ignored)
    into an ordered mutant -> score map; every score must be finite."""
    return {mutant: value
            for _, mutant, value, _ in _mutant_rows(Path(path), "score")}
