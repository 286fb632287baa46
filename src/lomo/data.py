"""Dataset files, fold construction, preprocessing, and synthetic benchmarks.

File formats are deliberately plain: sequences are headerless numeric CSV
(one row per frame), manifests are CSV with header ``id,label,group,path``
and paths resolved relative to the manifest's directory. All floats are
written with shortest round-trip formatting so rewrites are byte-stable.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .core import LomoError, Rng, as_vector, cpu_count, forked_map, format_float, read_text
from .inference import FrameSequence
from .model import MAX_TEMPLATES, perm_unrank

MANIFEST_HEADER = "id,label,group,path"
# parse_manifest forks a reader only when each worker gets at least this
# many sequence files. A fork costs about 5 ms and a 40-frame file 0.5 ms
# (d=20) to 2.5 ms (d=100) to read; with two CPUs, forking lost below 16
# files per worker at d=20 and won from 32 on, at both d.
FORK_MIN_FILES = 32


# ---------------------------------------------------------------------------
# sequence and manifest files


def read_sequence(path, seq_id: str | None = None) -> FrameSequence:
    """Parse a headerless numeric CSV into a FrameSequence.

    A UTF-8 byte-order mark and trailing blank lines are ignored.
    """
    lines = read_text(path, "utf-8-sig").splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise LomoError(f"{path}: row 1: empty sequence file")
    frames = _parse_lines(lines)
    if frames is None:
        frames = _parse_cells(path, lines)
    if seq_id is None:
        seq_id = os.path.splitext(os.path.basename(str(path)))[0]
    return FrameSequence(frames, id=seq_id)


def _parse_lines(lines: list[str]) -> np.ndarray | None:
    """All lines parsed in C, or None when the file needs the per-cell check.

    loadtxt skips inner blank lines and rejects some spellings float()
    accepts (such as ``1_000``), so its result is kept only when it has one
    row per line, the first line's column count and no non-finite value.
    """
    try:
        frames = np.loadtxt(lines, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    if frames.shape != (len(lines), lines[0].count(",") + 1) or not np.isfinite(frames).all():
        return None
    return frames


def _parse_cells(path, lines: list[str]) -> np.ndarray:
    """Per-cell float() parse; raises a LomoError naming file, row and column."""
    rows = []
    width = None
    for row_no, line in enumerate(lines, start=1):
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise LomoError(
                f"{path}: row {row_no} has {len(cells)} columns, expected {width}"
            )
        values = []
        for col_no, cell in enumerate(cells, start=1):
            try:
                v = float(cell)
            except ValueError:
                raise LomoError(
                    f"{path}: row {row_no}, column {col_no}: {cell.strip()!r} is not numeric"
                ) from None
            if not math.isfinite(v):
                raise LomoError(f"{path}: row {row_no}, column {col_no}: non-finite value")
            values.append(v)
        rows.append(values)
    return np.array(rows, dtype=np.float64)


def write_sequence(seq: FrameSequence, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for frame in seq.frames:
            fh.write(",".join(format_float(v) for v in frame) + "\n")


@dataclass(frozen=True)
class ManifestRecord:
    id: str
    label: str
    group: str
    path: str  # absolute, already resolved against the manifest directory


@dataclass
class DatasetManifest:
    """Manifest records, plus each record's frames keyed by record id.

    parse_manifest reads every sequence file once to check d and keeps the
    frames, so no caller reads a sequence file a second time.
    """

    records: list[ManifestRecord]
    dim: int
    sequences: dict[str, FrameSequence] = field(default_factory=dict)

    @property
    def classes(self) -> list[str]:
        return sorted({r.label for r in self.records})

    @property
    def groups(self) -> list[str]:
        return sorted({r.group for r in self.records})

    def by_id(self) -> dict[str, ManifestRecord]:
        return {r.id: r for r in self.records}


def parse_manifest(path) -> DatasetManifest:
    """Read and validate a manifest; every referenced sequence must share d.

    A UTF-8 byte-order mark and empty lines are ignored. Rows are checked
    in order and only the sequence files of the rows before the first bad
    row are read, so the first error in row order is the one raised. With
    at least FORK_MIN_FILES files for each of two or more CPUs, the files
    are read by forked workers (core.forked_map); the result is the same.
    Forking is unsafe in a process that runs other threads, including a
    BLAS built on GNU OpenMP: a worker can deadlock and the call then
    never returns (see core.forked_map).
    """
    base = os.path.dirname(os.path.abspath(str(path)))
    lines = read_text(path, "utf-8-sig").splitlines()
    if not lines or lines[0] != MANIFEST_HEADER:
        got = lines[0] if lines else ""
        raise LomoError(f"{path}: expected header {MANIFEST_HEADER!r}, got {got!r}")
    records: list[ManifestRecord] = []
    ids: set[str] = set()
    row_error = None
    for row_no, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        try:
            records.append(_manifest_record(path, base, row_no, line, ids))
        except LomoError as err:
            row_error = err
            break
    workers = min(cpu_count(), len(records) // FORK_MIN_FILES)
    sequences: dict[str, FrameSequence] = {}
    dim = None
    reads = forked_map(lambda rec: read_sequence(rec.path, rec.id), records, workers)
    with contextlib.closing(reads):
        for rec, seq in zip(records, reads):
            if dim is None:
                dim = seq.dim
            elif seq.dim != dim:
                raise LomoError(
                    f"{path}: record {rec.id!r}: dimension {seq.dim} differs from {dim}"
                )
            sequences[rec.id] = seq
    if row_error is not None:
        raise row_error
    if not records:
        raise LomoError(f"{path}: manifest lists no records")
    return DatasetManifest(records, dim, sequences)


def _manifest_record(path, base: str, row_no: int, line: str, ids: set[str]) -> ManifestRecord:
    """One manifest row checked and resolved; its id is added to `ids`."""
    cells = line.split(",")
    if len(cells) != 4:
        raise LomoError(f"{path}: row {row_no} has {len(cells)} columns, expected 4")
    rec_id, label, group, rel_path = (c.strip() for c in cells)
    if not rec_id or not label:
        raise LomoError(f"{path}: row {row_no}: empty id or label")
    if rec_id in ids:
        raise LomoError(f"{path}: duplicate id {rec_id!r} at row {row_no}")
    seq_path = rel_path if os.path.isabs(rel_path) else os.path.join(base, rel_path)
    if not os.path.isfile(seq_path):
        raise LomoError(f"{path}: record {rec_id!r}: missing sequence file {rel_path!r}")
    ids.add(rec_id)
    return ManifestRecord(rec_id, label, group, seq_path)


# ---------------------------------------------------------------------------
# fold plans

SCHEME_LOGO = "logo"
SCHEME_KFOLD = "kfold"


@dataclass(frozen=True)
class Fold:
    train_ids: tuple[str, ...]
    test_ids: tuple[str, ...]


@dataclass
class FoldPlan:
    folds: list[Fold]
    scheme: str


def make_folds(
    manifest: DatasetManifest, scheme: str, seed: int, k: int | None = None
) -> FoldPlan:
    """Group-disjoint folds: LOGO (one fold per group) or grouped k-fold.

    For k-fold the group list is shuffled by the seeded Rng and dealt
    round-robin, so folds are deterministic and no group straddles a fold.
    """
    scheme = str(scheme).lower()
    groups = manifest.groups
    if len(groups) < 2:
        raise LomoError(f"grouped folding needs >= 2 groups, got {len(groups)}")
    if scheme == SCHEME_LOGO:
        fold_groups = [[g] for g in groups]
    elif scheme == SCHEME_KFOLD:
        if k is None:
            raise LomoError("kfold scheme needs a fold count k")
        if k < 2:
            raise LomoError(f"kfold needs k >= 2, got {k}")
        if k > len(groups):
            raise LomoError(f"k={k} exceeds the {len(groups)} available groups")
        order = Rng(seed).permutation(len(groups))
        fold_groups = [[] for _ in range(k)]
        for pos, gi in enumerate(order):
            fold_groups[pos % k].append(groups[int(gi)])
    else:
        raise LomoError(f"unknown scheme {scheme!r}, expected 'logo' or 'kfold'")
    folds = []
    for members in fold_groups:
        member_set = set(members)
        test = tuple(r.id for r in manifest.records if r.group in member_set)
        tr = tuple(r.id for r in manifest.records if r.group not in member_set)
        folds.append(Fold(train_ids=tr, test_ids=test))
    return FoldPlan(folds=folds, scheme=scheme)


# ---------------------------------------------------------------------------
# preprocessing


def _l2_rows(frames: np.ndarray) -> np.ndarray:
    """Each row divided by its l2 norm; rows with norm <= 1e-12 are kept.

    The batched matmul takes each row's sum of squares with the same BLAS
    dot product as np.linalg.norm of that row, so the bits match it; einsum
    and norm(axis=1) sum in another order and do not.
    """
    norms = np.sqrt(np.matmul(frames[:, None, :], frames[:, :, None]))[:, 0, 0]
    small = norms <= 1e-12
    norms[small] = 1.0
    out = frames / norms[:, None]
    out[small] = frames[small]
    return out


def l2_normalize(v) -> np.ndarray:
    """v / ||v|| with a small-norm guard that returns v unchanged."""
    v = np.asarray(v, dtype=np.float64)
    return _l2_rows(v.reshape(1, -1)).reshape(v.shape)


def l2_normalize_frames(seq: FrameSequence) -> FrameSequence:
    return FrameSequence(_l2_rows(seq.frames), id=seq.id)


def stack_frames(seq: FrameSequence, window: int) -> FrameSequence:
    """Concatenate each frame with the next window-1 frames (last-frame pad)."""
    if window < 1:
        raise LomoError(f"stack window must be >= 1, got {window}")
    n = seq.num_frames
    idx = np.arange(n)
    parts = [seq.frames[np.minimum(idx + j, n - 1)] for j in range(window)]
    return FrameSequence(np.concatenate(parts, axis=1), id=seq.id)


def pool(seq: FrameSequence, mode: str) -> np.ndarray:
    """Collapse a sequence to one vector by elementwise mean or max."""
    mode = str(mode).lower()
    if mode == "mean":
        return seq.frames.mean(axis=0)
    if mode == "max":
        return seq.frames.max(axis=0)
    raise LomoError(f"pooling mode must be 'mean' or 'max', got {mode!r}")


def pooled_sequence(seq: FrameSequence, mode: str) -> FrameSequence:
    return FrameSequence(pool(seq, mode)[None, :], id=seq.id)


@dataclass
class PcaBasis:
    mean: np.ndarray  # (d,)
    components: np.ndarray  # (k, d), rows are unit eigenvectors


def pca_fit(vectors, k: int) -> PcaBasis:
    """Mean plus top-k eigenvectors of the sample covariance (LAPACK eigh).

    Eigenvalues are sorted in decreasing order, equal ones keeping eigh's
    order. Each eigenvector's sign is fixed so its largest-magnitude
    component is positive, making the basis deterministic.
    """
    mat = np.asarray(vectors, dtype=np.float64)
    if mat.ndim != 2:
        mat = np.vstack([as_vector(v) for v in vectors])
    n, d = mat.shape
    if n < 2:
        raise LomoError(f"pca_fit needs >= 2 samples, got {n}")
    if not 1 <= k <= d:
        raise LomoError(f"pca dimension k={k} out of range 1..{d}")
    mean = mat.mean(axis=0)
    centered = mat - mean
    cov = centered.T @ centered / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(-eigvals, kind="stable")
    components = eigvecs[:, order[:k]].T.copy()
    for row in components:
        lead = int(np.argmax(np.abs(row)))
        if row[lead] < 0:
            row *= -1.0
    return PcaBasis(mean=mean, components=components)


def pca_transform(basis: PcaBasis, v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1] != basis.mean.shape[0]:
        raise LomoError(
            f"dimension mismatch: basis d={basis.mean.shape[0]}, vector d={v.shape[-1]}"
        )
    return (v - basis.mean) @ basis.components.T


def pca_transform_sequence(basis: PcaBasis, seq: FrameSequence) -> FrameSequence:
    return FrameSequence(pca_transform(basis, seq.frames), id=seq.id)


@dataclass
class PreprocessConfig:
    """Per-fold feature pipeline: unit-l2, PCA (fit on train only), stacking."""

    l2: bool = False
    pca_dim: int | None = None
    stack: int = 1

    def __post_init__(self):
        if self.stack < 1:
            raise LomoError(f"stack window must be >= 1, got {self.stack}")
        if self.pca_dim is not None and self.pca_dim < 1:
            raise LomoError(f"pca_dim must be >= 1, got {self.pca_dim}")

    @property
    def is_identity(self) -> bool:
        return not self.l2 and self.pca_dim is None and self.stack == 1


@dataclass
class FittedPreprocess:
    config: PreprocessConfig
    basis: PcaBasis | None


def fit_preprocess(train_seqs, config: PreprocessConfig) -> FittedPreprocess:
    """Fit pipeline statistics (the PCA basis) on training sequences only."""
    basis = None
    if config.pca_dim is not None:
        frames = np.vstack([seq.frames for seq in train_seqs])
        if config.l2:
            frames = _l2_rows(frames)
        basis = pca_fit(frames, config.pca_dim)
    return FittedPreprocess(config=config, basis=basis)


def apply_preprocess(fitted: FittedPreprocess, seq: FrameSequence) -> FrameSequence:
    cfg = fitted.config
    out = seq
    if cfg.l2:
        out = l2_normalize_frames(out)
    if fitted.basis is not None:
        out = pca_transform_sequence(fitted.basis, out)
    if cfg.stack > 1:
        out = stack_frames(out, cfg.stack)
    return out


# ---------------------------------------------------------------------------
# synthetic planted-order benchmark

NEG_MODES = ("shuffled", "absent")


@dataclass
class SynthSpec:
    """Planted sub-event benchmark: same prototypes in both classes, only the
    temporal order distinguishes them in shuffled mode."""

    dim: int = 20
    num_frames: int = 40
    num_events: int = 3
    noise_sigma: float = 0.3
    min_gap: int = 5
    num_pos: int = 200
    num_neg: int = 200
    neg_mode: str = "shuffled"
    seed: int = 7

    def __post_init__(self):
        self.neg_mode = str(self.neg_mode).lower()
        if self.dim < 1:
            raise LomoError(f"dim must be >= 1, got {self.dim}")
        if not 1 <= self.num_events <= MAX_TEMPLATES:
            raise LomoError(f"num_events must be in 1..{MAX_TEMPLATES}, got {self.num_events}")
        if self.neg_mode not in NEG_MODES:
            raise LomoError(f"neg_mode must be one of {NEG_MODES}, got {self.neg_mode!r}")
        if self.neg_mode == "shuffled" and self.num_events < 2:
            raise LomoError(
                "shuffled negatives need num_events >= 2 (no non-identity permutation exists)"
            )
        if self.num_frames <= self.num_events * (self.min_gap + 1):
            raise LomoError(
                f"num_frames must exceed num_events*(min_gap+1) = "
                f"{self.num_events * (self.min_gap + 1)}, got {self.num_frames}"
            )
        if self.min_gap < 0:
            raise LomoError(f"min_gap must be >= 0, got {self.min_gap}")
        if self.noise_sigma < 0:
            raise LomoError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.num_pos < 1 or self.num_neg < 1:
            raise LomoError("num_pos and num_neg must be >= 1")


@dataclass
class SynthRecord:
    id: str
    label: str
    group: str
    frames: np.ndarray
    planted: tuple[int, ...]  # 1-based position of prototype j; empty if none


def _draw_positions(rng: Rng, n: int, m: int, min_gap: int) -> list[int]:
    """m sorted positions in 1..n with consecutive gaps strictly > min_gap."""
    step = min_gap + 1
    slack = n - (m - 1) * step
    raw = sorted(rng.randint(slack) + 1 for _ in range(m))
    return [raw[i] + i * step for i in range(m)]


def _plant(rng: Rng, spec: SynthSpec, prototypes: np.ndarray, label: str) -> tuple[np.ndarray, tuple[int, ...]]:
    m = spec.num_events
    planted: tuple[int, ...] = ()
    if label == "pos" or spec.neg_mode == "shuffled":
        slots = _draw_positions(rng, spec.num_frames, m, spec.min_gap)
        if label == "pos":
            planted = tuple(slots)
        else:
            # uniformly drawn non-identity pattern; index 1 is the identity
            pattern = perm_unrank(2 + rng.randint(math.factorial(m) - 1), m)
            planted = tuple(slots[pattern[j] - 1] for j in range(m))
    frames = spec.noise_sigma * rng.normal(size=(spec.num_frames, spec.dim))
    if planted:
        noise = spec.noise_sigma * rng.normal(size=(m, spec.dim))
        for j, position in enumerate(planted):
            frames[position - 1] = prototypes[j] + noise[j]
    return frames, planted


def synth_records(spec: SynthSpec) -> tuple[list[SynthRecord], np.ndarray]:
    """Generate all sequences in memory; fully determined by spec.seed."""
    rng = Rng(spec.seed)
    raw = rng.normal(size=(spec.num_events, spec.dim))
    prototypes = _l2_rows(raw)
    records: list[SynthRecord] = []
    width = max(4, len(str(max(spec.num_pos, spec.num_neg) - 1)))
    for label, count in (("pos", spec.num_pos), ("neg", spec.num_neg)):
        for i in range(count):
            frames, planted = _plant(rng, spec, prototypes, label)
            records.append(
                SynthRecord(
                    id=f"{label}{i:0{width}d}",
                    label=label,
                    group=f"s{i % 10:02d}",
                    frames=frames,
                    planted=planted,
                )
            )
    return records, prototypes


def gen_synthetic(spec: SynthSpec, out_dir) -> DatasetManifest:
    """Write manifest.csv, spec.txt, and seq_<id>.csv files; byte-deterministic."""
    records, _ = synth_records(spec)
    os.makedirs(out_dir, exist_ok=True)
    manifest_rows = []
    sequences = {}
    for rec in records:
        rel = f"seq_{rec.id}.csv"
        sequences[rec.id] = FrameSequence(rec.frames, id=rec.id)
        write_sequence(sequences[rec.id], os.path.join(out_dir, rel))
        manifest_rows.append(f"{rec.id},{rec.label},{rec.group},{rel}")
    manifest_path = os.path.join(out_dir, "manifest.csv")
    with open(manifest_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(MANIFEST_HEADER + "\n")
        fh.write("\n".join(manifest_rows) + "\n")
    with open(os.path.join(out_dir, "spec.txt"), "w", encoding="utf-8", newline="\n") as fh:
        for key in (
            "dim",
            "num_frames",
            "num_events",
            "noise_sigma",
            "min_gap",
            "num_pos",
            "num_neg",
            "neg_mode",
            "seed",
        ):
            value = getattr(spec, key)
            text = format_float(value) if isinstance(value, float) else str(value)
            fh.write(f"{key}={text}\n")
    return DatasetManifest(
        records=[
            ManifestRecord(
                rec.id, rec.label, rec.group, os.path.join(os.path.abspath(out_dir), f"seq_{rec.id}.csv")
            )
            for rec in records
        ],
        dim=spec.dim,
        sequences=sequences,
    )
