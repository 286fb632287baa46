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
from dataclasses import dataclass, field, fields

import numpy as np

from .core import (
    LomoError,
    Rng,
    float_errors,
    forked_map,
    format_float,
    read_text,
    require_int,
    require_real,
    write_text,
)
from .inference import BLOCK_VALUES, FrameSequence
from .model import MAX_TEMPLATES, perm_unrank

MANIFEST_HEADER = "id,label,group,path"
# parse_manifest and gen_synthetic fork readers or writers only when each
# worker gets at least this many sequence files (forked_map's min_share). A
# fork costs about 5 ms and a 40-frame file 0.5 ms (d=20) to 2.5 ms (d=100)
# to read, about three times that to write; with two CPUs, forked reads lost
# below 16 files per worker at d=20 and won from 32 on, at both d, and
# forked writes won from 16.
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
    """Headerless CSV, one row per frame, values in shortest round-trip form.

    The text is built as one string: repr of a Python float is format_float.
    """
    write_text(path, "".join(",".join(map(repr, row)) + "\n" for row in seq.frames.tolist()))


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


def parse_manifest(path) -> DatasetManifest:
    """Read and validate a manifest; every referenced sequence must share d.

    A UTF-8 byte-order mark and empty lines are ignored. Rows are checked
    in order and only the sequence files of the rows before the first bad
    row are read, so the first error in row order is the one raised. The
    files are read by core.forked_map with at least FORK_MIN_FILES files
    per worker; the result is the same as a serial read. See
    core.forked_map for when it forks and for the threads that make
    forking unsafe.
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
    sequences: dict[str, FrameSequence] = {}
    dim = None
    reads = forked_map(lambda rec: read_sequence(rec.path, rec.id), records, FORK_MIN_FILES)
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
# folds

SCHEME_LOGO = "logo"
SCHEME_KFOLD = "kfold"


@dataclass(frozen=True)
class Fold:
    train_ids: tuple[str, ...]
    test_ids: tuple[str, ...]


def make_folds(
    manifest: DatasetManifest, scheme: str, seed: int, k: int | None = None
) -> list[Fold]:
    """Group-disjoint folds: LOGO (one fold per group) or grouped k-fold.

    For k-fold the group list is shuffled by the seeded Rng and dealt
    round-robin, so folds are deterministic and no group straddles a fold.
    LOGO has one fold per group, so giving it k is an error.
    """
    scheme = str(scheme).lower()
    seed = require_int("seed", seed, minimum=0)
    groups = manifest.groups
    if len(groups) < 2:
        raise LomoError(f"grouped folding needs >= 2 groups, got {len(groups)}")
    if scheme == SCHEME_LOGO:
        if k is not None:
            raise LomoError(f"the logo scheme takes no fold count k, got k={k}")
        fold_groups = [[g] for g in groups]
    elif scheme == SCHEME_KFOLD:
        if k is None:
            raise LomoError("kfold scheme needs a fold count k")
        k = require_int("k", k)
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
    return folds


# ---------------------------------------------------------------------------
# preprocessing


def _l2_rows(frames: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Each row divided by its l2 norm; rows with norm <= 1e-12 are kept.

    The result goes to `out`, a new array when it is None; out=frames
    normalises in place. The batched matmul takes each row's sum of squares
    with the same BLAS dot product as np.linalg.norm of that row, so the
    bits match it; einsum and norm(axis=1) sum in another order and do not.
    A kept row is divided by 1.0, which leaves its bits as they are.
    """
    norms = np.sqrt(np.matmul(frames[:, None, :], frames[:, :, None]))[:, 0, 0]
    norms[norms <= 1e-12] = 1.0
    return np.divide(frames, norms[:, None], out=out)


def _frame_blocks(seqs):
    """The frames of runs of consecutive sequences, one run at a time.

    A run holds at most BLOCK_VALUES frame values; a longer sequence is a
    run of its own. Each block is a new array, so it may be written to.
    """
    run: list[np.ndarray] = []
    size = 0
    for seq in seqs:
        if run and size + seq.frames.size > BLOCK_VALUES:
            yield np.vstack(run)
            run, size = [], 0
        run.append(seq.frames)
        size += seq.frames.size
    if run:
        yield np.vstack(run)


def _pca_moments(seqs, l2: bool) -> tuple[np.ndarray, np.ndarray]:
    """(mean, M2) of the training frames, l2-normalised when `l2` is set.

    M2 is the sum of the outer products of the centred frames. Each block
    from _frame_blocks is normalised and centred on its own mean in place,
    and its moments are merged into the running ones by the pairwise update
    of Chan, Golub and LeVeque, so no more than one block is held at once.
    """
    n, mean, m2 = 0, None, None
    for mat in _frame_blocks(seqs):
        if l2:
            _l2_rows(mat, out=mat)
        nb = mat.shape[0]
        mean_b = mat.mean(axis=0)
        mat -= mean_b
        m2_b = mat.T @ mat
        del mat  # else it lives on while _frame_blocks stacks the next block
        if mean is None:
            n, mean, m2 = nb, mean_b, m2_b
            continue
        delta = mean_b - mean
        total = n + nb
        mean += delta * (nb / total)
        m2 += m2_b
        m2 += np.outer(delta, delta * (n * nb / total))
        n = total
    return mean, m2


@dataclass
class PreprocessConfig:
    """Feature pipeline: unit-l2, PCA (fit on train only), stacking, pooling.

    stack concatenates each frame with the next stack - 1 frames, the last
    frame repeated as padding. pool collapses each sequence to one frame by
    elementwise mean or max, the input the svm_pool variant expects; None
    keeps every frame.
    """

    l2: bool = False
    pca_dim: int | None = None
    stack: int = 1
    pool: str | None = None

    def __post_init__(self):
        self.stack = require_int("stack", self.stack)
        if self.stack < 1:
            raise LomoError(f"stack window must be >= 1, got {self.stack}")
        if self.pca_dim is not None:
            self.pca_dim = require_int("pca_dim", self.pca_dim, minimum=1)
        if self.pool not in (None, "mean", "max"):
            raise LomoError(f"pool must be None, 'mean' or 'max', got {self.pool!r}")


@dataclass
class FittedPreprocess:
    """A PreprocessConfig plus what fit_preprocess learned for it: the PCA
    mean (d,) and components (k, d), rows unit eigenvectors, both None when
    config.pca_dim is None."""

    config: PreprocessConfig
    mean: np.ndarray | None = None
    components: np.ndarray | None = None


def fit_preprocess(train_seqs, config: PreprocessConfig) -> FittedPreprocess:
    """Fit the PCA mean and top-k components on unpooled training frames.

    With pca_dim set there must be a sequence, all must share d, and there
    must be two frames. The frames, l2-normalised first when config.l2 is
    set, are summed one block of consecutive sequences at a time
    (_pca_moments), so the fit's memory does not grow with the number of
    training sequences; the sequences are never written to. Eigenvectors
    come from LAPACK eigh, sorted by decreasing eigenvalue (ties in eigh's
    order), each signed so its largest-magnitude entry is positive. A
    numeric error's message suggests l2 normalisation when it is off.
    """
    k = config.pca_dim
    if k is None:
        return FittedPreprocess(config)
    seqs = list(train_seqs)
    if not seqs:
        raise LomoError("PCA needs training sequences, got none")
    d = seqs[0].dim
    for seq in seqs:
        seq.require_dim(d)
    n = sum(seq.num_frames for seq in seqs)
    if n < 2:
        raise LomoError(f"PCA needs >= 2 training frames, got {n}")
    if not 1 <= k <= d:
        raise LomoError(f"pca dimension k={k} out of range 1..{d}")
    hint = "" if config.l2 else "; try --l2 to normalise the frames"
    with float_errors(lambda err: f"PCA fit: {err}{hint}"):
        mean, m2 = _pca_moments(seqs, config.l2)
        eigvals, eigvecs = np.linalg.eigh(m2 / (n - 1))
    order = np.argsort(-eigvals, kind="stable")
    components = eigvecs[:, order[:k]].T.copy()
    for row in components:
        lead = int(np.argmax(np.abs(row)))
        if row[lead] < 0:
            row *= -1.0
    return FittedPreprocess(config, mean, components)


def apply_preprocess(fitted: FittedPreprocess, seq: FrameSequence) -> FrameSequence:
    """l2, then PCA, then stacking, then pooling; with no step set, `seq` itself."""
    cfg = fitted.config
    frames = seq.frames
    with float_errors(lambda err: f"sequence {seq.name}: {err} while preprocessing"):
        if cfg.l2:
            frames = _l2_rows(frames)
        if fitted.mean is not None:
            if fitted.mean.shape[0] != seq.dim:
                raise LomoError(
                    f"dimension mismatch: basis d={fitted.mean.shape[0]}, sequence "
                    f"{seq.name} d={seq.dim}"
                )
            frames = (frames - fitted.mean) @ fitted.components.T
        if cfg.stack > 1:
            n = frames.shape[0]
            idx = np.arange(n)
            frames = np.concatenate(
                [frames[np.minimum(idx + j, n - 1)] for j in range(cfg.stack)], axis=1
            )
        if cfg.pool == "mean":
            frames = frames.mean(axis=0, keepdims=True)
        elif cfg.pool == "max":
            frames = frames.max(axis=0, keepdims=True)
    if frames is seq.frames:
        return seq
    return FrameSequence(frames, id=seq.id)


def prepare(config: PreprocessConfig, fit_on, *splits) -> tuple:
    """Fit `config` on the sequences `fit_on` only, then apply it to each split.

    Returns the FittedPreprocess, then one list of prepared sequences per
    split. `train`, `predict` and every cv fold prepare their sequences here.
    """
    fitted = fit_preprocess(fit_on, config)
    return (fitted, *([apply_preprocess(fitted, seq) for seq in split] for split in splits))


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
        for name in ("dim", "num_frames", "num_events", "min_gap", "num_pos", "num_neg"):
            setattr(self, name, require_int(name, getattr(self, name)))
        self.seed = require_int("seed", self.seed, minimum=0)
        self.neg_mode = str(self.neg_mode).lower()
        require_int("dim", self.dim, minimum=1)
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
        require_int("min_gap", self.min_gap, minimum=0)
        require_real("noise_sigma", self.noise_sigma)
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise LomoError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if self.num_pos < 1 or self.num_neg < 1:
            raise LomoError("num_pos and num_neg must be >= 1")

    def text_fields(self) -> list[tuple[str, str]]:
        """(field, text) for every field in declaration order, floats in
        format_float form: the lines of spec.txt and the synth echo."""
        pairs = []
        for f in fields(self):
            value = getattr(self, f.name)
            pairs.append((f.name, format_float(value) if isinstance(value, float) else str(value)))
        return pairs


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


def _normal(rng: Rng, spec: SynthSpec, name: str, shape: tuple[int, int]) -> np.ndarray:
    """rng.normal(size=shape); a shape numpy cannot hold or allocate raises a
    LomoError naming the spec field `name` that set it."""
    try:
        return rng.normal(size=shape)
    except (ValueError, MemoryError) as err:
        value = getattr(spec, name)
        raise LomoError(f"{name}={value} is too large: {str(err) or 'out of memory'}") from None


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
    frames = spec.noise_sigma * _normal(rng, spec, "num_frames", (spec.num_frames, spec.dim))
    if planted:
        noise = spec.noise_sigma * rng.normal(size=(m, spec.dim))
        for j, position in enumerate(planted):
            frames[position - 1] = prototypes[j] + noise[j]
    return frames, planted


def synth_records(spec: SynthSpec) -> tuple[list[SynthRecord], np.ndarray]:
    """Generate all sequences in memory; fully determined by spec.seed.

    A numeric error's message names the sequence and noise_sigma, and a dim
    or num_frames too large to draw raises a LomoError naming that field.
    """
    rng = Rng(spec.seed)
    raw = _normal(rng, spec, "dim", (spec.num_events, spec.dim))
    prototypes = _l2_rows(raw)
    records: list[SynthRecord] = []
    width = max(4, len(str(max(spec.num_pos, spec.num_neg) - 1)))
    with float_errors(lambda err: f"sequence {rec_id}: {err} with noise_sigma={spec.noise_sigma}"):
        for label, count in (("pos", spec.num_pos), ("neg", spec.num_neg)):
            for i in range(count):
                rec_id = f"{label}{i:0{width}d}"
                frames, planted = _plant(rng, spec, prototypes, label)
                records.append(SynthRecord(rec_id, label, f"s{i % 10:02d}", frames, planted))
    return records, prototypes


def gen_synthetic(spec: SynthSpec, out_dir) -> DatasetManifest:
    """Write manifest.csv, spec.txt, and seq_<id>.csv files; byte-deterministic.

    The sequence files are written by core.forked_map with at least
    FORK_MIN_FILES files per worker; the bytes are the same as a serial
    write. The first write error in record order is raised, and
    manifest.csv and spec.txt are written only after every sequence file.
    See core.forked_map for when it forks and for the threads that make
    forking unsafe.
    """
    records, _ = synth_records(spec)
    os.makedirs(out_dir, exist_ok=True)
    sequences = {rec.id: FrameSequence(rec.frames, id=rec.id) for rec in records}
    paths = {rec.id: os.path.join(out_dir, f"seq_{rec.id}.csv") for rec in records}
    writes = forked_map(
        lambda rec_id: write_sequence(sequences[rec_id], paths[rec_id]), paths, FORK_MIN_FILES
    )
    with contextlib.closing(writes):
        for _ in writes:
            pass
    manifest_rows = [f"{rec.id},{rec.label},{rec.group},seq_{rec.id}.csv" for rec in records]
    write_text(
        os.path.join(out_dir, "manifest.csv"),
        MANIFEST_HEADER + "\n" + "\n".join(manifest_rows) + "\n",
    )
    write_text(
        os.path.join(out_dir, "spec.txt"),
        "".join(f"{key}={text}\n" for key, text in spec.text_fields()),
    )
    return DatasetManifest(
        records=[
            ManifestRecord(rec.id, rec.label, rec.group, os.path.abspath(paths[rec.id]))
            for rec in records
        ],
        dim=spec.dim,
        sequences=sequences,
    )
