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
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .core import (
    LomoError,
    _shown,
    decode_text,
    float_errors,
    forked_map,
    format_float,
    generator,
    read_bytes,
    read_text,
    real_array,
    require_choice,
    require_instance,
    require_int,
    require_items,
    require_iterable,
    require_real,
    too_large,
    write_text,
)
from .framecache import FrameCache, file_stat
from .inference import BLOCK_VALUES, FrameSequence, require_dimension, shape_blocks
from .model import perm_unrank, require_order_size

MANIFEST_HEADER = "id,label,group,path"
# parse_manifest and gen_synthetic fork readers or writers only when each
# worker gets at least this many sequence files (forked_map's min_share).
# parse_manifest counts only the files that miss their frame-cache stat
# rows, so a warm load reads no file and forks no worker. On two vCPUs a
# fork costs 2-5 ms and a 40-frame file 0.3-0.4 ms (d=20) to 1.5-2.3 ms
# (d=100) to read and parse, about three times that to write.
# Forked parses lost at 16 files per worker at d=20 in both of two runs and
# won at 64 per worker at d=100 in both; between those they won or lost as
# the shared second vCPU allowed. Forked writes won from 16.
FORK_MIN_FILES = 32


# ---------------------------------------------------------------------------
# sequence and manifest files


def read_sequence(path, seq_id: str | None = None) -> FrameSequence:
    """Parse a headerless numeric CSV into a FrameSequence.

    A UTF-8 byte-order mark and trailing blank lines are ignored.
    """
    raw = read_bytes(path)
    if seq_id is None:
        seq_id = os.path.splitext(os.path.basename(str(path)))[0]
    lines = decode_text(path, raw, "utf-8-sig").splitlines()
    del raw  # held through the parse, it left the heap 0.6 MB larger after 800 files
    return _parse(path, lines, seq_id)


def _parse(path, lines: list[str], seq_id: str) -> FrameSequence:
    """The decoded lines of the sequence file at `path` as a FrameSequence."""
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise LomoError(f"{path}: row 1: empty sequence file")
    frames = _parse_lines(lines)
    if frames is None:
        frames = _parse_cells(path, lines)
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
    require_instance("seq", seq, FrameSequence)
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

    parse_manifest loads every sequence file once, from the frame cache or
    by a parse, to check d and keeps the frames, so no caller reads a
    sequence file a second time. The records are kept as a list, and one
    that is not a ManifestRecord is refused.
    """

    records: list[ManifestRecord]
    dim: int
    sequences: dict[str, FrameSequence] = field(default_factory=dict)

    def __post_init__(self):
        self.records = require_items("records", self.records, ManifestRecord)

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
    row are read, so the first error in row order is the one raised.

    A file whose stat equals its row in the manifest's frame cache (see
    lomo.framecache) is not opened. The others are parsed once each, by
    read_sequence on core.forked_map with at least FORK_MIN_FILES such
    files per worker, dealt round-robin among themselves. The result is the
    same as a serial read. See core.forked_map for when it forks and for
    the threads that make forking unsafe. After such a read, when every
    record loaded, the cache is rewritten to hold this manifest's files.
    """
    base = os.path.dirname(os.path.abspath(str(path)))
    lines = read_text(path, "utf-8-sig").splitlines()
    if not lines or lines[0] != MANIFEST_HEADER:
        got = lines[0] if lines else ""
        raise LomoError(f"{path}: expected header {MANIFEST_HEADER!r}, got {got!r}")
    records: list[ManifestRecord] = []
    ids: set[str] = set()
    row_error = None
    sequences: dict[str, FrameSequence] = {}
    dim = None
    with FrameCache(path) as cache:
        for row_no, line in enumerate(lines[1:], start=2):
            if not line:
                continue
            try:
                rec, st = _manifest_record(path, base, row_no, line, ids)
            except LomoError as err:
                row_error = err
                break
            records.append(rec)
            cache.add(rec.path, st)
        misses = cache.misses()
        loads = forked_map(lambda k: read_sequence(records[k].path, records[k].id), misses,
                           FORK_MIN_FILES)
        with contextlib.closing(loads):
            for k, rec in enumerate(records):
                seq = cache.take(k, rec.id, loads, lambda: read_sequence(rec.path, rec.id))
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
        cache.write()
    return DatasetManifest(records, dim, sequences)


def _manifest_record(path, base: str, row_no: int, line: str, ids: set[str]
                     ) -> tuple[ManifestRecord, os.stat_result]:
    """One manifest row checked and resolved, and its file's stat; its id is
    added to `ids`."""
    cells = line.split(",")
    if len(cells) != 4:
        raise LomoError(f"{path}: row {row_no} has {len(cells)} columns, expected 4")
    rec_id, label, group, rel_path = (c.strip() for c in cells)
    if not rec_id or not label:
        raise LomoError(f"{path}: row {row_no}: empty id or label")
    if rec_id in ids:
        raise LomoError(f"{path}: duplicate id {rec_id!r} at row {row_no}")
    seq_path = rel_path if os.path.isabs(rel_path) else os.path.join(base, rel_path)
    st = file_stat(seq_path)
    if st is None:
        raise LomoError(f"{path}: record {rec_id!r}: missing sequence file {rel_path!r}")
    ids.add(rec_id)
    return ManifestRecord(rec_id, label, group, seq_path), st


# ---------------------------------------------------------------------------
# folds

SCHEMES = ("logo", "kfold")


@dataclass(frozen=True)
class Fold:
    train_ids: tuple[str, ...]
    test_ids: tuple[str, ...]


def make_folds(
    manifest: DatasetManifest, scheme: str, seed: int, k: int | None = None
) -> list[Fold]:
    """Group-disjoint folds: LOGO (one fold per group) or grouped k-fold.

    For k-fold the group list is shuffled by core.generator(seed) and dealt
    round-robin, so folds are deterministic and no group straddles a fold.
    LOGO has one fold per group, so giving it k is an error.
    """
    require_instance("manifest", manifest, DatasetManifest)
    scheme = require_choice("scheme", scheme, SCHEMES)
    seed = require_int("seed", seed, minimum=0)
    groups = manifest.groups
    if len(groups) < 2:
        raise LomoError(f"grouped folding needs >= 2 groups, got {len(groups)}")
    if scheme == "logo":
        if k is not None:
            raise LomoError(f"the logo scheme takes no fold count k, got k={_shown(k, str)}")
        fold_groups = [[g] for g in groups]
    else:
        if k is None:
            raise LomoError("kfold scheme needs a fold count k")
        k = require_int("k", k, minimum=2)
        if k > len(groups):
            raise LomoError(f"k={_shown(k, str)} exceeds the {len(groups)} available groups")
        order = generator(seed).permutation(len(groups))
        fold_groups = [[] for _ in range(k)]
        for pos, gi in enumerate(order):
            fold_groups[pos % k].append(groups[int(gi)])
    folds = []
    for members in fold_groups:
        member_set = set(members)
        test = tuple(r.id for r in manifest.records if r.group in member_set)
        tr = tuple(r.id for r in manifest.records if r.group not in member_set)
        folds.append(Fold(train_ids=tr, test_ids=test))
    return folds


# ---------------------------------------------------------------------------
# preprocessing


def _row_norms(frames: np.ndarray) -> np.ndarray:
    """The divisor of each row of `frames` in _l2_rows: its l2 norm, or 1.0
    when that is <= 1e-12.

    The batched matmul takes each row's sum of squares with the same BLAS
    dot product as np.linalg.norm of that row, so the bits match it; einsum
    and norm(axis=1) sum in another order and do not.
    """
    norms = np.sqrt(np.matmul(frames[:, None, :], frames[:, :, None]))[:, 0, 0]
    norms[norms <= 1e-12] = 1.0
    return norms


def _l2_rows(frames: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Each row divided by its l2 norm; rows with norm <= 1e-12 are kept.

    The result goes to `out`, a new array when it is None; out=frames
    normalises in place. A kept row is divided by 1.0, which leaves its
    bits as they are.
    """
    return np.divide(frames, _row_norms(frames)[:, None], out=out)


def _l2_in_place(seqs) -> bool:
    """l2-normalise the frames of `seqs` in place, each distinct array once;
    False, with nothing written, when a row's sum of squares overflows.

    Every array's divisors are taken first (_row_norms, under
    core.float_errors), then each array is divided by its own. A row gets
    the bits that any _l2_rows pass over it gives, so the callers' later
    steps run on the frames they would have normalised themselves. Only a
    caller that owns the arrays may call this: `lomo cv` on the manifest it
    has just parsed.
    """
    arrays = list({id(seq.frames): seq.frames for seq in seqs}.values())
    try:
        with float_errors(str):
            divisors = [_row_norms(frames) for frames in arrays]
    except LomoError:
        return False
    for frames, norms in zip(arrays, divisors):
        np.divide(frames, norms[:, None], out=frames)
    return True


def _merge_moments(into, part):
    """`into` and `part`, two (n, mean, M2) moments, merged into `into`.

    The one merge rule, the pairwise update of Chan, Golub and LeVeque:
    `into`'s mean and M2 arrays are updated in place and `part` is left as
    it is. Returns the merged moments; None, for no frames, merges as the
    other side.
    """
    if into is None or part is None:
        return part if into is None else into
    n, mean, m2 = into
    nb, mean_b, m2_b = part
    delta = mean_b - mean
    total = n + nb
    mean += delta * (nb / total)
    m2 += m2_b
    m2 += np.outer(delta, delta * (n * nb / total))
    return total, mean, m2


def _pca_moments(seqs, l2: bool) -> tuple[int, np.ndarray, np.ndarray] | None:
    """(n, mean, M2) of the frames of `seqs`, l2-normalised when `l2` is
    set; None when there are no frames.

    n is the frame count and M2 the sum of the outer products of the
    centred frames. The frames of each block of inference.shape_blocks, at
    most BLOCK_VALUES values of sequences of one length, are copied into
    one array, normalised and centred on its own mean in place, and its
    moments are merged into the running ones (_merge_moments), so no more
    than one block is held at once and the sequences are never written to.
    """
    moments = None
    for block in shape_blocks(seqs, BLOCK_VALUES):
        mat = np.concatenate([seqs[k].frames for k in block])
        if l2:
            _l2_rows(mat, out=mat)
        mean_b = mat.mean(axis=0)
        mat -= mean_b
        part = (mat.shape[0], mean_b, mat.T @ mat)
        del mat  # else it lives on while the next block is copied
        moments = _merge_moments(moments, part)
    return moments


POOLS = ("mean", "max")


@dataclass
class PreprocessConfig:
    """Feature pipeline: unit-l2, PCA (fit on train only), stacking, pooling.

    stack concatenates each frame with the next stack - 1 frames, the last
    frame repeated as padding. pool collapses each sequence to one frame by
    elementwise mean or max, the input of the pooled SVM (variant mil); None
    keeps every frame.
    """

    l2: bool = False
    pca_dim: int | None = None
    stack: int = 1
    pool: str | None = None

    def __post_init__(self):
        if not isinstance(self.l2, (bool, np.bool_)):
            raise LomoError(f"l2 must be True or False, got {_shown(self.l2)}")
        self.stack = require_int("stack", self.stack, minimum=1)
        if self.pca_dim is not None:
            self.pca_dim = require_int("pca_dim", self.pca_dim, minimum=1)
        if self.pool is not None:
            self.pool = require_choice("pool", self.pool, POOLS)


@dataclass
class FittedPreprocess:
    """A PreprocessConfig plus what fit_preprocess learned for it: the PCA
    mean (d,) and components (k, d), rows unit eigenvectors, both None when
    config.pca_dim is None. Checked when built: with k set, both become
    finite C-ordered float64 arrays, k <= d (the arrays of a fit are kept)."""

    config: PreprocessConfig
    mean: np.ndarray | None = None
    components: np.ndarray | None = None

    def __post_init__(self):
        require_instance("config", self.config, PreprocessConfig)
        k = self.config.pca_dim
        if (self.mean is None, self.components is None) != (k is None, k is None):
            raise LomoError(f"with config.pca_dim={_shown(k, str)}, mean and components must "
                            f"both be {'None' if k is None else 'set'}")
        if k is None:
            return
        mean = self.mean = real_array("mean", self.mean, order="C")
        basis = self.components = real_array("components", self.components, order="C")
        if mean.ndim != 1 or basis.shape != (k, len(mean)) or k > len(mean):
            raise LomoError(f"with config.pca_dim={_shown(k, str)}, mean and components must "
                            f"have shapes (d,) and (pca_dim, d) with d >= pca_dim, got "
                            f"{mean.shape} and {basis.shape}")
        if not (np.isfinite(mean).all() and np.isfinite(basis).all()):
            raise LomoError("mean and components must be finite")


def fit_preprocess(train_seqs, config: PreprocessConfig) -> FittedPreprocess:
    """Fit the PCA mean and top-k components on unpooled training frames.

    With pca_dim set there must be a sequence, all must share d, and there
    must be two frames. The (n, mean, M2) moments of the frames,
    l2-normalised first when config.l2 is set, are summed one block of
    sequences of one length at a time (_pca_moments), so the fit's memory
    does not grow with the number of training sequences; the sequences are
    never written to. Eigenvectors of M2 / (n - 1) come from LAPACK eigh,
    sorted by decreasing eigenvalue (ties in eigh's order), each signed so
    its largest-magnitude entry is positive. A numeric error's message
    suggests l2 normalisation when it is off.
    """
    require_instance("config", config, PreprocessConfig)
    return _fit(require_items("train_seqs", train_seqs, FrameSequence), config)


def _fit(seqs, config, moments=_pca_moments):
    """fit_preprocess of checked arguments; moments(seqs, l2) runs after the
    checks, in the float-error guard. A cv fold passes its merged moments."""
    k = config.pca_dim
    if k is None:
        return FittedPreprocess(config)
    if not seqs:
        raise LomoError("PCA needs training sequences, got none")
    d = seqs[0].dim
    for seq in seqs:
        seq.require_dim(d)
    n = sum(seq.num_frames for seq in seqs)
    if n < 2:
        raise LomoError(f"PCA needs >= 2 training frames, got {n}")
    if not 1 <= k <= d:
        raise LomoError(f"pca dimension k={_shown(k, str)} out of range 1..{d}")
    hint = "" if config.l2 else "; try --l2 to normalise the frames"
    with float_errors(lambda err: f"PCA fit: {err}{hint}"):
        _, mean, m2 = moments(seqs, config.l2)
        eigvals, eigvecs = np.linalg.eigh(m2 / (n - 1))
    order = np.argsort(-eigvals, kind="stable")
    components = eigvecs[:, order[:k]].T.copy()
    for row in components:
        lead = int(np.argmax(np.abs(row)))
        if row[lead] < 0:
            row *= -1.0
    return FittedPreprocess(config, mean, components)


# Frame values in one stacked block of apply_preprocess (256 KiB of
# float64). It bounds the block's copy; its projection, stacked and pooled
# frames come on top. Memory, not speed, sets it: on a 2-vCPU Xeon with one
# BLAS thread, one fold's 600 sequences at d=100 (l2, PCA to 40, max pool)
# took 18.1 ms in blocks of this size
# and 17.5 ms in blocks of BLOCK_VALUES, against 23.2 ms one at a time, and
# on the cv-preprocess benchmark the larger blocks raised the median peak
# RSS from 60.68 to 60.80 MB (5 pairs), where this size kept it flat.
APPLY_BLOCK_VALUES = BLOCK_VALUES // 2


def _apply_stack(fitted: FittedPreprocess, seqs: list[FrameSequence]) -> np.ndarray:
    """The prepared frames of `seqs`, sequences of one frame shape, as one
    (B, N', w) array; row b is seqs[b] prepared on its own, bit for bit.

    l2 and centring run in place on one stacked copy, l2 on its (B·N, d)
    view through _l2_rows. The 3-D matmul runs one gemm per sequence, as
    the per-sequence projection does; a 2-D gemm over the stacked rows
    rounds differently. Stacking and pooling run along the frame axis.
    """
    cfg = fitted.config
    frames = np.stack([seq.frames for seq in seqs])
    count, n, d = frames.shape
    if cfg.l2:
        rows = frames.reshape(count * n, d)
        _l2_rows(rows, out=rows)
    if fitted.mean is not None:
        require_dimension("basis", fitted.mean.shape[0], seqs[0])
        frames -= fitted.mean
        frames = np.matmul(frames, fitted.components.T)
    if cfg.stack > 1:
        idx = np.arange(n)
        frames = np.concatenate(
            [frames[:, np.minimum(idx + j, n - 1)] for j in range(cfg.stack)], axis=2
        )
    if cfg.pool:  # each POOLS name is the ndarray reduction it applies
        frames = getattr(frames, cfg.pool)(axis=1, keepdims=True)
    return frames


def apply_preprocess(fitted: FittedPreprocess, seqs) -> list:
    """l2, then PCA, then stacking, then pooling, on each of `seqs`; with no
    step set, a list of the sequences themselves.

    The sequences are prepared in stacked blocks of equal shape, at most
    APPLY_BLOCK_VALUES frame values each (_apply_stack in the blocks of
    inference.shape_blocks), so the temporaries do not grow with the list.
    When a block fails, each sequence is prepared on its own in input
    order, so the error raised is the first failing sequence's own, as in
    a loop over the sequences.
    """
    require_instance("fitted", fitted, FittedPreprocess)
    seqs = list(require_iterable("seqs", seqs))
    cfg = fitted.config
    try:
        for seq in seqs:
            require_instance("seq", seq, FrameSequence)
        if not (cfg.l2 or fitted.mean is not None or cfg.stack > 1 or cfg.pool):
            return seqs
        out = [None] * len(seqs)
        for block in shape_blocks(seqs, APPLY_BLOCK_VALUES):
            members = [seqs[k] for k in block]
            with float_errors(lambda err: f"sequence {members[0].name}: {err} while preprocessing"):
                frames = _apply_stack(fitted, members)
            for k, seq, prepared in zip(block, members, frames):
                out[k] = seq._with_frames(prepared)  # float_errors kept them finite
        return out
    except LomoError:
        if len(seqs) > 1:
            for seq in seqs:
                apply_preprocess(fitted, [seq])
        raise


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
        for name, minimum in (
            ("dim", 1), ("num_frames", None), ("min_gap", 0), ("num_pos", 1), ("num_neg", 1)
        ):
            setattr(self, name, require_int(name, getattr(self, name), minimum))
        for name in ("num_pos", "num_neg"):  # no list holds more records
            count = getattr(self, name)
            if count > sys.maxsize:
                raise LomoError(f"{name} must be <= {sys.maxsize}, got {_shown(count, str)}")
        self.num_events = require_order_size("num_events", self.num_events)
        self.seed = require_int("seed", self.seed, minimum=0)
        require_real("noise_sigma", self.noise_sigma, minimum=0)
        self.neg_mode = require_choice("neg_mode", self.neg_mode, NEG_MODES)
        if self.neg_mode == "shuffled" and self.num_events < 2:
            raise LomoError(
                "shuffled negatives need num_events >= 2 (no non-identity permutation exists)"
            )
        if self.num_frames <= self.num_events * (self.min_gap + 1):
            raise LomoError(
                f"num_frames must exceed num_events*(min_gap+1) = "
                f"{_shown(self.num_events * (self.min_gap + 1), str)}, got {_shown(self.num_frames, str)}"
            )

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


def _draw_positions(rng: np.random.Generator, n: int, m: int, min_gap: int) -> list[int]:
    """m sorted positions in 1..n with consecutive gaps strictly > min_gap."""
    step = min_gap + 1
    slack = n - (m - 1) * step
    raw = sorted(int(rng.integers(slack)) + 1 for _ in range(m))
    return [raw[i] + i * step for i in range(m)]


def _plant(rng: np.random.Generator, spec: SynthSpec, prototypes: np.ndarray, label: str) -> tuple[np.ndarray, tuple[int, ...]]:
    m = spec.num_events
    planted: tuple[int, ...] = ()
    with too_large("num_frames", spec.num_frames):
        if label == "pos" or spec.neg_mode == "shuffled":
            slots = _draw_positions(rng, spec.num_frames, m, spec.min_gap)
            if label == "pos":
                planted = tuple(slots)
            else:
                # uniformly drawn non-identity pattern; index 1 is the identity
                pattern = perm_unrank(2 + int(rng.integers(math.factorial(m) - 1)), m)
                planted = tuple(slots[pattern[j] - 1] for j in range(m))
        frames = spec.noise_sigma * rng.standard_normal((spec.num_frames, spec.dim))
    if planted:
        noise = spec.noise_sigma * rng.standard_normal((m, spec.dim))
        for j, position in enumerate(planted):
            frames[position - 1] = prototypes[j] + noise[j]
    return frames, planted


def synth_records(spec: SynthSpec) -> tuple[list[SynthRecord], np.ndarray]:
    """Generate all sequences in memory; fully determined by spec.seed.

    A numeric error's message names the sequence and noise_sigma, and a dim
    or num_frames too large to draw raises a LomoError naming that field.
    """
    require_instance("spec", spec, SynthSpec)
    rng = generator(spec.seed)
    with too_large("dim", spec.dim):
        raw = rng.standard_normal((spec.num_events, spec.dim))
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
