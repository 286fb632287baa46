"""Dataset files, fold construction, preprocessing, and synthetic benchmarks.

File formats are deliberately plain: sequences are headerless numeric CSV
(one row per frame), manifests are CSV with header ``id,label,group,path``
and paths resolved relative to the manifest's directory. All floats are
written with shortest round-trip formatting so rewrites are byte-stable.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .core import (
    LomoError,
    Rng,
    decode_text,
    float_errors,
    forked_map,
    format_float,
    read_bytes,
    read_text,
    require_choice,
    require_instance,
    require_int,
    require_items,
    require_real,
    write_text,
)
from .framecache import FrameCache, write_cache
from .inference import BLOCK_VALUES, FrameSequence, require_dimension, shape_blocks
from .model import perm_unrank, require_order_size

MANIFEST_HEADER = "id,label,group,path"
# parse_manifest and gen_synthetic fork readers or writers only when each
# worker gets at least this many sequence files (forked_map's min_share).
# On two vCPUs a fork costs 2-5 ms and a 40-frame file 0.3-0.4 ms (d=20) to
# 1.5-2.3 ms (d=100) to read, hash and parse, about three times that to
# write. A file with an entry in the frame cache is only read and hashed
# on the workers, 0.02 ms (d=20) to 0.1 ms (d=100), and its frames are read
# from the cache in the calling process: on a warm cache the forked load
# of 800 files at d=20 took 0.042-0.054 s against 0.035-0.044 s serial,
# and of 600 files at d=100 about the same as serial, 0.08-0.11 s.
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
    return _load(path, seq_id)[0]


def _load(path, seq_id: str | None, cache: FrameCache | None = None
          ) -> tuple[FrameSequence | None, bytes]:
    """(sequence, SHA-256 of the file's bytes); the file is read once.

    When the digest has an entry in `cache` the sequence is None: the
    caller reads its frames from the cache. Otherwise the bytes that were
    hashed are parsed, so a file edited meanwhile is never stored under a
    digest its content does not match.
    """
    raw = read_bytes(path)
    digest = hashlib.sha256(raw).digest()
    if cache is not None and digest in cache:
        return None, digest
    if seq_id is None:
        seq_id = os.path.splitext(os.path.basename(str(path)))[0]
    lines = decode_text(path, raw, "utf-8-sig").splitlines()
    del raw  # held through the parse, it left the heap 0.6 MB larger after 800 files
    return _parse(path, lines, seq_id), digest


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
    sequence file a second time.
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
    row are read, so the first error in row order is the one raised.

    Each file is read and hashed once, by core.forked_map with at least
    FORK_MIN_FILES files per worker: a file whose bytes have an entry in the
    manifest's frame cache (see lomo.framecache) is read from it, the others
    are parsed. The result is the same as a serial read. See
    core.forked_map for when it forks and for the threads that make forking
    unsafe. When a file was parsed and every record loaded, the cache is
    rewritten to hold this manifest's files.
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
    frames_by_digest = {}
    dim = None
    parsed = False
    with FrameCache(path) as cache:
        loads = forked_map(lambda rec: _load(rec.path, rec.id, cache), records, FORK_MIN_FILES)
        with contextlib.closing(loads):
            for rec, (seq, digest) in zip(records, loads):
                if seq is None:  # a cache entry: its frames are read here
                    seq = cache.sequence(digest, rec.id)
                    if seq is None:  # they do not read back whole: parse the file
                        seq, digest = _load(rec.path, rec.id)
                        parsed = True
                else:
                    parsed = True
                if dim is None:
                    dim = seq.dim
                elif seq.dim != dim:
                    raise LomoError(
                        f"{path}: record {rec.id!r}: dimension {seq.dim} differs from {dim}"
                    )
                sequences[rec.id] = seq
                frames_by_digest[digest] = seq.frames
    if row_error is not None:
        raise row_error
    if not records:
        raise LomoError(f"{path}: manifest lists no records")
    if parsed:
        write_cache(path, frames_by_digest)
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
    require_instance("manifest", manifest, DatasetManifest)
    scheme = require_choice("scheme", scheme, (SCHEME_LOGO, SCHEME_KFOLD))
    seed = require_int("seed", seed, minimum=0)
    groups = manifest.groups
    if len(groups) < 2:
        raise LomoError(f"grouped folding needs >= 2 groups, got {len(groups)}")
    if scheme == SCHEME_LOGO:
        if k is not None:
            raise LomoError(f"the logo scheme takes no fold count k, got k={k}")
        fold_groups = [[g] for g in groups]
    else:
        if k is None:
            raise LomoError("kfold scheme needs a fold count k")
        k = require_int("k", k, minimum=2)
        if k > len(groups):
            raise LomoError(f"k={k} exceeds the {len(groups)} available groups")
        order = Rng(seed).permutation(len(groups))
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
    centred frames. Each block from _frame_blocks is normalised and
    centred on its own mean in place, and its moments are merged into the
    running ones (_merge_moments), so no more than one block is held at
    once and the sequences are never written to.
    """
    moments = None
    for mat in _frame_blocks(seqs):
        if l2:
            _l2_rows(mat, out=mat)
        mean_b = mat.mean(axis=0)
        mat -= mean_b
        block = (mat.shape[0], mean_b, mat.T @ mat)
        del mat  # else it lives on while _frame_blocks stacks the next block
        moments = _merge_moments(moments, block)
    return moments


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
            raise LomoError(f"l2 must be True or False, got {self.l2!r}")
        self.stack = require_int("stack", self.stack, minimum=1)
        if self.pca_dim is not None:
            self.pca_dim = require_int("pca_dim", self.pca_dim, minimum=1)
        if self.pool is not None:
            self.pool = require_choice("pool", self.pool, ("mean", "max"))


@dataclass
class FittedPreprocess:
    """A PreprocessConfig plus what fit_preprocess learned for it: the PCA
    mean (d,) and components (k, d), rows unit eigenvectors, both None when
    config.pca_dim is None."""

    config: PreprocessConfig
    mean: np.ndarray | None = None
    components: np.ndarray | None = None


def fit_preprocess(train_seqs, config: PreprocessConfig, *, moments=None) -> FittedPreprocess:
    """Fit the PCA mean and top-k components on unpooled training frames.

    With pca_dim set there must be a sequence, all must share d, and there
    must be two frames. The (n, mean, M2) moments of the frames,
    l2-normalised first when config.l2 is set, are summed one block of
    consecutive sequences at a time (_pca_moments), so the fit's memory does
    not grow with the number of training sequences; the sequences are never
    written to. A cv fold passes `moments`, a function of no argument that
    returns the same moments merged from sums over parts of its split
    (_merge_moments); it is called only once the checks pass, inside the
    same numeric-error guard. Eigenvectors of M2 / (n - 1) come from LAPACK
    eigh, sorted by decreasing eigenvalue (ties in eigh's order), each
    signed so its largest-magnitude entry is positive. A numeric error's
    message suggests l2 normalisation when it is off.
    """
    require_instance("config", config, PreprocessConfig)
    seqs = require_items("train_seqs", train_seqs, FrameSequence)
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
        raise LomoError(f"pca dimension k={k} out of range 1..{d}")
    hint = "" if config.l2 else "; try --l2 to normalise the frames"
    with float_errors(lambda err: f"PCA fit: {err}{hint}"):
        _, mean, m2 = _pca_moments(seqs, config.l2) if moments is None else moments()
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
    if cfg.pool == "mean":
        frames = frames.mean(axis=1, keepdims=True)
    elif cfg.pool == "max":
        frames = frames.max(axis=1, keepdims=True)
    return frames


def _apply_split(fitted: FittedPreprocess, seqs: list) -> list:
    """`seqs` prepared through _apply_stack in the blocks of shape_blocks;
    with no step set, `seqs` itself. When that fails, each sequence is
    prepared on its own in input order, so the error raised is the first
    failing sequence's own, as in a loop over the sequences."""
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
                out[k] = FrameSequence(prepared, id=seq.id)
        return out
    except LomoError:
        if len(seqs) > 1:
            for seq in seqs:
                _apply_split(fitted, [seq])
        raise


def apply_preprocess(fitted: FittedPreprocess, seq: FrameSequence) -> FrameSequence:
    """l2, then PCA, then stacking, then pooling; with no step set, `seq` itself.

    This is prepare's stacked kernel on the one sequence [seq].
    """
    require_instance("fitted", fitted, FittedPreprocess)
    return _apply_split(fitted, [seq])[0]


def prepare(config: PreprocessConfig, fit_on, *splits, moments=None) -> tuple:
    """Fit `config` on the sequences `fit_on` only, then apply it to each split.

    Returns the FittedPreprocess, then one list of prepared sequences per
    split, each what apply_preprocess gives for it. A split is prepared in
    stacked blocks of equal-shape sequences, at most APPLY_BLOCK_VALUES
    frame values each (inference.shape_blocks), so its temporaries do not
    grow with the split; with no step set, the list holds the split's own
    sequences. A split that fails raises the error of its first failing
    sequence. `train`, `predict` and every cv fold prepare their sequences
    here; a cv fold passes the `moments` of fit_preprocess.
    """
    fitted = fit_preprocess(fit_on, config, moments=moments)
    return (fitted, *(_apply_split(fitted, list(split)) for split in splits))


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
                f"{self.num_events * (self.min_gap + 1)}, got {self.num_frames}"
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
    require_instance("spec", spec, SynthSpec)
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
