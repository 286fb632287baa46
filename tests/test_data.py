"""Unit tests for file IO, folds, preprocessing, PCA, and the synthetic benchmark."""

from __future__ import annotations

import math
import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import lomo.data
from lomo.core import LomoError, Rng
from lomo.data import (
    DatasetManifest,
    ManifestRecord,
    PreprocessConfig,
    SynthSpec,
    apply_preprocess,
    fit_preprocess,
    gen_synthetic,
    make_folds,
    parse_manifest,
    read_sequence,
    synth_records,
    write_sequence,
)
from lomo.inference import FrameSequence
from lomo.model import rank_pattern


# ---------------------------------------------------------------------------
# sequence files


def test_sequence_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(41)
    for case in range(8):
        frames = rng.normal(size=(int(rng.integers(1, 9)), int(rng.integers(1, 5))))
        frames *= 10.0 ** rng.integers(-9, 9)
        path = tmp_path / f"seq{case}.csv"
        write_sequence(FrameSequence(frames, id=f"seq{case}"), path)
        loaded = read_sequence(path)
        np.testing.assert_array_equal(loaded.frames, frames)
        assert loaded.id == f"seq{case}"  # falls back to the file stem


def test_sequence_file_is_headerless_lf_csv(tmp_path):
    path = tmp_path / "s.csv"
    write_sequence(FrameSequence(np.array([[1.5, -2.0], [0.25, 0.0]])), path)
    assert path.read_text(encoding="utf-8") == "1.5,-2.0\n0.25,0.0\n"


def test_read_sequence_explicit_id_wins(tmp_path):
    path = tmp_path / "whatever.csv"
    path.write_text("1.0\n", encoding="utf-8")
    assert read_sequence(path, "clip").id == "clip"


def test_read_sequence_ragged_rows_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0\n", encoding="utf-8")
    with pytest.raises(LomoError, match="row 2 has 1 columns, expected 2"):
        read_sequence(path)


def test_read_sequence_non_numeric_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0,x\n", encoding="utf-8")
    with pytest.raises(LomoError, match="row 2, column 2: 'x' is not numeric"):
        read_sequence(path)


def test_read_sequence_non_finite_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nan\n", encoding="utf-8")
    with pytest.raises(LomoError, match="row 1, column 1: non-finite"):
        read_sequence(path)


def test_read_sequence_empty_file_error(tmp_path):
    path = tmp_path / "empty.csv"
    for text in ("", "\ufeff", "\n\n"):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(LomoError, match="row 1: empty sequence file"):
            read_sequence(path)


@pytest.mark.parametrize(
    "text",
    ["1.0,2.0\n3.0,4.0\n\n", "1.0,2.0\r\n3.0,4.0\r\n\r\n \n", "\ufeff1.0,2.0\n3.0,4.0\n",
     "\ufeff1.0,2.0\n3.0,4.0\n\n"],
)
def test_read_sequence_ignores_bom_and_trailing_blank_lines(tmp_path, text):
    path = tmp_path / "s.csv"
    path.write_text(text, encoding="utf-8", newline="")
    np.testing.assert_array_equal(read_sequence(path).frames, [[1.0, 2.0], [3.0, 4.0]])


def test_read_sequence_inner_blank_line_still_names_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("\ufeff1.0,2.0\n\n3.0,4.0\n", encoding="utf-8")
    with pytest.raises(LomoError, match="bad.csv: row 2 has 1 columns, expected 2"):
        read_sequence(path)
    path.write_text("\ufeff1.0,2.0\n3.0,\ufeff4.0\n\n", encoding="utf-8")
    with pytest.raises(LomoError, match=r"row 2, column 2: '\\ufeff4.0' is not numeric"):
        read_sequence(path)


# ---------------------------------------------------------------------------
# manifests


def _write_dataset(tmp_path, rows, frames_by_id=None):
    lines = ["id,label,group,path"]
    for rec_id, label, group in rows:
        rel = f"{rec_id}.csv"
        frames = (frames_by_id or {}).get(rec_id, np.array([[1.0, 2.0]]))
        write_sequence(FrameSequence(frames), tmp_path / rel)
        lines.append(f"{rec_id},{label},{group},{rel}")
    path = tmp_path / "manifest.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_parse_manifest_resolves_relative_paths(tmp_path, monkeypatch):
    path = _write_dataset(tmp_path, [("a", "pos", "g0"), ("b", "neg", "g1")])
    monkeypatch.chdir("/")  # relative resolution must not depend on the cwd
    manifest = parse_manifest(path)
    assert [r.id for r in manifest.records] == ["a", "b"]
    assert manifest.dim == 2
    assert manifest.classes == ["neg", "pos"]
    assert manifest.groups == ["g0", "g1"]
    np.testing.assert_array_equal(manifest.sequences["a"].frames, [[1.0, 2.0]])
    assert manifest.sequences["b"].id == "b"


def test_parse_manifest_accepts_bom_and_trailing_blank_lines(tmp_path):
    path = _write_dataset(tmp_path, [("a", "pos", "g0"), ("b", "neg", "g1")])
    text = path.read_text(encoding="utf-8")
    path.write_text("\ufeff" + text + "\n\n", encoding="utf-8")
    manifest = parse_manifest(path)
    assert [r.id for r in manifest.records] == ["a", "b"]
    # a BOM written in front of the sequence file is dropped as well
    seq_path = tmp_path / "b.csv"
    seq_path.write_text("\ufeff" + seq_path.read_text(encoding="utf-8"), encoding="utf-8")
    np.testing.assert_array_equal(parse_manifest(path).sequences["b"].frames, [[1.0, 2.0]])


def test_parse_manifest_header_check(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text("id,label,path\n", encoding="utf-8")
    with pytest.raises(LomoError, match="expected header"):
        parse_manifest(path)


def test_parse_manifest_duplicate_id(tmp_path):
    path = _write_dataset(tmp_path, [("a", "pos", "g0")])
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("a,neg,g1,a.csv\n")
    with pytest.raises(LomoError, match="duplicate id 'a' at row 3"):
        parse_manifest(path)


def test_parse_manifest_missing_file(tmp_path):
    path = _write_dataset(tmp_path, [("a", "pos", "g0")])
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("b,neg,g1,nope.csv\n")
    with pytest.raises(LomoError, match="record 'b': missing sequence file 'nope.csv'"):
        parse_manifest(path)


def test_parse_manifest_dimension_mismatch_names_offender(tmp_path):
    path = _write_dataset(
        tmp_path,
        [("a", "pos", "g0"), ("b", "neg", "g1")],
        frames_by_id={"b": np.array([[1.0, 2.0, 3.0]])},
    )
    with pytest.raises(LomoError, match="record 'b': dimension 3 differs from 2"):
        parse_manifest(path)


def test_parse_manifest_empty_body(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text("id,label,group,path\n", encoding="utf-8")
    with pytest.raises(LomoError, match="lists no records"):
        parse_manifest(path)


# ---------------------------------------------------------------------------
# any byte string loads or raises LomoError

FILE_SETTINGS = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
SEQUENCE_CELLS = st.sampled_from([
    b"1.0", b"-0.0", b"5e-324", b"1e400", b"nan", b"-inf", b"1_0", b"0x1", b" 2.5 ", b"+3",
    b"\xef\xbb\xbf1.0", b"\xff", b"\x00", b"\t", b"\r", b"", b"#",
])
SEQUENCE_LINES = st.lists(SEQUENCE_CELLS, min_size=1, max_size=3).map(b",".join)
SEQUENCE_BYTES = st.one_of(
    st.binary(max_size=48),
    st.lists(st.one_of(SEQUENCE_LINES, st.binary(max_size=4)), max_size=5).map(b"\n".join),
    st.text(max_size=24).map(str.encode),
)


@FILE_SETTINGS
@given(SEQUENCE_BYTES)
@example(b"\xef\xbb\xbf")
@example(b"1.0,2.0\n\n\n")
def test_any_byte_string_loads_as_a_sequence_or_raises_lomo_error(tmp_path, raw):
    path = tmp_path / "any.csv"
    path.write_bytes(raw)
    try:
        seq = read_sequence(path)
    except LomoError:
        return
    assert isinstance(seq, FrameSequence) and np.isfinite(seq.frames).all()


MANIFEST_CELLS = st.sampled_from([
    b"a", b"b", b"pos", b"neg", b"g0", b"", b" ", b"\xff", b"\x00", b"a.csv", b"b.csv",
    b"missing.csv", b"sub", b".", b"manifest.csv", b"/", b"\xef\xbb\xbfa.csv",
])
MANIFEST_ROWS = st.one_of(
    st.tuples(MANIFEST_CELLS, MANIFEST_CELLS, MANIFEST_CELLS, MANIFEST_CELLS).map(b",".join),
    st.lists(MANIFEST_CELLS, max_size=5).map(b",".join),
    st.binary(max_size=8),
)


@FILE_SETTINGS
@given(
    header=st.sampled_from([b"id,label,group,path", b"\xef\xbb\xbfid,label,group,path",
                            b"id,label,group", b"", b"\xff"]),
    rows=st.lists(MANIFEST_ROWS, max_size=5),
    files=st.tuples(SEQUENCE_BYTES, SEQUENCE_BYTES),
)
@example(header=b"id,label,group,path", rows=[b"a,pos,g0,a.csv", b"b,neg,g0,b.csv"],
         files=(b"1.0,2.0\n", b"3.0\n"))
def test_any_byte_string_loads_as_a_manifest_or_raises_lomo_error(tmp_path, header, rows, files):
    """Manifest rows point at a.csv and b.csv, which hold any bytes, at a
    missing file, a directory, or the manifest itself."""
    (tmp_path / "sub").mkdir(exist_ok=True)
    for name, raw in zip(("a.csv", "b.csv"), files):
        (tmp_path / name).write_bytes(raw)
    path = tmp_path / "manifest.csv"
    path.write_bytes(b"\n".join([header, *rows]))
    try:
        manifest = parse_manifest(path)
    except LomoError:
        return
    assert isinstance(manifest, DatasetManifest)
    assert sorted(manifest.sequences) == sorted(r.id for r in manifest.records)


# ---------------------------------------------------------------------------
# folds


def _manifest_with_groups(groups):
    records = [
        ManifestRecord(f"r{i}", "pos" if i % 2 else "neg", g, f"/x/r{i}.csv")
        for i, g in enumerate(groups)
    ]
    return DatasetManifest(records=records, dim=1)


def test_logo_builds_one_fold_per_group():
    manifest = _manifest_with_groups(["g0", "g1", "g2", "g0", "g1", "g2"])
    folds = make_folds(manifest, "logo", seed=0)
    assert len(folds) == 3
    for fold in folds:
        test_groups = {r.group for r in manifest.records if r.id in fold.test_ids}
        train_groups = {r.group for r in manifest.records if r.id in fold.train_ids}
        assert len(test_groups) == 1
        assert not (test_groups & train_groups)


def test_kfold_groups_never_straddle_folds():
    rng = np.random.default_rng(43)
    for seed in range(5):
        n_groups = int(rng.integers(4, 9))
        groups = [f"g{int(rng.integers(n_groups)):02d}" for _ in range(40)]
        manifest = _manifest_with_groups(groups)
        k = int(rng.integers(2, len(manifest.groups) + 1))
        folds = make_folds(manifest, "kfold", seed=seed, k=k)
        assert len(folds) == k
        group_of = {rec.id: rec.group for rec in manifest.records}
        all_test = []
        for fold in folds:
            test_groups = {group_of[i] for i in fold.test_ids}
            train_groups = {group_of[i] for i in fold.train_ids}
            assert not (test_groups & train_groups)
            all_test.extend(fold.test_ids)
        assert sorted(all_test) == sorted(group_of)  # a partition of the records


def test_kfold_deal_is_seeded_round_robin():
    manifest = _manifest_with_groups([f"g{i}" for i in range(5)])
    folds = make_folds(manifest, "kfold", seed=9, k=2)
    order = Rng(9).permutation(5)
    groups = manifest.groups
    expected = [[], []]
    for pos, gi in enumerate(order):
        expected[pos % 2].append(groups[int(gi)])
    for fold, members in zip(folds, expected):
        got = {r.group for r in manifest.records if r.id in fold.test_ids}
        assert got == set(members)


def test_make_folds_validation():
    manifest = _manifest_with_groups(["g0", "g0"])
    with pytest.raises(LomoError, match="needs >= 2 groups"):
        make_folds(manifest, "logo", seed=0)
    manifest = _manifest_with_groups(["g0", "g1", "g2"])
    with pytest.raises(LomoError, match="needs a fold count"):
        make_folds(manifest, "kfold", seed=0)
    with pytest.raises(LomoError, match="k=5 exceeds the 3 available groups"):
        make_folds(manifest, "kfold", seed=0, k=5)
    with pytest.raises(LomoError, match="unknown scheme"):
        make_folds(manifest, "stratified", seed=0)


def _manifest_row(tmp_path, row):
    path = tmp_path / "manifest.csv"
    path.write_text(f"id,label,group,path\n{row}\n", encoding="utf-8")
    return parse_manifest(path)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda tmp: _manifest_row(tmp, ",pos,g0,a.csv"), "{tmp}/manifest.csv: row 2: empty id or label"),
        (lambda tmp: _manifest_row(tmp, "a, ,g0,a.csv"), "{tmp}/manifest.csv: row 2: empty id or label"),
        (lambda tmp: make_folds(_manifest_with_groups(["g0", "g1"]), "kfold", seed=0, k=1),
         "kfold needs k >= 2, got 1"),
    ],
    ids=["manifest-empty-id", "manifest-blank-label", "kfold-k-1"],
)
def test_data_validation_messages(tmp_path, call, message):
    with pytest.raises(LomoError, match="^" + re.escape(message.format(tmp=tmp_path)) + "$"):
        call(tmp_path)


def test_make_folds_requires_an_integer_k():
    manifest = _manifest_with_groups(["g0", "g1", "g2"])
    with pytest.raises(LomoError, match=r"^k must be an integer, got 2\.0$"):
        make_folds(manifest, "kfold", seed=0, k=2.0)
    assert make_folds(manifest, "kfold", seed=0, k=np.int64(2)) == make_folds(
        manifest, "kfold", seed=0, k=2
    )


@pytest.mark.parametrize("scheme, k", [("kfold", 2), ("logo", None)])
def test_make_folds_requires_an_integer_seed(scheme, k):
    manifest = _manifest_with_groups(["g0", "g1", "g2"])
    for value in (1.5, "x", None, True):
        with pytest.raises(LomoError, match=f"^seed must be an integer, got {value!r}$"):
            make_folds(manifest, scheme, seed=value, k=k)
    with pytest.raises(LomoError, match="^seed must be >= 0, got -1$"):
        make_folds(manifest, scheme, seed=-1, k=k)
    assert make_folds(manifest, scheme, seed=np.int64(1), k=k) == make_folds(
        manifest, scheme, seed=1, k=k
    )


# ---------------------------------------------------------------------------
# preprocessing steps, one at a time through apply_preprocess


def _apply(seq, **config):
    """`seq` through apply_preprocess, with any PCA fit on `seq` alone."""
    return apply_preprocess(fit_preprocess([seq], PreprocessConfig(**config)), seq)


def test_l2_normalize_unit_norm_and_zero_guard():
    rng = np.random.default_rng(44)
    for _ in range(20):
        v = rng.normal(size=(1, int(rng.integers(1, 8))))
        out = _apply(FrameSequence(v), l2=True).frames
        assert np.linalg.norm(out) == pytest.approx(1.0, rel=1e-12)
    zero = np.zeros((1, 4))
    np.testing.assert_array_equal(_apply(FrameSequence(zero), l2=True).frames, zero)


def test_l2_normalize_frames_applies_rowwise():
    seq = FrameSequence(np.array([[3.0, 4.0], [0.0, 2.0]]), id="s")
    out = _apply(seq, l2=True)
    np.testing.assert_allclose(out.frames, [[0.6, 0.8], [0.0, 1.0]], rtol=1e-15)
    assert out.id == "s"


def test_stack_frames_hand_case():
    seq = FrameSequence(np.array([[1.0, 0.0], [0.0, 2.0]]))
    out = _apply(seq, stack=2)
    np.testing.assert_array_equal(out.frames, [[1.0, 0.0, 0.0, 2.0], [0.0, 2.0, 0.0, 2.0]])


def test_stack_frames_window_one_is_identity():
    frames = np.arange(6.0).reshape(3, 2)
    out = _apply(FrameSequence(frames), stack=1)
    np.testing.assert_array_equal(out.frames, frames)


def test_stack_frames_shape_and_padding_property():
    rng = np.random.default_rng(45)
    for _ in range(20):
        n, d, w = int(rng.integers(1, 9)), int(rng.integers(1, 4)), int(rng.integers(1, 5))
        frames = rng.normal(size=(n, d))
        out = _apply(FrameSequence(frames), stack=w)
        assert out.frames.shape == (n, w * d)
        for f in range(n):
            for j in range(w):
                src = min(f + j, n - 1)  # the pad repeats the final frame
                np.testing.assert_array_equal(
                    out.frames[f, j * d : (j + 1) * d], frames[src]
                )


def test_stack_frames_rejects_bad_window():
    with pytest.raises(LomoError, match="stack window must be >= 1"):
        PreprocessConfig(stack=0)


def test_pool_mean_max_and_single_frame():
    seq = FrameSequence(np.array([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_array_equal(_apply(seq, pool="mean").frames, [[2.0, 3.0]])
    np.testing.assert_array_equal(_apply(seq, pool="max").frames, [[3.0, 4.0]])
    single = FrameSequence(np.array([[7.0, -1.0]]))
    np.testing.assert_array_equal(_apply(single, pool="mean").frames, [[7.0, -1.0]])
    np.testing.assert_array_equal(_apply(single, pool="max").frames, [[7.0, -1.0]])
    with pytest.raises(LomoError, match="pool must be None, 'mean' or 'max', got 'sum'"):
        PreprocessConfig(pool="sum")


def test_pooled_sequence_wraps_one_frame():
    seq = FrameSequence(np.array([[1.0], [5.0]]), id="s")
    out = _apply(seq, pool="max")
    assert out.num_frames == 1
    assert out.id == "s"
    np.testing.assert_array_equal(out.frames, [[5.0]])


# ---------------------------------------------------------------------------
# PCA


def test_pca_two_point_hand_case():
    out = _apply(FrameSequence(np.array([[1.0, 0.0], [-1.0, 0.0]])), pca_dim=1).frames
    np.testing.assert_allclose(out, [[1.0], [-1.0]], atol=1e-12)


def test_pca_full_rank_preserves_pairwise_distances():
    rng = np.random.default_rng(46)
    data = rng.normal(size=(30, 5)) @ rng.normal(size=(5, 5))
    proj = _apply(FrameSequence(data), pca_dim=5).frames
    for i in range(0, 30, 3):
        for j in range(i + 1, 30, 3):
            orig = np.linalg.norm(data[i] - data[j])
            new = np.linalg.norm(proj[i] - proj[j])
            assert abs(orig - new) < 1e-9


def test_pca_constant_data_projects_to_zero():
    data = np.tile([2.0, -1.0, 0.5], (4, 1))
    np.testing.assert_allclose(_apply(FrameSequence(data), pca_dim=2).frames, 0.0, atol=1e-12)


def test_pca_projected_training_data_is_centered_and_decorrelated():
    rng = np.random.default_rng(47)
    data = rng.normal(size=(60, 6)) * np.array([5.0, 3.0, 2.0, 1.0, 0.5, 0.1])
    proj = _apply(FrameSequence(data), pca_dim=4).frames
    assert np.abs(proj.mean(axis=0)).max() < 1e-9
    cov = proj.T @ proj / (proj.shape[0] - 1)
    off = cov - np.diag(np.diag(cov))
    assert np.abs(off).max() / np.abs(np.diag(cov)).max() < 1e-6


def _jacobi_eigh(sym: np.ndarray, tol: float = 1e-10, max_sweeps: int = 100):
    """Eigen-decomposition of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps rotate away each off-diagonal entry in turn until the off-diagonal
    Frobenius mass drops below tol. Returns (eigenvalues, column eigenvectors).
    """
    a = np.array(sym, dtype=np.float64)
    d = a.shape[0]
    vecs = np.eye(d)
    if d == 1:
        return a.diagonal().copy(), vecs

    def off_mass(mat):
        off = mat - np.diag(mat.diagonal())
        return float(np.sqrt(np.sum(off * off)))

    for _ in range(max_sweeps):
        if off_mass(a) < tol:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
                a[p, q] = a[q, p] = 0.0
                rot_p = c * vecs[:, p] - s * vecs[:, q]
                rot_q = s * vecs[:, p] + c * vecs[:, q]
                vecs[:, p], vecs[:, q] = rot_p, rot_q
    else:
        raise LomoError(f"Jacobi eigendecomposition did not converge in {max_sweeps} sweeps")
    return a.diagonal().copy(), vecs


def _covariance(data):
    centered = data - data.mean(axis=0)
    return centered.T @ centered / (data.shape[0] - 1)


def _basis(data, k):
    """The PCA fit_preprocess fits on `data` as one training sequence."""
    return fit_preprocess([FrameSequence(data)], PreprocessConfig(pca_dim=k))


def test_pca_eigenvalues_match_numpy_oracle():
    rng = np.random.default_rng(48)
    for _ in range(10):
        d = int(rng.integers(2, 8))
        data = rng.normal(size=(40, d))
        basis = _basis(data, d)
        cov = _covariance(data)
        oracle_vals = np.sort(_jacobi_eigh(cov)[0])[::-1]
        ours = np.array([row @ cov @ row for row in basis.components])
        np.testing.assert_allclose(ours, oracle_vals, rtol=1e-8, atol=1e-10)
        # rows are orthonormal
        np.testing.assert_allclose(
            basis.components @ basis.components.T, np.eye(d), atol=1e-9
        )


@pytest.mark.parametrize("d", [1, 2, 5, 17, 100])
def test_pca_components_match_the_jacobi_basis(d):
    """Distinct eigenvalues fix each eigenvector up to sign, and the sign rule
    fixes the sign; the data's covariance has eigenvalues d, d - 1, ..., 1."""
    rng = np.random.default_rng(60 + d)
    n = 3 * d + 5
    white = rng.normal(size=(n, d))
    white, _ = np.linalg.qr(white - white.mean(axis=0))  # orthonormal, zero-mean columns
    rotation, _ = np.linalg.qr(rng.normal(size=(d, d)))
    data = math.sqrt(n - 1) * white * np.sqrt(np.arange(d, 0, -1.0)) @ rotation.T + 3.0
    vals, vecs = _jacobi_eigh(_covariance(data))
    order = np.argsort(-vals, kind="stable")
    assert np.all(np.diff(vals[order]) < -0.5)  # distinct eigenvalues
    for k in sorted({1, (d + 1) // 2, d}):
        expected = vecs[:, order[:k]].T.copy()
        for row in expected:
            if row[int(np.argmax(np.abs(row)))] < 0:
                row *= -1.0
        np.testing.assert_allclose(_basis(data, k).components, expected, rtol=0, atol=1e-9)


def test_pca_sign_convention_is_deterministic():
    rng = np.random.default_rng(49)
    data = rng.normal(size=(25, 4))
    a = _basis(data, 3)
    b = _basis(data.copy(), 3)
    np.testing.assert_array_equal(a.components, b.components)
    for row in a.components:
        assert row[int(np.argmax(np.abs(row)))] > 0


def test_pca_fit_validation():
    with pytest.raises(LomoError, match="^PCA needs >= 2 training frames, got 1$"):
        _basis([[1.0, 2.0]], 1)
    with pytest.raises(LomoError, match=r"^pca dimension k=3 out of range 1\.\.2$"):
        _basis([[1.0, 2.0], [0.0, 1.0]], 3)
    fitted = fit_preprocess([FrameSequence([[1.0, 2.0], [0.0, 1.0]])], PreprocessConfig(pca_dim=1))
    with pytest.raises(LomoError, match="^dimension mismatch: basis d=2, sequence clip7 d=3$"):
        apply_preprocess(fitted, FrameSequence([[1.0, 2.0, 3.0]], id="clip7"))


# ---------------------------------------------------------------------------
# preprocessing pipeline


def test_fit_preprocess_statistics_come_from_training_data_only():
    rng = np.random.default_rng(50)
    train = [FrameSequence(rng.normal(size=(10, 4)) + 5.0) for _ in range(3)]
    config = PreprocessConfig(pca_dim=2)
    fitted = fit_preprocess(train, config)
    train_frames = np.vstack([s.frames for s in train])
    np.testing.assert_allclose(fitted.mean, train_frames.mean(axis=0), rtol=1e-12)
    # transforming unseen data uses the training mean, not its own
    test_seq = FrameSequence(rng.normal(size=(6, 4)) - 5.0)
    out = apply_preprocess(fitted, test_seq)
    expected = (test_seq.frames - fitted.mean) @ fitted.components.T
    np.testing.assert_allclose(out.frames, expected, rtol=1e-12)


def test_fit_preprocess_rejects_an_empty_training_set():
    with pytest.raises(LomoError, match="^PCA needs training sequences, got none$"):
        fit_preprocess([], PreprocessConfig(pca_dim=1))


def test_fit_preprocess_rejects_sequences_of_different_dimension():
    seqs = [FrameSequence([[1.0, 2.0], [0.0, 1.0]], id="a"),
            FrameSequence([[1.0, 2.0, 3.0]], id="b")]
    with pytest.raises(LomoError, match="^sequence b: dimension 3 differs from 2$"):
        fit_preprocess(seqs, PreprocessConfig(l2=True, pca_dim=1))


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("l2", [False, True])
def test_fit_preprocess_leaves_the_training_frames_unchanged(l2, count):
    rng = np.random.default_rng(56)
    seqs = [FrameSequence(rng.normal(size=(6, 4)) + 2.0) for _ in range(count)]
    before = [seq.frames.tobytes() for seq in seqs]
    fit_preprocess(seqs, PreprocessConfig(l2=l2, pca_dim=2))
    assert [seq.frames.tobytes() for seq in seqs] == before


@pytest.mark.parametrize("l2, hint", [(False, "; try --l2 to normalise the frames"), (True, "")])
def test_an_overflowing_pca_fit_raises_a_lomo_error_without_a_warning(l2, hint):
    rng = np.random.default_rng(59)
    seqs = [FrameSequence(rng.normal(size=(5, 3)) * 1e200) for _ in range(4)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LomoError) as err:
            fit_preprocess(seqs, PreprocessConfig(l2=l2, pca_dim=2))
    assert str(err.value) == f"PCA fit: overflow encountered in matmul{hint}"


def _traced_fit_peak(seqs, config) -> int:
    """Bytes fit_preprocess allocates at its peak, as tracemalloc sees it."""
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fit_preprocess(seqs, config)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


@pytest.mark.parametrize("l2", [False, True])
def test_fit_preprocess_holds_one_copy_of_the_training_frames(l2):
    """l2 and centring run in place, so the traced peak stays below one
    stacked copy of the frames (two or more copies: about 2x)."""
    rng = np.random.default_rng(57)
    seqs = [FrameSequence(rng.normal(size=(40, 20))) for _ in range(200)]
    stacked = 200 * 40 * 20 * 8
    assert _traced_fit_peak(seqs, PreprocessConfig(l2=l2, pca_dim=5)) < 1.25 * stacked


@pytest.mark.parametrize("l2", [False, True])
def test_fit_preprocess_memory_does_not_grow_with_the_training_split(l2):
    """The fit copies one block of at most BLOCK_VALUES values at a time, so
    4x the sequences (10 blocks instead of 3) peak no higher. The slack, an
    eighth of a block, covers the fit's list of sequences (measured: 13 KiB
    more at 800 sequences than at 200); a fit that held all the frames at
    once would peak 3.8 MiB higher."""
    rng = np.random.default_rng(58)
    seqs = [FrameSequence(rng.normal(size=(40, 20))) for _ in range(800)]
    config = PreprocessConfig(l2=l2, pca_dim=5)
    small = _traced_fit_peak(seqs[:200], config)
    large = _traced_fit_peak(seqs, config)
    assert small > lomo.data.BLOCK_VALUES * 8  # a full block was copied
    assert large <= small + 64 * 1024, (small, large)


def test_apply_preprocess_order_is_l2_then_pca_then_stack():
    rng = np.random.default_rng(51)
    train = [FrameSequence(rng.normal(size=(12, 5))) for _ in range(2)]
    config = PreprocessConfig(l2=True, pca_dim=3, stack=2)
    fitted = fit_preprocess(train, config)
    seq = FrameSequence(rng.normal(size=(7, 5)))
    out = apply_preprocess(fitted, seq)
    assert out.frames.shape == (7, 6)  # pca to 3 dims, then stacked pairs
    manual = seq.frames / np.linalg.norm(seq.frames, axis=1, keepdims=True)
    manual = (manual - fitted.mean) @ fitted.components.T
    manual = np.hstack([manual, np.vstack([manual[1:], manual[-1:]])])
    np.testing.assert_allclose(out.frames, manual, rtol=1e-12)


def test_apply_preprocess_pools_last_after_fitting_pca_on_unpooled_frames():
    rng = np.random.default_rng(52)
    train = [FrameSequence(rng.normal(size=(12, 5))) for _ in range(2)]
    config = PreprocessConfig(l2=True, pca_dim=3, stack=2, pool="max")
    fitted = fit_preprocess(train, config)
    unpooled = fit_preprocess(train, PreprocessConfig(l2=True, pca_dim=3, stack=2))
    np.testing.assert_array_equal(fitted.components, unpooled.components)
    seq = FrameSequence(rng.normal(size=(7, 5)), id="s")
    out = apply_preprocess(fitted, seq)
    assert out.id == "s"
    np.testing.assert_array_equal(
        out.frames, apply_preprocess(unpooled, seq).frames.max(axis=0, keepdims=True)
    )


def test_preprocess_identity_passthrough():
    config = PreprocessConfig()
    seq = FrameSequence(np.array([[1.0, 2.0]]))
    out = apply_preprocess(fit_preprocess([seq], config), seq)
    assert out is seq


def test_preprocess_config_validation():
    with pytest.raises(LomoError, match="stack window"):
        PreprocessConfig(stack=0)
    with pytest.raises(LomoError, match="^pca_dim must be >= 1, got 0$"):
        PreprocessConfig(pca_dim=0)
    with pytest.raises(LomoError, match="pool"):
        PreprocessConfig(pool="median")


@pytest.mark.parametrize("field, value", [
    ("stack", 2.0), ("stack", "2"), ("stack", True), ("pca_dim", 1.5), ("pca_dim", True),
])
def test_preprocess_config_rejects_non_integer_counts(field, value):
    with pytest.raises(LomoError, match=f"^{field} must be an integer, got {value!r}$"):
        PreprocessConfig(**{field: value})


def test_preprocess_config_accepts_numpy_integers_as_python_ints():
    config = PreprocessConfig(pca_dim=np.int64(3), stack=np.int32(2))
    assert (config.pca_dim, config.stack) == (3, 2)
    assert type(config.pca_dim) is int and type(config.stack) is int


# ---------------------------------------------------------------------------
# synthetic benchmark


def _small_spec(**overrides):
    base = dict(
        dim=6,
        num_frames=20,
        num_events=3,
        noise_sigma=0.2,
        min_gap=2,
        num_pos=12,
        num_neg=12,
        neg_mode="shuffled",
        seed=5,
    )
    base.update(overrides)
    return SynthSpec(**base)


def test_synth_records_counts_ids_and_groups():
    records, prototypes = synth_records(_small_spec())
    assert len(records) == 24
    assert prototypes.shape == (3, 6)
    for row in prototypes:
        assert np.linalg.norm(row) == pytest.approx(1.0, rel=1e-12)
    assert [r.id for r in records[:2]] == ["pos0000", "pos0001"]
    assert records[12].id == "neg0000"
    assert {r.group for r in records} == {f"s{i:02d}" for i in range(10)}
    # groups cycle round-robin within each class
    assert records[0].group == "s00" and records[10].group == "s00"


def test_synth_positive_plants_are_ordered_with_min_gap():
    spec = _small_spec(num_pos=30)
    records, _ = synth_records(spec)
    for rec in records:
        if rec.label != "pos":
            continue
        ks = list(rec.planted)
        assert ks == sorted(ks)
        assert all(1 <= k <= spec.num_frames for k in ks)
        assert all(b - a > spec.min_gap for a, b in zip(ks, ks[1:]))


def test_synth_shuffled_negatives_never_use_the_identity_pattern():
    records, _ = synth_records(_small_spec(num_neg=40))
    patterns = set()
    for rec in records:
        if rec.label != "neg":
            continue
        pattern = rank_pattern(rec.planted)
        assert pattern != (1, 2, 3)
        patterns.add(pattern)
    assert len(patterns) >= 3  # the non-identity patterns actually vary


def test_synth_shuffled_plants_the_same_prototypes_in_both_classes():
    spec = _small_spec(noise_sigma=0.0)  # noiseless: planted frames are exact
    records, prototypes = synth_records(spec)
    for rec in records:
        assert rec.planted  # both classes plant in shuffled mode
        for j, position in enumerate(rec.planted):
            np.testing.assert_allclose(rec.frames[position - 1], prototypes[j], atol=1e-12)


def test_synth_absent_negatives_plant_nothing():
    records, prototypes = synth_records(_small_spec(neg_mode="absent", noise_sigma=0.0))
    for rec in records:
        if rec.label == "neg":
            assert rec.planted == ()
            np.testing.assert_array_equal(rec.frames, 0.0)  # noiseless background
        else:
            assert len(rec.planted) == 3


def test_synth_spec_validation():
    with pytest.raises(LomoError, match="num_frames must exceed"):
        _small_spec(num_frames=9, min_gap=2, num_events=3)
    with pytest.raises(LomoError, match="shuffled negatives need num_events >= 2"):
        _small_spec(num_events=1)
    with pytest.raises(LomoError, match="neg_mode"):
        _small_spec(neg_mode="inverted")
    with pytest.raises(LomoError, match="num_events must be in"):
        _small_spec(num_events=0)
    with pytest.raises(LomoError, match="noise_sigma"):
        _small_spec(noise_sigma=-0.1)
    with pytest.raises(LomoError, match="noise_sigma must be finite"):
        _small_spec(noise_sigma=float("nan"))
    with pytest.raises(LomoError, match="^seed must be >= 0, got -1$"):
        _small_spec(seed=-1)
    with pytest.raises(LomoError, match="^dim must be >= 1, got 0$"):
        _small_spec(dim=0)
    with pytest.raises(LomoError, match="^min_gap must be >= 0, got -1$"):
        _small_spec(min_gap=-1)


@pytest.mark.parametrize(
    "field", ["dim", "num_frames", "num_events", "min_gap", "num_pos", "num_neg", "seed"]
)
def test_synth_spec_rejects_non_integer_counts(field):
    value = float(getattr(_small_spec(), field))
    with pytest.raises(LomoError, match=f"^{field} must be an integer, got {value!r}$"):
        _small_spec(**{field: value})
    with pytest.raises(LomoError, match=f"^{field} must be an integer, got True$"):
        _small_spec(**{field: True})
    spec = _small_spec(**{field: np.int64(getattr(_small_spec(), field))})
    assert type(getattr(spec, field)) is int


def test_synth_records_turns_an_overflowing_frame_into_a_lomo_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LomoError, match=(
            r"^sequence pos0000: overflow encountered in multiply with noise_sigma=1e\+308$"
        )):
            synth_records(_small_spec(noise_sigma=1e308))


@pytest.mark.parametrize("value", ["0.3", None, True])
def test_synth_spec_rejects_a_non_real_noise_sigma(value):
    with pytest.raises(LomoError, match=f"^noise_sigma must be a real number, got {value!r}$"):
        _small_spec(noise_sigma=value)


def test_synth_spec_keeps_an_integer_noise_sigma(tmp_path):
    spec = _small_spec(noise_sigma=0)
    assert type(spec.noise_sigma) is int
    gen_synthetic(spec, tmp_path / "d")
    assert "noise_sigma=0\n" in (tmp_path / "d" / "spec.txt").read_text(encoding="utf-8")


def test_gen_synthetic_writes_a_loadable_deterministic_dataset(tmp_path):
    spec = _small_spec()
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    manifest_a = gen_synthetic(spec, out_a)
    gen_synthetic(spec, out_b)
    names = sorted(os.listdir(out_a))
    assert sorted(os.listdir(out_b)) == names
    assert "manifest.csv" in names and "spec.txt" in names
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    parsed = parse_manifest(out_a / "manifest.csv")
    assert len(parsed.records) == len(manifest_a.records)
    records, _ = synth_records(spec)
    for rec in records:
        np.testing.assert_array_equal(parsed.sequences[rec.id].frames, rec.frames)
        np.testing.assert_array_equal(manifest_a.sequences[rec.id].frames, rec.frames)


def test_gen_synthetic_spec_echo(tmp_path):
    spec = _small_spec()
    gen_synthetic(spec, tmp_path / "d")
    text = (tmp_path / "d" / "spec.txt").read_text(encoding="utf-8")
    assert "dim=6\n" in text
    assert "noise_sigma=0.2\n" in text
    assert "neg_mode=shuffled\n" in text
