"""Unit tests for the model container, permutation indexing, and model files."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lomo.core import LomoError, generator
from lomo.data import SynthSpec
from lomo.model import (
    MAX_TEMPLATES,
    ORDER_CODES,
    LomoModel,
    init_model,
    load_model,
    perm_index,
    perm_unrank,
    rank_pattern,
    save_model,
)
from lomo.training import TrainConfig


# ---------------------------------------------------------------------------
# oracles


def oracle_rank_pattern(ks):
    """Rank of each entry by definition: 1 + the number of smaller entries."""
    return tuple(1 + sum(1 for other in ks if other < k) for k in ks)


def oracle_lex_rank(p):
    """1-based position of p among all permutations in lexicographic order."""
    universe = sorted(itertools.permutations(range(1, len(p) + 1)))
    return universe.index(tuple(p)) + 1


# ---------------------------------------------------------------------------
# rank_pattern


def test_rank_pattern_matches_counting_oracle():
    rng = np.random.default_rng(21)
    for _ in range(200):
        m = int(rng.integers(1, 7))
        ks = rng.choice(np.arange(1, 60), size=m, replace=False).tolist()
        assert rank_pattern(ks) == oracle_rank_pattern(ks)


def test_rank_pattern_known_cases():
    assert rank_pattern([4, 9, 17, 30]) == (1, 2, 3, 4)
    assert rank_pattern([4, 9, 30, 17]) == (1, 2, 4, 3)
    assert rank_pattern([30, 4, 9]) == (3, 1, 2)
    assert rank_pattern([5]) == (1,)


def test_rank_pattern_only_relative_order_matters():
    rng = np.random.default_rng(22)
    for _ in range(50):
        m = int(rng.integers(2, 6))
        ks = rng.choice(np.arange(1, 40), size=m, replace=False).tolist()
        stretched = [3 * k + 7 for k in ks]  # strictly monotone transform
        assert rank_pattern(ks) == rank_pattern(stretched)


def test_rank_pattern_rejects_bad_input():
    with pytest.raises(LomoError, match="at least one index"):
        rank_pattern([])
    with pytest.raises(LomoError, match="must be >= 1"):
        rank_pattern([0, 2])
    with pytest.raises(LomoError, match="duplicate frame indices"):
        rank_pattern([3, 3])


# ---------------------------------------------------------------------------
# permutation indexing


def test_perm_index_is_the_lexicographic_rank():
    for m in range(1, 7):
        for p in itertools.permutations(range(1, m + 1)):
            assert perm_index(p) == oracle_lex_rank(p)


def test_perm_index_anchor_values():
    assert perm_index((1, 2, 3, 4)) == 1
    assert perm_index((1, 2, 4, 3)) == 2
    assert perm_index((1, 3, 2, 4)) == 3
    assert perm_index((3, 1, 2)) == 5
    assert perm_index((1,)) == 1


def test_order_codes_give_the_cost_index_of_every_order():
    rng = np.random.default_rng(3)
    for m in range(1, MAX_TEMPLATES + 1):
        if m <= 6:
            orders = list(itertools.permutations(range(1, m + 1)))
        else:
            orders = [rng.permutation(m) + 1 for _ in range(300)]
        picks = []
        for order in orders:
            frames = np.sort(rng.choice(60, size=m, replace=False)) + 1
            picks.append(frames[np.array(order) - 1])  # distinct, in the order `order`
        picks = np.array(picks)
        want = [perm_index(rank_pattern(row.tolist())) - 1 for row in picks]
        assert ORDER_CODES[m].indices(picks).tolist() == want
        assert len(ORDER_CODES[m]) <= math.factorial(m)


def test_perm_unrank_inverts_perm_index():
    for m in range(1, 7):
        for idx in range(1, math.factorial(m) + 1):
            assert perm_index(perm_unrank(idx, m)) == idx
        for p in itertools.permutations(range(1, m + 1)):
            assert perm_unrank(perm_index(p), m) == p


def test_perm_index_rejects_non_permutations():
    with pytest.raises(LomoError, match="not a permutation"):
        perm_index((1, 3))
    with pytest.raises(LomoError, match="not a permutation"):
        perm_index((2, 2, 1))
    with pytest.raises(LomoError, match="^number of permutation entries must be >= 1, got 0$"):
        perm_index(())


@pytest.mark.parametrize(
    "call, what",
    [
        (lambda: perm_unrank(1, MAX_TEMPLATES + 1), "m"),
        (lambda: perm_unrank(1, 2**63), "m"),
        (lambda: perm_index(range(1, MAX_TEMPLATES + 2)), "number of permutation entries"),
        (lambda: perm_index(range(1, 2**63 + 1)), "number of permutation entries"),
        (lambda: rank_pattern(range(1, MAX_TEMPLATES + 2)), "number of frame indices"),
        (lambda: rank_pattern(range(1, 2**63 + 1)), "number of frame indices"),
        (lambda: rank_pattern(itertools.count(1)), "number of frame indices"),
        (lambda: init_model(1, MAX_TEMPLATES + 1, generator(0)), "number of templates"),
        (lambda: LomoModel(np.zeros((MAX_TEMPLATES + 1, 2)), np.zeros(1)), "number of templates"),
        (lambda: TrainConfig(num_templates=MAX_TEMPLATES + 1), "num_templates"),
        (lambda: SynthSpec(num_events=MAX_TEMPLATES + 1), "num_events"),
    ],
    ids=[
        "perm_unrank-M+1", "perm_unrank-2**63", "perm_index-M+1", "perm_index-2**63",
        "rank_pattern-M+1", "rank_pattern-2**63", "rank_pattern-endless", "init_model-M+1",
        "LomoModel-M+1", "TrainConfig-M+1", "SynthSpec-M+1",
    ],
)
def test_orders_longer_than_a_cost_table_indexes_are_refused(call, what):
    with pytest.raises(LomoError, match=f"^{what} must be at most {MAX_TEMPLATES}$"):
        call()


def test_perm_unrank_range_checks():
    with pytest.raises(LomoError, match="out of range"):
        perm_unrank(0, 3)
    with pytest.raises(LomoError, match="out of range"):
        perm_unrank(7, 3)
    with pytest.raises(LomoError, match="m must be >= 1"):
        perm_unrank(1, 0)


# ---------------------------------------------------------------------------
# model container


def test_model_shape_validation():
    with pytest.raises(LomoError, match="cost table must have length 2"):
        LomoModel(np.zeros((2, 3)), np.zeros(3))  # needs 2! = 2 entries
    with pytest.raises(LomoError, match="at most"):
        LomoModel(np.zeros((MAX_TEMPLATES + 1, 2)), np.zeros(1))
    with pytest.raises(LomoError, match="finite"):
        LomoModel(np.array([[np.nan, 0.0]]), np.zeros(1))


def test_model_properties_and_equality():
    m = LomoModel(np.arange(6, dtype=float).reshape(2, 3), np.array([0.5, -0.5]))
    assert m.num_templates == 2
    assert m.dim == 3
    assert m == LomoModel(m.templates.copy(), m.costs.copy())
    other = LomoModel(m.templates.copy(), m.costs.copy())
    other.costs[0] = 9.0
    assert m != other


def test_init_model_is_small_uniform_and_seeded():
    a = init_model(4, 3, generator(5))
    b = init_model(4, 3, generator(5))
    assert a == b
    assert a.templates.shape == (3, 4)
    assert np.all(a.templates >= 0.0) and np.all(a.templates < 0.01)
    np.testing.assert_array_equal(a.costs, np.zeros(6))


def test_init_model_validates_arguments():
    with pytest.raises(LomoError, match="dimension must be >= 1"):
        init_model(0, 1, generator(0))
    with pytest.raises(LomoError, match="number of templates must be >= 1"):
        init_model(2, 0, generator(0))
    with pytest.raises(LomoError, match="at most"):
        init_model(2, MAX_TEMPLATES + 1, generator(0))
    with pytest.raises(LomoError, match="^rng must be a Generator, got None$"):
        init_model(2, 1, None)
    # numpy refuses both shapes before it allocates anything
    with pytest.raises(LomoError, match=r"^dimension=4611686018427387904 is too large: array is too big"):
        init_model(2**62, 1, generator(0))
    with pytest.raises(LomoError, match=r"^dimension=10{400} is too large: "):
        init_model(10**400, 1, generator(0))


# ---------------------------------------------------------------------------
# model files


def test_save_load_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(31)
    for case in range(10):
        m_t = int(rng.integers(1, 5))
        d = int(rng.integers(1, 7))
        model = LomoModel(
            rng.normal(size=(m_t, d)) * 10.0 ** rng.integers(-12, 12),
            rng.normal(size=math.factorial(m_t)),
        )
        path = tmp_path / f"m{case}.lomo"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.templates, model.templates)
        np.testing.assert_array_equal(loaded.costs, model.costs)


def test_model_file_format_is_versioned_text(tmp_path):
    model = LomoModel(np.array([[1.5, -0.25], [0.0, 3.0]]), np.array([0.5, -0.5]))
    path = tmp_path / "m.lomo"
    save_model(model, path)
    text = path.read_text(encoding="utf-8")
    assert text == (
        "LOMO v1\n"
        "M=2 d=2\n"
        "costs 0.5 -0.5\n"
        "w1 1.5 -0.25\n"
        "w2 0.0 3.0\n"
    )
    assert "\r" not in text
    for line in text.splitlines():
        assert line == line.rstrip()


def test_save_preserves_awkward_floats(tmp_path):
    model = LomoModel(np.array([[1 / 3, 1e-17]]), np.array([-0.0]))
    path = tmp_path / "m.lomo"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.templates[0, 0] == 1 / 3
    assert loaded.templates[0, 1] == 1e-17


def _write(tmp_path, text):
    path = tmp_path / "bad.lomo"
    path.write_text(text, encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda tmp: LomoModel(np.zeros(3), np.zeros(1)),
         r"templates must be 2-dimensional \(M, d\), got shape \(3,\)"),
        (lambda tmp: LomoModel(np.zeros((0, 2)), np.zeros(1)),
         "number of templates must be >= 1, got 0"),
        (lambda tmp: LomoModel(np.zeros((1, 0)), np.zeros(1)), "template dimension must be >= 1"),
        (lambda tmp: load_model(_write(tmp, "LOMO v1\n")), "line 2: missing dimensions line"),
        (lambda tmp: load_model(_write(tmp, "LOMO v1\nM=1\ncosts 0.0\nw1 0.0\n")),
         r"line 2: expected 'M=<int> d=<int>', got 'M=1'"),
        (lambda tmp: load_model(_write(tmp, "LOMO v1\nM=x d=1\ncosts 0.0\nw1 0.0\n")),
         r"line 2: expected 'M=<int> d=<int>', got 'M=x d=1'"),
        (lambda tmp: load_model(_write(tmp, "LOMO v1\nM=1 d=1\ncosts nan\nw1 0.0\n")),
         "line 3: non-finite value"),
        (lambda tmp: load_model(_write(tmp, "LOMO v1\nM=1 d=2\ncosts_x 0.0\nw1 1.0 2.0\n")),
         r"line 3: expected 'costs \.\.\.', got 'costs_x 0\.0'"),
        (lambda tmp: load_model(_write(tmp, "LOMO v1\nM=1 d=2\ncosts 0.0\nw2 1.0 2.0\n")),
         r"line 4: expected 'w1 \.\.\.', got 'w2 1\.0 2\.0'"),
        (lambda tmp: save_model(None, tmp / "none.lomo"), "model must be a LomoModel, got None"),
    ],
    ids=[
        "1-d-templates", "no-templates", "zero-width", "no-dimensions-line",
        "bad-dimensions-line", "non-integer-dimension", "non-finite-cost", "bad-costs-label", "bad-template-label", "save-no-model",
    ],
)
def test_model_validation_messages(tmp_path, call, message):
    with pytest.raises(LomoError, match=f"^{message}$"):
        call(tmp_path)


def test_load_rejects_unsupported_version(tmp_path):
    path = _write(tmp_path, "LOMO v2\nM=1 d=1\ncosts 0.0\nw1 0.0\n")
    with pytest.raises(LomoError, match="unsupported"):
        load_model(path)


def test_load_rejects_garbage_header(tmp_path):
    path = _write(tmp_path, "hello\n")
    with pytest.raises(LomoError, match="line 1"):
        load_model(path)


def test_load_rejects_wrong_cost_count(tmp_path):
    path = _write(tmp_path, "LOMO v1\nM=2 d=1\ncosts 0.0\nw1 0.0\nw2 0.0\n")
    with pytest.raises(LomoError, match="line 3"):
        load_model(path)


def test_load_rejects_wrong_template_width(tmp_path):
    path = _write(tmp_path, "LOMO v1\nM=1 d=2\ncosts 0.0\nw1 0.0\n")
    with pytest.raises(LomoError, match="line 4"):
        load_model(path)


def test_load_rejects_non_numeric_token(tmp_path):
    path = _write(tmp_path, "LOMO v1\nM=1 d=1\ncosts zero\nw1 0.0\n")
    with pytest.raises(LomoError, match="non-numeric token 'zero'"):
        load_model(path)


def test_load_rejects_missing_template_line(tmp_path):
    path = _write(tmp_path, "LOMO v1\nM=2 d=1\ncosts 0.0 0.0\nw1 0.0\n")
    with pytest.raises(LomoError):
        load_model(path)


# ---------------------------------------------------------------------------
# model-file properties

FILE_SETTINGS = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
AWKWARD_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                  1.7976931348623157e308, -1.7976931348623157e308, 1 / 3, 0.1, 1e-17]


def _any_finite_bits(rng, n, awkward):
    """n finite float64s from uniformly random bit patterns, led by `awkward`."""
    values = np.frombuffer(rng.bytes(8 * n), dtype=np.float64).copy()
    values[~np.isfinite(values)] = -0.0
    head = awkward[:n]
    values[: len(head)] = head
    return values


@FILE_SETTINGS
@given(
    m=st.integers(1, MAX_TEMPLATES),
    d=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    awkward=st.lists(st.sampled_from(AWKWARD_FLOATS), max_size=6),
)
def test_save_load_round_trip_is_bit_exact_for_every_m(tmp_path, m, d, seed, awkward):
    rng = np.random.default_rng(seed)
    model = LomoModel(
        _any_finite_bits(rng, m * d, awkward).reshape(m, d),
        _any_finite_bits(rng, math.factorial(m), awkward),
    )
    path = tmp_path / "rt.lomo"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.templates.tobytes() == model.templates.tobytes()
    assert loaded.costs.tobytes() == model.costs.tobytes()


MODEL_LINES = st.sampled_from([
    b"LOMO v1", b"LOMO v2", b"\xef\xbb\xbfLOMO v1", b"M=1 d=2", b"M=2 d=1", b"M=9 d=1",
    b"M=0 d=1", b"M=1 d=99999999999999999999", b"M=x d=1", b"costs", b"costs 0.0",
    b"costs 0.5 -1.0", b"costs 1e400", b"w1", b"w1 1.0 2.0", b"w1 nan", b"w2 0.5",
    b"w1  1.0", b"\xff", b"\x00", b"\r", b" ", b"",
])


MODEL_TOKENS = st.sampled_from(["0.5", "0.5", "-0.0", "nan", "1e400", "x", ""])


@st.composite
def model_like_texts(draw) -> bytes:
    """A v1 header, then dimension, cost and template lines that often fit."""
    m = draw(st.integers(-1, MAX_TEMPLATES + 1))
    d = draw(st.one_of(st.integers(-1, 3), st.integers(10**6, 10**30)))
    fits = 1 <= m <= 4 and draw(st.booleans())
    n_costs = math.factorial(m) if fits else draw(st.integers(0, 3))
    lines = ["LOMO v1", f"M={m} d={d}", " ".join(["costs", *draw(
        st.lists(MODEL_TOKENS, min_size=n_costs, max_size=n_costs))])]
    n_rows = m if fits else draw(st.integers(0, 3))
    for i in range(n_rows):
        lines.append(" ".join([f"w{i + 1}", *draw(st.lists(MODEL_TOKENS, max_size=3))]))
    return "\n".join(lines).encode()


def _valid_model_bytes() -> bytes:
    return b"LOMO v1\nM=2 d=2\ncosts 0.5 -0.5\nw1 1.5 -0.25\nw2 0.0 3.0\n"


@FILE_SETTINGS
@given(st.one_of(
    st.binary(max_size=64),
    st.lists(st.one_of(MODEL_LINES, st.binary(max_size=6)), max_size=6).map(b"\n".join),
    model_like_texts(),
    st.tuples(st.integers(0, len(_valid_model_bytes()) - 1), st.integers(0, 255)).map(
        lambda pos_byte: _valid_model_bytes()[: pos_byte[0]] + bytes([pos_byte[1]])
        + _valid_model_bytes()[pos_byte[0] + 1 :]
    ),
))
@example(b"\x80")
@example(b"LOMO v1\nM=1 d=99999999999999999999\ncosts 0.0\nw1 1.0\n")
def test_any_byte_string_loads_as_a_model_or_raises_lomo_error(tmp_path, raw):
    path = tmp_path / "any.lomo"
    path.write_bytes(raw)
    try:
        model = load_model(path)
    except LomoError:
        return
    assert isinstance(model, LomoModel)
