"""Unit tests for the seeded RNG wrapper, float formatting, the numeric-error
guard, integer arguments and the package's exported names."""

from __future__ import annotations

import ast
import pathlib
import re

import numpy as np
import pytest

import lomo
from lomo.core import LomoError, Rng, child_seed, float_errors, format_float
from lomo.data import PreprocessConfig, prepare
from lomo.model import init_model, perm_index, perm_unrank, rank_pattern


# ---------------------------------------------------------------------------
# Rng


def test_rng_same_seed_same_stream():
    a = Rng(123)
    b = Rng(123)
    np.testing.assert_array_equal(a.uniform(size=20), b.uniform(size=20))
    np.testing.assert_array_equal(a.normal(size=20), b.normal(size=20))


def test_rng_different_seeds_differ():
    assert not np.array_equal(Rng(1).uniform(size=8), Rng(2).uniform(size=8))


def test_rng_scalar_draws_are_python_floats():
    r = Rng(5)
    assert isinstance(r.uniform(), float)
    assert isinstance(r.normal(), float)


def test_rng_uniform_is_half_open_unit_interval():
    draws = Rng(7).uniform(size=10000)
    assert draws.min() >= 0.0
    assert draws.max() < 1.0


def test_rng_randint_bounds_and_coverage():
    r = Rng(11)
    seen = set()
    for _ in range(500):
        v = r.randint(4)
        assert 0 <= v < 4
        seen.add(v)
    assert seen == {0, 1, 2, 3}


def test_rng_randint_rejects_nonpositive():
    with pytest.raises(LomoError, match="randint needs n >= 1"):
        Rng(0).randint(0)


def test_rng_permutation_is_a_permutation():
    for seed in range(5):
        p = Rng(seed).permutation(17)
        assert sorted(p.tolist()) == list(range(17))


def test_rng_child_streams_are_deterministic_and_distinct():
    parent = Rng(99)
    c0a = Rng(child_seed(99, 0)).uniform(size=6)
    c0b = Rng(child_seed(99, 0)).uniform(size=6)
    c1 = Rng(child_seed(99, 1)).uniform(size=6)
    np.testing.assert_array_equal(c0a, c0b)
    assert not np.array_equal(c0a, c1)
    assert not np.array_equal(c0a, parent.uniform(size=6))


@pytest.mark.parametrize("n", [1, 7, 480, 800, 2**40])
def test_rng_integers_is_the_stream_of_repeated_randint(n):
    bulk = Rng(21).integers(n, 500)
    single = Rng(21)
    assert bulk.tolist() == [single.randint(n) for _ in range(500)]
    # and leaves the generator in the same state
    after_bulk = Rng(21)
    after_bulk.integers(n, 500)
    assert after_bulk.uniform() == single.uniform()


def test_rng_integers_rejects_nonpositive():
    with pytest.raises(LomoError, match="integers needs n >= 1"):
        Rng(0).integers(0, 3)


def test_child_seed_is_stable_and_63_bit():
    values = [child_seed(42, i) for i in range(100)]
    assert values == [child_seed(42, i) for i in range(100)]
    assert len(set(values)) == 100
    for v in values:
        assert 0 <= v < 2**63


def test_child_seed_varies_with_parent_seed():
    assert child_seed(1, 0) != child_seed(2, 0)


def test_rng_rejects_a_negative_or_non_integer_seed():
    with pytest.raises(LomoError, match="^seed must be >= 0, got -1$"):
        Rng(-1)
    with pytest.raises(LomoError, match=r"^seed must be an integer, got 1\.5$"):
        Rng(1.5)
    assert Rng(np.int64(3)).seed == 3


def test_child_seed_rejects_a_negative_or_non_integer_seed():
    with pytest.raises(LomoError, match="^seed must be >= 0, got -1$"):
        child_seed(-1, 0)
    with pytest.raises(LomoError, match=r"^seed must be an integer, got 1\.5$"):
        child_seed(1.5, 0)
    assert child_seed(np.int64(3), 0) == child_seed(3, 0)


# ---------------------------------------------------------------------------
# float formatting


def test_format_float_round_trips_exactly():
    rng = np.random.default_rng(13)
    samples = list(rng.normal(size=50)) + list(rng.normal(size=20) * 1e12)
    samples += [0.0, -0.0, 1e-300, -1e-300, 1 / 3, 0.1, 2**53 + 1.0]
    for x in samples:
        assert float(format_float(x)) == float(x)


def test_format_float_uses_shortest_repr():
    assert format_float(0.05) == "0.05"
    assert format_float(1e-05) == "1e-05"
    assert format_float(0.0) == "0.0"
    assert format_float(-0.0) == "-0.0"
    assert format_float(2.0) == "2.0"


def test_format_float_unwraps_numpy_scalars():
    assert format_float(np.float64(0.1)) == "0.1"


# ---------------------------------------------------------------------------
# package surface


def test_every_exported_name_resolves_once():
    assert len(lomo.__all__) == len(set(lomo.__all__))
    missing = [name for name in lomo.__all__ if not hasattr(lomo, name)]
    assert missing == []


# ---------------------------------------------------------------------------
# the numeric-error guard


def test_float_errors_turns_overflow_invalid_and_linalg_errors_into_lomo_errors():
    with pytest.raises(LomoError, match="^x: overflow encountered in multiply$"):
        with float_errors(lambda err: f"x: {err}"):
            np.array([1e308]) * 10.0
    with pytest.raises(LomoError, match="^invalid value encountered in subtract$"):
        with float_errors(str):
            np.array([np.inf]) - np.inf
    with pytest.raises(LomoError, match="^Eigenvalues did not converge$"):
        with float_errors(str):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")


def test_float_errors_lets_other_errors_through_and_restores_the_error_state():
    before = np.geterr()
    with pytest.raises(KeyError):
        with float_errors(str):
            raise KeyError("k")
    with float_errors(str):
        inside = np.geterr()
    assert inside == {**before, "over": "raise", "invalid": "raise"}
    assert np.geterr() == before


def test_float_errors_describe_reads_the_loop_as_it_stands():
    with pytest.raises(LomoError, match="^step 3: overflow"):
        with float_errors(lambda err: f"step {step}: {err}"):
            for step in range(1, 5):
                np.array([10.0 ** (100 * step)]) * 1e10


def test_only_core_knows_which_numpy_errors_are_fatal():
    src = pathlib.Path(lomo.__file__).parent
    words = re.compile(r"errstate|FloatingPointError|LinAlgError")
    found = sorted(p.name for p in src.glob("*.py") if words.search(p.read_text("utf-8")))
    assert found == ["core.py"]


def test_only_training_turns_class_labels_into_binary_targets():
    src = pathlib.Path(lomo.__file__).parent
    words = re.compile(r"LabeledSequence\(|\b1 if \w+ == \w+ else -1\b")
    found = sorted(p.name for p in src.glob("*.py") if words.search(p.read_text("utf-8")))
    assert found == ["training.py"]


def test_only_model_reads_the_longest_order():
    # every other module bounds M through model.require_order_size
    src = pathlib.Path(lomo.__file__).parent
    readers = []
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            names = [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else []
            if "MAX_TEMPLATES" in names or getattr(node, "attr", None) == "MAX_TEMPLATES":
                readers.append(path.name)
    assert readers == []


@pytest.mark.parametrize(
    "text, home",
    [
        ("dimension mismatch", "inference.py"),  # inference.require_dimension
        ("must be finite and", "core.py"),  # core.require_real(…, minimum=…)
        ('require_instance(f"', "core.py"),  # core.require_items
        (".lower()", "core.py"),  # core.require_choice
        ("100 * ", "training.py"),  # TrainConfig.num_steps
    ],
)
def test_each_argument_rule_is_written_in_one_module(text, home):
    src = pathlib.Path(lomo.__file__).parent
    found = sorted(p.name for p in src.glob("*.py") if text in p.read_text("utf-8"))
    assert found == [home]


def test_the_pooled_svm_is_no_variant_of_its_own():
    # --variant svm-mean/svm-max train mil on frames pooled by PreprocessConfig
    root = pathlib.Path(__file__).resolve().parents[1]
    paths = [*root.glob("src/lomo/*.py"), *root.glob("tests/*.py"), root / "README.md"]
    retired = "svm" + "_pool"
    assert [p.name for p in paths if retired in p.read_text("utf-8")] == []


# ---------------------------------------------------------------------------
# integer arguments


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: perm_index([1.5]), r"^permutation entry must be an integer, got 1\.5$"),
        (lambda: perm_index([2, 1.0]), r"^permutation entry must be an integer, got 1\.0$"),
        (lambda: rank_pattern([0.5, 2]), r"^frame index must be an integer, got 0\.5$"),
        (lambda: perm_unrank(1.5, 2), r"^permutation index must be an integer, got 1\.5$"),
        (lambda: perm_unrank(1, 2.0), r"^m must be an integer, got 2\.0$"),
        (lambda: init_model(2.5, 1, Rng(0)), r"^dimension must be an integer, got 2\.5$"),
        (lambda: init_model(2, True, Rng(0)),
         r"^number of templates must be an integer, got True$"),
        (lambda: child_seed(1, -1), r"^index must be >= 0, got -1$"),
        (lambda: child_seed(1, 1.5), r"^index must be an integer, got 1\.5$"),
    ],
    ids=[
        "perm_index-float", "perm_index-integral-float", "rank_pattern-float",
        "perm_unrank-index", "perm_unrank-m", "init_model-d", "init_model-m-bool",
        "child_seed-negative", "child_seed-float",
    ],
)
def test_integer_arguments_reject_other_types_and_negative_indices(call, message):
    with pytest.raises(LomoError, match=message):
        call()


def test_messages_show_an_int_too_long_to_print_by_its_bit_length():
    huge = 10**5000  # more digits than Python converts to text
    with pytest.raises(LomoError, match=r"^manifest must be a DatasetManifest, got a 16610-bit integer$"):
        lomo.make_folds(huge, "logo", 0)
    with pytest.raises(LomoError, match=r"^scores\[0\] is a negative 16610-bit integer; ROC"):
        lomo.roc_auc([1, -1], [-huge, 0.0])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda huge: lomo.train_ova([huge], lomo.TrainConfig()),
         r"^data\[0\] must be a \(FrameSequence, label\) pair, got a 16610-bit integer$"),
        (lambda huge: lomo.train_ova([(huge, "a")], lomo.TrainConfig()),
         r"^data\[0\] must be a \(FrameSequence, label\) pair, got a tuple too long to print$"),
        (lambda huge: lomo.avg_class_accuracy([(huge,)]),
         r"^pairs\[0\] must be a \(true, predicted\) pair, got a tuple too long to print$"),
        (lambda huge: lomo.score_sequences(
            init_model(2, 1, Rng(0)), [(huge,)], lomo.InferenceConfig()),
         r"^seqs\[0\] must be a FrameSequence, got a tuple too long to print$"),
        (lambda huge: prepare(PreprocessConfig(), [(huge,)]),
         r"^train_seqs\[0\] must be a FrameSequence, got a tuple too long to print$"),
    ],
    ids=["train_ova-int", "train_ova-pair", "avg_class_accuracy", "score_sequences", "prepare"],
)
def test_messages_show_a_value_holding_an_int_too_long_to_print_by_its_type(call, message):
    with pytest.raises(LomoError, match=message):
        call(10**5000)


def test_integer_arguments_accept_numpy_integers():
    assert perm_index(np.array([2, 1])) == 2
    assert rank_pattern(np.array([9, 4])) == (2, 1)
    assert perm_unrank(np.int64(2), np.int64(2)) == (2, 1)
    assert init_model(np.int64(2), np.int64(1), Rng(0)).templates.shape == (1, 2)
    assert child_seed(1, np.int64(0)) == child_seed(1, 0)
