"""Unit tests for the seeded streams, float formatting, the numeric-error
guard, integer arguments and the package's exported names."""

from __future__ import annotations

import ast
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import lomo
from lomo.core import LomoError, child_seed, float_errors, format_float, generator
from lomo.data import PreprocessConfig
from lomo.model import init_model, perm_index, perm_unrank, rank_pattern


# ---------------------------------------------------------------------------
# seeded streams


def test_rng_same_seed_same_stream():
    a = generator(123)
    b = generator(123)
    np.testing.assert_array_equal(a.random(20), b.random(20))
    np.testing.assert_array_equal(a.standard_normal(20), b.standard_normal(20))


def test_rng_different_seeds_differ():
    assert not np.array_equal(generator(1).random(8), generator(2).random(8))


def test_rng_uniform_is_half_open_unit_interval():
    draws = generator(7).random(10000)
    assert draws.min() >= 0.0
    assert draws.max() < 1.0


def test_rng_randint_bounds_and_coverage():
    r = generator(11)
    seen = set()
    for _ in range(500):
        v = int(r.integers(4))
        assert 0 <= v < 4
        seen.add(v)
    assert seen == {0, 1, 2, 3}


def test_rng_permutation_is_a_permutation():
    for seed in range(5):
        p = generator(seed).permutation(17)
        assert sorted(p.tolist()) == list(range(17))


def test_rng_child_streams_are_deterministic_and_distinct():
    parent = generator(99)
    c0a = generator(child_seed(99, 0)).random(6)
    c0b = generator(child_seed(99, 0)).random(6)
    c1 = generator(child_seed(99, 1)).random(6)
    np.testing.assert_array_equal(c0a, c0b)
    assert not np.array_equal(c0a, c1)
    assert not np.array_equal(c0a, parent.random(6))


@pytest.mark.parametrize("n", [1, 7, 480, 800, 2**40])
def test_rng_integers_is_the_stream_of_repeated_randint(n):
    # train draws its sample indices in chunks, the stream of one draw per step
    bulk = generator(21).integers(n, size=500)
    single = generator(21)
    assert bulk.tolist() == [int(single.integers(n)) for _ in range(500)]
    # and leaves the generator in the same state
    after_bulk = generator(21)
    after_bulk.integers(n, size=500)
    assert after_bulk.random() == single.random()


def test_child_seed_is_stable_and_63_bit():
    values = [child_seed(42, i) for i in range(100)]
    assert values == [child_seed(42, i) for i in range(100)]
    assert len(set(values)) == 100
    for v in values:
        assert 0 <= v < 2**63


def test_child_seed_varies_with_parent_seed():
    assert child_seed(1, 0) != child_seed(2, 0)


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


def test_every_exported_name_is_used_by_the_package_or_documented():
    # a name the package reads outside __init__.py, or one README's Python
    # API section shows; anything else serves only tests
    src = pathlib.Path(lomo.__file__).parent
    used = set()
    for path in src.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text("utf-8"))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    readme = (src.parents[1] / "README.md").read_text("utf-8")
    api = readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    shown = set(re.findall(r"\w+", api))
    assert [name for name in lomo.__all__ if name not in used | shown] == []


def test_no_reference_implementation_is_in_the_package():
    # the scoring and SGD-step oracles live in tests/oracle.py
    src = pathlib.Path(lomo.__file__).parent
    defined = {node.name for path in src.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text("utf-8")))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert defined & {"latent_assign", "LatentAssignment", "sgd_step"} == set()


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
    # a training example is a (sequence, class label) pair, with no type of its own
    texts = {p.name: p.read_text("utf-8") for p in pathlib.Path(lomo.__file__).parent.glob("*.py")}
    assert [name for name, text in texts.items() if "LabeledSequence" in text] == []
    words = re.compile(r"\b1 if \w+ == \w+ else -1\b")
    assert sorted(name for name, text in texts.items() if words.search(text)) == ["training.py"]


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
        ("must be iterable", "core.py"),  # core.require_iterable
        (".lower()", "core.py"),  # core.require_choice
        ("sortable kind", "core.py"),  # core.sorted_classes
        ("is too large", "core.py"),  # core.too_large
        ("100 * ", "training.py"),  # TrainConfig.num_steps
        ('"gradient", "literal"', "training.py"),  # training.COST_UPDATES
        ('"acc", "auc", "eer"', "evaluation.py"),  # evaluation.METRICS
        ('"shuffled", "absent"', "data.py"),  # data.NEG_MODES
        ('"logo", "kfold"', "data.py"),  # data.SCHEMES
        ('"mean", "max"', "data.py"),  # data.POOLS
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


def test_the_exclusion_window_is_declared_once():
    # TrainConfig.exclusion_t holds t, and scoring takes it as an int
    root = pathlib.Path(__file__).resolve().parents[1]
    paths = [*root.glob("src/lomo/*.py"), *root.glob("tests/*.py"), root / "README.md"]
    retired = ("Inference" + "Config", "inference" + "_config")
    assert [(p.name, word) for p in paths for word in retired if word in p.read_text("utf-8")] == []


def test_the_bit_generator_has_one_home():
    # core.generator builds every stream and core.child_seed every child
    # seed; elsewhere np.random appears only as the Generator type that
    # init_model checks
    root = pathlib.Path(__file__).resolve().parents[1]
    src = sorted(root.glob("src/lomo/*.py"))
    others = {p.name: p.read_text("utf-8") for p in src if p.name != "core.py"}
    assert {name: set(re.findall(r"np\.random\.(\w+)", text)) - {"Generator"}
            for name, text in others.items()} == {name: set() for name in others}
    bit_generator = re.compile(r"PCG64|SeedSequence|default_rng|numpy\.random")
    assert [name for name, text in others.items() if bit_generator.search(text)] == []
    # the retired wrapper class
    retired = "R" + "ng"
    paths = [*src, *root.glob("tests/*.py"), root / "README.md"]
    assert [p.name for p in paths if retired in p.read_text("utf-8")] == []


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # numpy loads numpy.random on first use; loaded before the package
    # compiled, it raised the peak resident size of `import lomo.cli` by
    # 0.7 MB (2.6 MB at the import); hashlib, which loads OpenSSL, raised
    # it by 3.7-3.9 MB
    paths = [str(pathlib.Path(lomo.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    script = "import sys, lomo.cli; print(sorted({'numpy.random', 'hashlib'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out == "[]\n"


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
        (lambda: init_model(2.5, 1, generator(0)), r"^dimension must be an integer, got 2\.5$"),
        (lambda: init_model(2, True, generator(0)),
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
        (lambda huge: lomo.score_sequences(init_model(2, 1, generator(0)), [(huge,)], 5),
         r"^seqs\[0\] must be a FrameSequence, got a tuple too long to print$"),
        (lambda huge: lomo.fit_preprocess([(huge,)], PreprocessConfig()),
         r"^train_seqs\[0\] must be a FrameSequence, got a tuple too long to print$"),
    ],
    ids=["train_ova-int", "train_ova-pair", "avg_class_accuracy", "score_sequences", "preprocess"],
)
def test_messages_show_a_value_holding_an_int_too_long_to_print_by_its_type(call, message):
    with pytest.raises(LomoError, match=message):
        call(10**5000)


def _two_group_manifest():
    # one record per group, with a path that nothing here reads
    pairs = (("a", "pos"), ("b", "neg"))
    return lomo.DatasetManifest([lomo.data.ManifestRecord(i, label, i, i) for i, label in pairs], 1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda huge: lomo.FrameSequence(np.ones(1), id=huge),
         r"sequence a 16610-bit integer: frames must be \(N, d\), got shape \(1,\)"),
        (lambda huge: lomo.FrameSequence(np.ones((1, 2)), id="s").require_dim(huge),
         r"sequence s: dimension 2 differs from a 16610-bit integer"),
        (lambda huge: PreprocessConfig(l2=huge),
         r"l2 must be True or False, got a 16610-bit integer"),
        (lambda huge: lomo.data.fit_preprocess([lomo.FrameSequence(np.ones((2, 1)))],
                                               PreprocessConfig(pca_dim=huge)),
         r"pca dimension k=a 16610-bit integer out of range 1\.\.1"),
        (lambda huge: lomo.SynthSpec(min_gap=huge),
         r"num_frames must exceed num_events\*\(min_gap\+1\) = a 16612-bit integer, got 40"),
        (lambda huge: lomo.SynthSpec(num_frames=-huge),
         r"num_frames must exceed num_events\*\(min_gap\+1\) = 18, "
         r"got a negative 16610-bit integer"),
        (lambda huge: lomo.make_folds(_two_group_manifest(), "kfold", 0, k=huge),
         r"k=a 16610-bit integer exceeds the 2 available groups"),
        (lambda huge: lomo.make_folds(_two_group_manifest(), "logo", 0, k=huge),
         r"the logo scheme takes no fold count k, got k=a 16610-bit integer"),
        (lambda huge: perm_unrank(huge, 2),
         r"permutation index a 16610-bit integer out of range 1\.\.2 for M=2"),
        (lambda huge: rank_pattern([-huge]),
         r"frame indices must be >= 1, got a list too long to print"),
        (lambda huge: perm_index([1, huge]),
         r"a tuple too long to print is not a permutation of 1\.\.2"),
        (lambda huge: lomo.train_binary([(lomo.FrameSequence(np.ones((1, 1))), "a")], huge,
                                        lomo.TrainConfig()),
         r"positive label a 16610-bit integer not among classes \['a'\]"),
        (lambda huge: lomo.train_ova([(lomo.FrameSequence(np.ones((1, 1))), huge)],
                                     lomo.TrainConfig()),
         r"one-vs-all needs >= 2 classes, got a list too long to print"),
        (lambda huge: lomo.run_cv(_two_group_manifest(), [], lomo.TrainConfig(),
                                  positive_label=huge),
         r"positive label a 16610-bit integer not among classes \['neg', 'pos'\]"),
        (lambda huge: lomo.avg_class_accuracy([(1, 1)], classes=[1, huge]),
         r"class a 16610-bit integer has no examples"),
        (lambda huge: lomo.roc_auc([huge, -1], [0.5, 0.1]),
         r"labels\[0\] is a 16610-bit integer; ROC metrics need labels \+1 or -1"),
        (lambda huge: lomo.roc_eer_rate([1, -huge], [0.5, 0.1]),
         r"labels\[1\] is a negative 16610-bit integer; ROC metrics need labels \+1 or -1"),
        (lambda huge: lomo.run_cv(_two_group_manifest(),
                                  [lomo.Fold(train_ids=(huge,), test_ids=("a",))],
                                  lomo.TrainConfig(), positive_label="pos"),
         r"fold 0: id a 16610-bit integer is no manifest record with a sequence"),
        (lambda huge: lomo.SynthSpec(num_pos=huge),
         r"num_pos must be <= 9223372036854775807, got a 16610-bit integer"),
    ],
    ids=["FrameSequence-id", "require_dim", "l2", "pca_dim", "min_gap", "num_frames", "kfold-k",
         "logo-k", "perm_unrank", "rank_pattern", "perm_index", "train_binary", "train_ova",
         "run_cv", "avg_class_accuracy", "roc_auc", "roc_eer_rate",
         "run_cv-fold-id", "num_pos"],
)
def test_messages_show_an_int_too_long_to_print_in_every_argument(call, message):
    with pytest.raises(LomoError, match=f"^{message}$"):
        call(10**5000)


def test_a_sequence_id_too_long_to_print_names_the_sequence(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("1.0\n", encoding="utf-8")
    assert lomo.read_sequence(path, seq_id=10**5000).name == "a 16610-bit integer"
    assert lomo.FrameSequence(np.ones((1, 1)), id=-10**5000).name == "a negative 16610-bit integer"


# ---------------------------------------------------------------------------
# list arguments


def _caller_generator():
    yield from ()
    raise TypeError("raised by the caller's generator")


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: lomo.objective(init_model(2, 1, generator(0)), None, 1, lomo.TrainConfig()),
         LomoError, r"data must be iterable, got None"),
        (lambda: lomo.train_binary(5, "a", lomo.TrainConfig()), LomoError,
         r"data must be iterable, got 5"),
        (lambda: lomo.train_ova(None, lomo.TrainConfig()), LomoError,
         r"data must be iterable, got None"),
        (lambda: lomo.score_sequences(init_model(2, 1, generator(0)), None, 5),
         LomoError, r"seqs must be iterable, got None"),
        (lambda: lomo.fit_preprocess(None, PreprocessConfig()), LomoError,
         r"train_seqs must be iterable, got None"),
        (lambda: lomo.apply_preprocess(lomo.fit_preprocess([], PreprocessConfig()), 1.5),
         LomoError, r"seqs must be iterable, got 1\.5"),
        (lambda: lomo.avg_class_accuracy(None), LomoError, r"pairs must be iterable, got None"),
        (lambda: lomo.avg_class_accuracy([(1, 1)], classes=float("nan")), LomoError,
         r"classes must be iterable, got nan"),
        (lambda: lomo.train_ova([], lomo.TrainConfig(), classes=float("nan")), LomoError,
         r"classes must be iterable, got nan"),
        (lambda: lomo.roc_auc(None, None), LomoError, r"labels must be iterable, got None"),
        (lambda: lomo.roc_eer_rate([1, -1], 0.5), LomoError, r"scores must be iterable, got 0\.5"),
        (lambda: lomo.fuse_scores(None), LomoError, r"scores must be iterable, got None"),
        (lambda: rank_pattern(3), LomoError, r"k must be iterable, got 3"),
        (lambda: perm_index(None), LomoError, r"p must be iterable, got None"),
        (lambda: lomo.train_binary(-10**5000, "a", lomo.TrainConfig()), LomoError,
         r"data must be iterable, got a negative 16610-bit integer"),
        (lambda: lomo.train_binary(_caller_generator(), "a", lomo.TrainConfig()), TypeError,
         r"raised by the caller's generator"),
    ],
    ids=[
        "objective", "train_binary", "train_ova", "score_sequences", "fit_preprocess",
        "apply_preprocess",
        "avg_class_accuracy", "avg_class_accuracy-classes", "train_ova-classes", "roc_auc", "roc_eer_rate", "fuse_scores", "rank_pattern",
        "perm_index", "huge-int", "generator-type-error",
    ],
)
def test_list_arguments_that_are_not_iterable_raise_a_lomo_error(call, error, message):
    # a wrong Python type is a LomoError; a TypeError from inside an
    # iterable the caller passed is the caller's own and propagates
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_integer_arguments_accept_numpy_integers():
    assert perm_index(np.array([2, 1])) == 2
    assert rank_pattern(np.array([9, 4])) == (2, 1)
    assert perm_unrank(np.int64(2), np.int64(2)) == (2, 1)
    assert init_model(np.int64(2), np.int64(1), generator(0)).templates.shape == (1, 2)
    assert child_seed(1, np.int64(0)) == child_seed(1, 0)
