"""Deterministic randomness, text files, float formatting, the numeric-error
guard and the forked worker map.

Everything downstream (training, folds, synthetic data) draws randomness
from a :func:`generator` stream so that a run is a pure function of its
seeds.
"""

from __future__ import annotations

import codecs
import contextlib
import math
import numbers
import os
import pickle
import signal
import threading
import traceback

import numpy as np


class LomoError(ValueError):
    """Domain error raised for invalid inputs, files, or configurations."""


def _shown(value, form=repr) -> str:
    """form(value), repr or str, for an error message. An int with more
    digits than Python converts to text (sys.get_int_max_str_digits) is
    shown by its sign and bit length instead, and any other value whose
    text raises ValueError (a tuple holding such an int) by its type."""
    try:
        return form(value)
    except ValueError:
        if isinstance(value, int):
            return f"{'a negative' if value < 0 else 'a'} {value.bit_length()}-bit integer"
        return f"a {type(value).__name__} too long to print"


def require_int(name: str, value, minimum: int | None = None) -> int:
    """`value` as a Python int; any other type (numpy integers pass, bools
    do not), or a value below `minimum`, raises a LomoError naming the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise LomoError(f"{name} must be an integer, got {_shown(value)}")
    if minimum is not None and value < minimum:
        raise LomoError(f"{name} must be >= {minimum}, got {_shown(value, str)}")
    return int(value)


def require_choice(name: str, value, choices: tuple[str, ...]) -> str:
    """`value` lower-cased if it is a str in `choices` in any case; anything else
    raises LomoError "<name> must be one of <choices>, got <value as given>"."""
    if isinstance(value, str) and value.lower() in choices:
        return value.lower()
    raise LomoError(f"{name} must be one of {choices}, got {_shown(value)}")


def real_array(name: str, value, order: str = "K") -> np.ndarray:
    """`value` as a float64 array in `order`; complex or non-numeric input,
    or an int beyond float64, raises a LomoError naming `name`. An array
    that needs no conversion is returned as it is."""
    try:
        arr = np.asarray(value)
        if arr.dtype.kind != "c":
            return arr.astype(np.float64, order=order, copy=False)
    except (TypeError, ValueError, OverflowError) as err:
        raise LomoError(f"{name} must be real numbers: {err}") from None
    raise LomoError(f"{name} must be real numbers, got complex values")


def require_real(name: str, value, minimum: float, strict: bool = False) -> None:
    """A LomoError naming the field unless `value` is a real number (numpy
    floats pass; bools, str and None do not), finite and at least `minimum`
    (above it when `strict`). The value is only checked, not converted, so
    an int setting stays an int."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise LomoError(f"{name} must be a real number, got {_shown(value)}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond float64
        finite = False
    if not (finite and (value > minimum if strict else value >= minimum)):
        op = ">" if strict else ">="
        raise LomoError(f"{name} must be finite and {op} {minimum}, got {_shown(value, str)}")


def require_instance(name: str, value, kind: type) -> None:
    """A LomoError "<name> must be a <kind>, got <value>" unless `value` is
    an instance of `kind` ("an" before a vowel)."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise LomoError(f"{name} must be {article} {kind.__name__}, got {_shown(value)}")


def require_iterable(name: str, value):
    """iter(value); a value that is not iterable raises LomoError "<name>
    must be iterable, got <value>". Only the call to iter is guarded: a
    TypeError raised while the iterator runs, such as one from a caller's
    generator, propagates as it is."""
    try:
        return iter(value)
    except TypeError:
        raise LomoError(f"{name} must be iterable, got {_shown(value)}") from None


def require_items(name: str, items, kind: type) -> list:
    """`items` as a list once every item is an instance of `kind`; the first
    that is not raises LomoError "<name>[k] must be a <kind>, got <item>"."""
    items = list(require_iterable(name, items))
    for k, item in enumerate(items):
        if not isinstance(item, kind):
            require_instance(f"{name}[{k}]", item, kind)
    return items


def require_pairs(name: str, items, what: str, first: type = object) -> list[tuple]:
    """`items` as a list of (a, b) tuples, each `a` an instance of `first`;
    any other item raises LomoError "<name>[k] must be a <what> pair, got <item>"."""
    pairs = []
    for k, item in enumerate(require_iterable(name, items)):
        try:
            a, b = item
            ok = isinstance(a, first)
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise LomoError(f"{name}[{k}] must be a {what} pair, got {_shown(item)}")
        pairs.append((a, b))
    return pairs


def sorted_classes(name: str, labels) -> list:
    """The distinct `labels`, sorted: the one order of class names. Labels
    that do not hash or do not sort together ('a' and 1) raise a LomoError."""
    labels = list(require_iterable(name, labels))
    try:  # dict keeps first appearances in order, so a message is the same every run
        return sorted(dict.fromkeys(labels))
    except TypeError as err:
        raise LomoError(f"{name} must be hashable and of one sortable kind: {err}") from None


def finite_floats(name: str, values, need: str) -> list[float]:
    """Each of `values` as a Python float. The first one that is not a
    finite real number raises LomoError "<name>[k] is <value>; <need>"."""
    out = []
    for k, v in enumerate(require_iterable(name, values)):
        try:
            value = float(v)
        except (TypeError, ValueError, OverflowError):
            raise LomoError(f"{name}[{k}] is {_shown(v)}; {need}") from None
        if not math.isfinite(value):
            raise LomoError(f"{name}[{k}] is {value!r}; {need}")
        out.append(value)
    return out


class float_errors:
    """Context manager, the one home of the rule that a numpy overflow or
    invalid operation, or a LinAlgError, in its body leaves it as
    LomoError(describe(err)). `describe` runs only then, so it can read loop
    variables as they stand at the failure."""

    def __init__(self, describe):
        self._describe = describe
        self._state = np.errstate(over="raise", invalid="raise")

    def __enter__(self):
        self._state.__enter__()

    def __exit__(self, kind, err, tb):
        self._state.__exit__(kind, err, tb)
        if isinstance(err, (FloatingPointError, np.linalg.LinAlgError)):
            raise LomoError(self._describe(err)) from None


@contextlib.contextmanager
def too_large(name: str, value):
    """Context manager: numpy refusing or failing to allocate, in its body,
    an array that the setting `name` sizes leaves it as a LomoError naming
    the setting, with numpy's reason."""
    try:
        yield
    except (ValueError, MemoryError) as err:
        reason = str(err) or "out of memory"
        raise LomoError(f"{name}={_shown(value, str)} is too large: {reason}") from err


def read_bytes(path) -> bytes:
    """Whole file as bytes."""
    with open(path, "rb") as fh:
        return fh.read()


def decode_text(path, raw: bytes, encoding: str = "utf-8") -> str:
    """`raw`, the bytes of the file at `path`, as text; bytes that do not
    decode raise a LomoError naming the file.

    The incremental decoder is the one a text-mode read runs, so a file that
    holds only the start of a byte-order mark reads as empty text. Newlines
    are kept as they are: str.splitlines gives the lines a text-mode read
    would.
    """
    try:
        return codecs.getincrementaldecoder(encoding)().decode(raw, final=True)
    except UnicodeDecodeError as err:
        raise LomoError(f"{path}: not valid UTF-8 text ({err.reason})") from None


def read_text(path, encoding: str = "utf-8") -> str:
    """Whole text file, newlines as they are in it (see decode_text)."""
    return decode_text(path, read_bytes(path), encoding)


def write_text(path, text: str) -> None:
    """Replace the file at `path` with `text`, as UTF-8 with LF line endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def generator(seed: int) -> np.random.Generator:
    """The PCG64 stream of `seed`, the same on any platform. PCG64 is named
    because numpy does not pin the bit generator of default_rng. Folds and
    one-vs-all classes get their own seeds from `child_seed`, so parallel
    work never shares a stream. Callers pass a seed their config checked."""
    return np.random.Generator(np.random.PCG64(seed))


def child_seed(seed: int, index: int) -> int:
    """Stable 63-bit integer seed for child stream `index` of `seed`."""
    seed = require_int("seed", seed, minimum=0)
    index = require_int("index", index, minimum=0)
    ss = np.random.SeedSequence(seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0] >> np.uint64(1))


def format_float(x: float) -> str:
    """Shortest decimal string that round-trips to the same float64."""
    return repr(float(x))


def cpu_count() -> int:
    """CPUs this process may run on: its affinity mask, else all of them."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def forked_map(fn, items, min_share: int = 1, start=None):
    """Yield fn(item) for every item, in item order, on W forked workers.

    The one worker rule: W = min(cpu_count(), len(items) // min_share).
    Item k runs on worker k % W. Each worker, before its first item, calls
    start(share) when `start` is given, with the list of the items it runs
    (all of them when serial); start must not raise. Worker 0 is this
    process; workers 1..W-1 are os.fork() children, each streaming one
    pickled (ok, value or exception) per item through its own pipe.
    Each worker runs its items in item order, and this process reads the
    results in item order, so it never waits on a child that a full pipe
    holds up. A child stops after
    its first failed item, and the error is raised here at that item's
    place, so the first error in item order wins as in a serial loop.
    Results and errors must pickle.

    With W < 2, without os.fork, or while other Python threads run, the
    items run serially in this process. When the generator finishes, is
    closed early or raises, every child is killed if still running and
    reaped. A child that exits without a result is reported; one that
    blocks is waited for without a time limit. A forked child holds only
    the calling thread, so a lock that another thread held at the fork can
    deadlock it and this call then never returns. Threads started outside
    Python (a BLAS built on GNU OpenMP) escape the thread check. Only
    OpenBLAS with pthreads, single- and multi-threaded, has been tried.
    """
    items = list(items)
    workers = min(cpu_count(), len(items) // min_share)
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        if start is not None:
            start(items)
        for item in items:
            yield fn(item)
        return
    shares = [items[w::workers] for w in range(workers)]
    readers, pids = [], []
    try:
        for w in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _serve(fn, shares[w], read_fd, write_fd, start)
            os.close(write_fd)
            pids.append(pid)
            readers.append(open(read_fd, "rb"))
        if start is not None:
            start(shares[0])
        for k, item in enumerate(items):
            w = k % workers
            if w == 0:
                yield fn(item)
                continue
            try:
                ok, value = pickle.load(readers[w - 1])
            except (EOFError, pickle.UnpicklingError):
                raise LomoError(
                    f"worker process exited without a result for item {k}: {item!r}"
                ) from None
            if not ok:
                raise value
            yield value
    finally:
        for reader in readers:
            reader.close()
        for pid in pids:
            # a child that sent all its results is exiting; one that has not
            # may be deep in an item, so it is stopped rather than awaited
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _serve(fn, share, read_fd: int, write_fd: int, start) -> None:
    """Body of a forked_map child; ends the process and never returns.

    os._exit skips atexit handlers and leaves the parent's stdio buffers,
    which the child holds copies of, unflushed.
    """
    try:
        os.close(read_fd)
        if start is not None:
            start(share)
        with open(write_fd, "wb") as out:
            for item in share:
                try:
                    result = (True, fn(item))
                except Exception as err:
                    if not isinstance(err, LomoError):
                        # a traceback does not pickle; keep the text of this one
                        err.__notes__ = [*getattr(err, "__notes__", ()),
                                         f"in forked worker:\n{traceback.format_exc()}"]
                    result = (False, err)
                # pickled whole first: a result that does not pickle sends
                # nothing, and the parent reports this child as exited
                out.write(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
                out.flush()
                if not result[0]:
                    break
    finally:
        os._exit(0)
