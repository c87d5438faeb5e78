"""File formats: binary model persistence, dataset loaders, run configuration.

A model file is little-endian and starts with a 32-byte header that both
format versions share: magic, version, d, activation code, vocabulary
fingerprint and |V|. Version 2, which `save_model` writes, goes on with 16
bytes (case mode, 7 reserved zero bytes, table length), the n-gram table in
the byte layout the vocabulary fingerprint hashes (see `charngram.vocab`),
zero padding to a multiple of 64 bytes, then the float32 bias and the float32
(|V|, d) matrix. Saving and loading stream the bias and matrix through one
fixed-size float32 buffer, so neither holds a copy of the whole file.
Version-1 files (the bias, then per n-gram its order, UTF-8 length, UTF-8
bytes and row) still load: `load_model` is the one reader, and it rebuilds
the version-2 n-gram table from the records, so both versions check the
table's digest and build the vocabulary the same way. Parameters are stored
at float32 and must be finite there; a file holding an inf or NaN is
rejected, and so is saving one. In-memory training uses float64. Every write
goes through `_atomic_write`, a temp file plus atomic rename, so readers never
observe a partial file.
"""

from __future__ import annotations

import contextlib
import os
import re
import stat
import struct
import tempfile
from dataclasses import Field, dataclass, field, fields
from pathlib import Path
from typing import BinaryIO, Callable

import numpy as np

from .errors import DataError, ModelFormatError
from .evaluate import ReferenceVocab, SimDataset
from .model import ACTIVATIONS, Model, verify_binding
from .train import NEGATIVE_POOLS, SAMPLING_MODES, PairDataset, TrainConfig, TrainingCurve
from .vocab import CASE_MODES, NGramVocab

MAGIC = b"CHRG"
FORMAT_VERSION = 2  # what save_model writes; load_model also reads version 1

# both versions: magic, version, d, activation, fingerprint, |V|
_HEADER = struct.Struct("<4sIIB3xQQ")
_V2_HEAD = struct.Struct("<B7sQ")  # version 2 goes on: case mode, 7 reserved bytes, table byte length
_V2_TABLE_START = _HEADER.size + _V2_HEAD.size
_RECORD_HEAD = struct.Struct("<BH")  # version 1: order, utf-8 byte length
_ALIGN = 64  # a version-2 bias starts at a multiple of this
_BLOCK_VALUES = 1 << 16  # float32 values in the block buffer the matrix streams through

_ACTIVATION_CODES = {"linear": 0, "tanh": 1}
_ACTIVATION_NAMES = {v: k for k, v in _ACTIVATION_CODES.items()}
_CASE_CODES = {None: 0, "lower": 1, "preserve": 2}  # None: not recorded
_CASE_NAMES = {v: k for k, v in _CASE_CODES.items()}


# a backslash and the character after it, if any, in an escaped n-gram field
_ESCAPE = re.compile(r"\\(.?)", re.DOTALL)
_UNESCAPED = {"\\": "\\", "s": " "}


def escape_ngram(ngram: str) -> str:
    """Escape for the vocabulary TSV: backslash doubles, space becomes \\s."""
    return ngram.replace("\\", "\\\\").replace(" ", "\\s")


def unescape_ngram(text: str) -> str:
    """Undo `escape_ngram`; DataError on a dangling or unknown escape."""

    def unescape(match: re.Match) -> str:
        escaped = match[1]
        if escaped in _UNESCAPED:
            return _UNESCAPED[escaped]
        if not escaped:
            raise DataError(f"dangling escape in n-gram field {text!r}")
        raise DataError(f"bad escape \\{escaped} in n-gram field {text!r}")

    return _ESCAPE.sub(unescape, text)


def _read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file. Universal newlines turn "\\r\\n" and "\\r"
    into "\\n", and lines split at "\\n" alone: U+0085, U+2028, "\\x0c" and the
    other characters `str.splitlines` also breaks at stay inside their line."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise DataError(f"{path}: {err.strerror or err}") from err
    except UnicodeDecodeError as err:
        raise DataError(f"{path}: not valid UTF-8 ({err})") from err
    lines = text.split("\n")
    if lines[-1] == "":  # the end of the last line, or an empty file
        lines.pop()
    return lines


def _output_mode(path) -> int:
    """The permission bits a file written at `path` gets; DataError if a non-regular file is there.

    A symlink counts as its final target. An existing regular file gives its
    own bits, and no file gives 0o666 less the umask, as `open` would. A
    target that is not a regular file (a directory, FIFO, socket or device)
    is a DataError; it is looked at with `os.stat`, never opened.
    """
    try:
        existing = os.stat(path).st_mode
    except FileNotFoundError:
        umask = os.umask(0)  # the only way to read it is to set it
        os.umask(umask)
        return 0o666 & ~umask
    except OSError as err:
        raise DataError(f"{path}: {err.strerror or err}") from err
    if not stat.S_ISREG(existing):
        raise DataError(f"{path}: not a regular file")
    return stat.S_IMODE(existing)


def _atomic_write(path, write: Callable[[BinaryIO], object]) -> None:
    """Call `write` on a temp file beside `path`, sync it, then rename it over `path`.

    The package's one way of writing a file. A symlink at `path` is followed:
    the rename replaces its final target, and the link stays a link. The file
    gets `_output_mode`'s permission bits, which refuses a target that is not
    a regular file before any temp file is made. Any failure, an exception
    raised by a signal handler included, removes the temp file.
    """
    mode = _output_mode(path)
    target = Path(os.path.realpath(path))
    try:
        fd, tmp_name = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.")
    except OSError as err:
        raise DataError(f"{path}: {err.strerror or err}") from err
    try:
        with os.fdopen(fd, "wb") as handle:
            os.chmod(tmp_name, mode)  # mkstemp makes it 0o600
            write(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, target)
    except BaseException as err:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        if isinstance(err, OSError):
            raise DataError(f"{path}: {err.strerror or err}") from err
        raise


def _atomic_write_bytes(path, payload: bytes) -> None:
    _atomic_write(path, lambda handle: handle.write(payload))


def save_vocab(vocab: NGramVocab, path) -> None:
    """Write the vocabulary TSV: escaped n-gram, order, count, in entry order."""
    if len(vocab) == 0:  # load_vocab would reject the file
        raise DataError(f"{path}: empty vocabulary; nothing written")
    lines = [
        f"{escape_ngram(ngram)}\t{order}\t{count}"
        for ngram, order, count in vocab.entries
    ]
    payload = ("\n".join(lines) + "\n").encode("utf-8")
    _atomic_write_bytes(path, payload)


def load_vocab(path) -> NGramVocab:
    """Read a vocabulary TSV, preserving the stored entry order."""
    entries = []
    for lineno, line in enumerate(_read_lines(path), start=1):
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 tab-separated fields")
        ngram = unescape_ngram(parts[0])
        try:
            order = int(parts[1])
            count = int(parts[2])
        except ValueError as err:
            raise DataError(f"{path}:{lineno}: non-integer order or count") from err
        entries.append((ngram, order, count))
    if not entries:
        raise DataError(f"{path}: empty dataset")
    try:
        return NGramVocab(entries)
    except DataError as err:
        raise DataError(f"{path}: {err}") from err


def save_model(model: Model, vocab: NGramVocab, path) -> None:
    """Serialize (model, vocab) to the binary format (version 2), atomically.

    The same (model, vocab) always produces identical bytes: entries are
    written in vocabulary order and parameters are quantized to float32. The
    matrix is converted and written a block at a time. DataError, and no
    file written, when a parameter is not finite in float32.
    """
    verify_binding(model, vocab)
    table = vocab.table
    head = _HEADER.pack(
        MAGIC,
        FORMAT_VERSION,
        model.dim,
        _ACTIVATION_CODES[model.activation],
        model.vocab_fingerprint,
        len(vocab),
    ) + _V2_HEAD.pack(_CASE_CODES[model.case_mode], bytes(7), len(table))
    padding = bytes(_data_offset(len(table)) - len(head) - len(table))

    def write(handle) -> None:
        handle.write(head)
        handle.write(table)
        handle.write(padding)
        with np.errstate(over="ignore"):  # a value past the float32 range becomes inf
            for rows, chunk in _blocks(model.bias, model.weights):
                np.copyto(chunk, rows, casting="same_kind")
                if not np.isfinite(chunk).all():
                    raise DataError(f"{path}: cannot save a parameter that is not finite in float32")
                handle.write(chunk)

    _atomic_write(path, write)


def load_model(path) -> tuple[Model, NGramVocab]:
    """Parse a model file (version 2 or 1) back into (Model, NGramVocab).

    The file is opened once. The header both versions share is checked here,
    then a body per version reads the rest; a version-1 body rebuilds the
    n-gram table from its records, so both versions check the table's digest
    and build the vocabulary the same way. The reconstructed vocabulary keeps
    the stored entry order; corpus counts are not persisted and come back as
    zero. A parameter that is not finite is a ModelFormatError. Parameters are
    promoted to float64, into arrays the caller may write.
    """
    try:
        with open(path, "rb") as handle:
            head = _read(handle, _HEADER.size, path, f"expected {_HEADER.size} bytes")
            magic, version, dim, act_code, fingerprint, vocab_size = _HEADER.unpack(head)
            if magic != MAGIC:
                raise ModelFormatError(f"{path}: not a model file")
            if version not in (1, 2):
                raise ModelFormatError(f"{path}: unsupported version {version}")
            if act_code not in _ACTIVATION_NAMES:
                raise _corrupt(path, f"unknown activation code {act_code}")
            if dim == 0:  # no model has d = 0, and the size checks would not bound |V|
                raise _corrupt(path, "dimension 0")
            read_body = _read_v2 if version == 2 else _read_v1
            case_code, vocab, bias, weights = read_body(handle, path, dim, vocab_size, fingerprint)
    except OSError as err:
        raise DataError(f"{path}: {err.strerror or err}") from err
    model = Model(weights, bias, _ACTIVATION_NAMES[act_code], fingerprint, _CASE_NAMES[case_code])
    return model, vocab


def _read_v2(handle, path, dim: int, vocab_size: int, fingerprint: int):
    """The rest of a version-2 file: (case code, vocabulary, bias, weights)."""
    head = _read(handle, _V2_HEAD.size, path, f"expected {_V2_TABLE_START} bytes")
    case_code, reserved, table_len = _V2_HEAD.unpack(head)
    if case_code not in _CASE_NAMES:
        raise _corrupt(path, f"unknown case mode code {case_code}")
    if any(reserved):
        raise _corrupt(path, "non-zero reserved bytes")
    # the size follows from the header alone; checked before allocating
    data_offset = _data_offset(table_len)
    size = data_offset + 4 * dim * (vocab_size + 1)
    found = os.fstat(handle.fileno()).st_size
    if found < size:
        raise _corrupt(path, f"expected {size} bytes")
    if found > size:
        raise _corrupt(path, "trailing data")

    table = _read(handle, table_len, path)
    if any(_read(handle, data_offset - _V2_TABLE_START - table_len, path)):
        raise _corrupt(path, "non-zero padding")
    vocab = _table_vocab(table, vocab_size, fingerprint, path)

    bias = np.empty(dim)
    weights = np.empty((vocab_size, dim))
    for rows, chunk in _blocks(bias, weights):
        if handle.readinto(chunk) != chunk.nbytes:
            raise _corrupt(path, "short read")
        rows[...] = _finite(chunk, path)
    return case_code, vocab, bias, weights


def _read_v1(handle, path, dim: int, vocab_size: int, fingerprint: int):
    """The rest of a version-1 file: (case code, vocabulary, bias, weights).

    The file holds the bias, then per n-gram its order, UTF-8 length, UTF-8
    bytes and row. Each record's length, bytes and order, in that order, are
    its entry of the version-2 n-gram table.
    """
    # every record holds at least its head and a row; checked before allocating
    least = _HEADER.size + 4 * dim + vocab_size * (_RECORD_HEAD.size + 4 * dim)
    if least > os.fstat(handle.fileno()).st_size:
        raise _corrupt(path, f"expected at least {least} bytes")
    data = handle.read()
    offset = 0

    def take(count: int) -> bytes:
        nonlocal offset
        if offset + count > len(data):
            raise _corrupt(path, f"expected {_HEADER.size + offset + count} bytes")
        chunk = data[offset : offset + count]
        offset += count
        return chunk

    bias = take(4 * dim)
    table, rows = [], []
    for _ in range(vocab_size):
        head = take(_RECORD_HEAD.size)
        table += (head[1:], take(_RECORD_HEAD.unpack(head)[1]), head[:1])
        rows.append(take(4 * dim))
    if offset != len(data):
        raise _corrupt(path, "trailing data")
    del data  # so that at most one float32 and one float64 copy of the rows coexist
    vocab = _table_vocab(b"".join(table), vocab_size, fingerprint, path)
    bias = _finite(np.frombuffer(bias, dtype="<f4"), path).astype(np.float64)
    rows = np.frombuffer(b"".join(rows), dtype="<f4").reshape(vocab_size, dim)
    return _CASE_CODES[None], vocab, bias, _finite(rows, path).astype(np.float64)


def _corrupt(path, what: str) -> ModelFormatError:
    return ModelFormatError(f"{path}: corrupt model file ({what})")


def _read(handle, count: int, path, short: str = "short read") -> bytes:
    data = handle.read(count)
    if len(data) != count:
        raise _corrupt(path, short)
    return data


def _table_vocab(table: bytes, vocab_size: int, fingerprint: int, path) -> NGramVocab:
    try:
        return NGramVocab.from_table(table, vocab_size, fingerprint)
    except DataError as err:
        raise _corrupt(path, str(err)) from err


def _finite(values: np.ndarray, path) -> np.ndarray:
    """`values`, float32 parameters read from a model file, unless one is not finite."""
    if not np.isfinite(values).all():
        raise _corrupt(path, "non-finite parameter")
    return values


def _data_offset(table_len: int) -> int:
    """Where a version-2 file's bias starts: after the header and table, 64-byte aligned."""
    return -(-(_V2_TABLE_START + table_len) // _ALIGN) * _ALIGN


def _blocks(bias: np.ndarray, weights: np.ndarray):
    """(rows, chunk) pairs that cover a version-2 file's bias and matrix, in file order.

    `rows` is the bias as one row, then blocks of weight rows; `chunk` is a
    view of the same shape into the one float32 buffer they all stream through.
    """
    dim = len(bias)
    per_block = max(1, _BLOCK_VALUES // max(dim, 1))
    buffer = np.empty(per_block * dim, dtype="<f4")
    yield bias[None, :], buffer[:dim].reshape(1, dim)
    for start in range(0, len(weights), per_block):
        rows = weights[start : start + per_block]
        yield rows, buffer[: rows.size].reshape(rows.shape)


def load_pairs(path) -> PairDataset:
    """Read training pairs: one `phrase1<TAB>phrase2` per line, order preserved."""
    pairs = []
    for lineno, line in enumerate(_read_lines(path), start=1):
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected 2 tab-separated fields")
        if not parts[0].strip() or not parts[1].strip():
            raise DataError(f"{path}:{lineno}: empty phrase")
        pairs.append((parts[0], parts[1]))
    if not pairs:
        raise DataError(f"{path}: empty dataset")
    return PairDataset(pairs)


def load_simset(path, scale: tuple[float, float] = (0.0, 5.0)) -> SimDataset:
    """Read a similarity set, `text1<TAB>text2<TAB>gold` per line, named by the file's stem."""
    lo, hi = scale
    items = []
    for lineno, line in enumerate(_read_lines(path), start=1):
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 tab-separated fields")
        try:
            gold = float(parts[2])
        except ValueError as err:
            raise DataError(f"{path}:{lineno}: bad gold score {parts[2]!r}") from err
        if not lo <= gold <= hi:
            raise DataError(
                f"{path}:{lineno}: gold score {gold} outside scale [{lo}, {hi}]"
            )
        items.append((parts[0], parts[1], gold))
    if not items:
        raise DataError(f"{path}: empty dataset")
    return SimDataset(name=Path(path).stem, items=items, score_scale=scale)


def load_wordlist(path) -> list[str]:
    """Read one token per line, skipping blank lines."""
    words = [line.strip() for line in _read_lines(path) if line.strip()]
    if not words:
        raise DataError(f"{path}: empty dataset")
    return words


def load_reference_vocab(path) -> ReferenceVocab:
    return ReferenceVocab.from_tokens(load_wordlist(path))


def load_groups(path) -> dict[str, str]:
    """Read `dataset<TAB>group` lines into a dataset -> group map, each dataset
    once; a dataset or group name that is empty once stripped is a DataError."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(_read_lines(path), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected 2 tab-separated fields")
        name, group = (part.strip() for part in parts)
        if not name or not group:
            raise DataError(f"{path}:{lineno}: empty {'group' if name else 'dataset'} name")
        if name in out:
            raise DataError(f"{path}:{lineno}: dataset {name!r} is already grouped")
        out[name] = group
    if not out:
        raise DataError(f"{path}: empty dataset")
    return out


def save_curve(curve: TrainingCurve, path) -> None:
    """Curve TSV: `examples_seen<TAB>metric<TAB>value` per point."""
    lines = [f"{n}\t{metric}\t{value:.9g}" for n, metric, value in curve.points]
    payload = ("\n".join(lines) + "\n" if lines else "").encode("utf-8")
    _atomic_write_bytes(path, payload)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"bad boolean {text!r}")


_TRAIN_DEFAULTS = {f.name: f.default for f in fields(TrainConfig)}


def _knob(feeds=None, parse=str, *, default=None, key=None, choices=None, help=None):
    """Declare a RunConfig field: the one place a training setting is written down.

    `feeds` names the TrainConfig field it sets, whose default it takes; a
    setting that feeds none gives its own `default`. The config key is the
    field name unless `key` says otherwise, and the `train` flag is the key
    with dashes for underscores. `parse` reads a config value or a flag,
    and `choices` and `help` describe the flag.
    """
    if feeds is not None:
        default = _TRAIN_DEFAULTS[feeds]
    return field(default=default, metadata={
        "feeds": feeds, "parse": parse, "key": key, "choices": choices, "help": help,
    })


@dataclass
class RunConfig:
    """Everything a training run needs, loadable from flat `key=value` text.

    CLI flags override file values; the effective configuration is echoed to
    stderr before work begins. Each field's metadata (see `_knob`) is what
    the config file, the echo, `to_train_config` and the `train` flags read.
    """

    pairs: str | None = _knob()
    vocab: str | None = _knob(help="vocabulary TSV; omitted = build from the pairs")
    out: str | None = _knob(help="output model file")
    eval_pairs: str | None = _knob(help="dev pairs scored during training")
    curve: str | None = _knob(help="write the training curve TSV here")
    dim: int = _knob("dim", int)
    activation: str = _knob("activation", choices=ACTIVATIONS)
    margin: float = _knob("margin", float)
    reg_lambda: float = _knob("reg_lambda", float, key="lambda", help="L2 coefficient")
    lr: float = _knob("learning_rate", float, help="Adam learning rate")
    batch: int = _knob("batch_size", int)
    sampling: str = _knob("sampling", choices=SAMPLING_MODES)
    epochs: int = _knob("epochs", int)
    seed: int = _knob("seed", int)
    curriculum: bool = _knob(
        "curriculum", _parse_bool, help="keep file order (descending confidence) for epoch 1"
    )
    eval_every: float = _knob(
        "eval_every", float,
        help="curve point interval as a fraction of an epoch, in (0, 1]; 0 records none",
    )
    case: str = _knob("case_mode", choices=CASE_MODES)
    pool: str = _knob("negative_pool", choices=NEGATIVE_POOLS, help="negative candidate pool")
    # Used only when no vocabulary file is given: the vocabulary is then
    # built from the training pairs themselves.
    orders: str = _knob(default="2,3,4", help="used only when --vocab is omitted")
    policy: str = _knob(default="mincount:1", help="used only when --vocab is omitted")

    def to_train_config(self) -> TrainConfig:
        return TrainConfig(**{
            f.metadata["feeds"]: getattr(self, f.name)
            for f in fields(self)
            if f.metadata["feeds"] is not None
        })

    def to_lines(self) -> list[str]:
        out = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if isinstance(value, bool):
                value = "true" if value else "false"
            out.append(f"{config_key(f)}={value}")
        return out

    def validate_paths(self) -> None:
        """Check every input exists and every output directory exists, up front,
        and that no output names something other than a regular file."""
        for key in ("pairs", "vocab", "eval_pairs"):
            value = getattr(self, key)
            if value is not None and not Path(value).is_file():
                raise DataError(f"{key} file not found: {value}")
        for key in ("out", "curve"):
            value = getattr(self, key)
            if value is not None and not Path(value).parent.is_dir():
                raise DataError(f"output directory does not exist for {key}: {value}")
            if value is not None:
                _output_mode(value)


def config_key(knob: Field) -> str:
    """The config-file key of a RunConfig field; its `train` flag is this with dashes."""
    return knob.metadata["key"] or knob.name


def load_run_config(path) -> RunConfig:
    """Parse `key=value` lines; blank lines and #-comments are skipped; an unknown
    key, or a key given twice, is rejected."""
    cfg = RunConfig()
    knobs = {config_key(f): f for f in fields(RunConfig)}
    seen: dict[str, int] = {}  # key -> the line that set it
    for lineno, line in enumerate(_read_lines(path), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise DataError(f"{path}:{lineno}: expected key=value")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in knobs:
            raise DataError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in seen:
            raise DataError(f"{path}:{lineno}: config key {key!r} already set on line {seen[key]}")
        seen[key] = lineno
        try:
            value = knobs[key].metadata["parse"](raw.strip())
        except ValueError as err:
            raise DataError(f"{path}:{lineno}: bad value for {key}: {err}") from err
        setattr(cfg, knobs[key].name, value)
    return cfg
