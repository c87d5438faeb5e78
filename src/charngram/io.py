"""File formats: binary model persistence, dataset loaders, run configuration.

A model file (format version 2) is little-endian: a 48-byte header, the
n-gram table in the byte layout the vocabulary fingerprint hashes (see
`charngram.vocab`), zero padding to a multiple of 64 bytes, then the float32
bias and the float32 (|V|, d) matrix. Saving and loading stream the bias and
matrix through one fixed-size float32 buffer, so neither holds a copy of the
whole file. Version-1 files (a 32-byte header, the bias, then one record per
n-gram) still load. Parameters are stored at float32; in-memory training uses
float64. Writes go through a temp file plus atomic rename so readers never
observe a partial file.
"""

from __future__ import annotations

import contextlib
import os
import re
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

_HEADER = struct.Struct("<4sIIB3xQQ")  # magic, version, d, activation, fingerprint, |V|
_RECORD_HEAD = struct.Struct("<BH")  # version 1: order, utf-8 byte length
# version 2: the version-1 header, then case mode, 7 reserved bytes, table byte length
_HEADER_V2 = struct.Struct("<4sIIB3xQQB7sQ")
_V2_PREFIX = MAGIC + FORMAT_VERSION.to_bytes(4, "little")
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


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise DataError(f"{path}: {err.strerror or err}") from err
    except UnicodeDecodeError as err:
        raise DataError(f"{path}: not valid UTF-8 ({err})") from err


def _atomic_write(path, write: Callable[[BinaryIO], object]) -> None:
    """Call `write` on a temp file beside `path`, sync it, then rename it over `path`."""
    target = Path(path)
    try:
        fd, tmp_name = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.")
    except OSError as err:
        raise DataError(f"{path}: {err.strerror or err}") from err
    try:
        with os.fdopen(fd, "wb") as handle:
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
    lines = [
        f"{escape_ngram(ngram)}\t{order}\t{count}"
        for ngram, order, count in vocab.entries
    ]
    payload = ("\n".join(lines) + "\n" if lines else "").encode("utf-8")
    _atomic_write_bytes(path, payload)


def load_vocab(path) -> NGramVocab:
    """Read a vocabulary TSV, preserving the stored entry order."""
    entries = []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
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
    matrix is converted and written a block at a time.
    """
    verify_binding(model, vocab)
    table = vocab.table
    head = _HEADER_V2.pack(
        MAGIC,
        FORMAT_VERSION,
        model.dim,
        _ACTIVATION_CODES[model.activation],
        model.vocab_fingerprint,
        len(vocab),
        _CASE_CODES[model.case_mode],
        bytes(7),
        len(table),
    )
    padding = bytes(_data_offset(len(table)) - _HEADER_V2.size - len(table))

    def write(handle) -> None:
        handle.write(head)
        handle.write(table)
        handle.write(padding)
        for rows, chunk in _blocks(model.bias, model.weights):
            np.copyto(chunk, rows, casting="same_kind")
            handle.write(chunk)

    _atomic_write(path, write)


def load_model(path) -> tuple[Model, NGramVocab]:
    """Parse a model file (version 2 or 1) back into (Model, NGramVocab).

    The reconstructed vocabulary keeps the stored entry order; corpus counts
    are not persisted and come back as zero. Parameters are promoted to
    float64, into arrays the caller may write.
    """
    try:
        with open(path, "rb") as handle:
            head = handle.read(_HEADER_V2.size)
            if head[:8] == _V2_PREFIX:
                return _load_v2(handle, head, path)
    except OSError as err:
        raise DataError(f"{path}: {err.strerror or err}") from err
    return _load_v1(path)


def _load_v2(handle, head: bytes, path) -> tuple[Model, NGramVocab]:
    if len(head) < _HEADER_V2.size:
        raise ModelFormatError(f"{path}: corrupt model file (expected {_HEADER_V2.size} bytes)")
    _, _, dim, act_code, fingerprint, vocab_size, case_code, reserved, table_len = (
        _HEADER_V2.unpack(head)
    )
    if act_code not in _ACTIVATION_NAMES:
        raise ModelFormatError(f"{path}: corrupt model file (unknown activation code {act_code})")
    if case_code not in _CASE_NAMES:
        raise ModelFormatError(f"{path}: corrupt model file (unknown case mode code {case_code})")
    if any(reserved):
        raise ModelFormatError(f"{path}: corrupt model file (non-zero reserved bytes)")
    if dim == 0:  # no model has d = 0, and the size check below would not bound |V|
        raise ModelFormatError(f"{path}: corrupt model file (dimension 0)")
    # the size follows from the header alone; checked before allocating
    data_offset = _data_offset(table_len)
    size = data_offset + 4 * dim * (vocab_size + 1)
    found = os.fstat(handle.fileno()).st_size
    if found < size:
        raise ModelFormatError(f"{path}: corrupt model file (expected {size} bytes)")
    if found > size:
        raise ModelFormatError(f"{path}: corrupt model file (trailing data)")

    table = _read(handle, table_len, path)
    if any(_read(handle, data_offset - _HEADER_V2.size - table_len, path)):
        raise ModelFormatError(f"{path}: corrupt model file (non-zero padding)")
    try:
        vocab = NGramVocab.from_table(table, vocab_size, fingerprint)
    except DataError as err:
        raise ModelFormatError(f"{path}: corrupt model file ({err})") from err

    bias = np.empty(dim)
    weights = np.empty((vocab_size, dim))
    for rows, chunk in _blocks(bias, weights):
        if handle.readinto(chunk) != chunk.nbytes:
            raise ModelFormatError(f"{path}: corrupt model file (short read)")
        rows[...] = chunk
    model = Model(
        weights=weights,
        bias=bias,
        activation=_ACTIVATION_NAMES[act_code],
        vocab_fingerprint=fingerprint,
        case_mode=_CASE_NAMES[case_code],
    )
    return model, vocab


def _read(handle, count: int, path) -> bytes:
    data = handle.read(count)
    if len(data) != count:
        raise ModelFormatError(f"{path}: corrupt model file (short read)")
    return data


def _data_offset(table_len: int) -> int:
    """Where a version-2 file's bias starts: after the header and table, 64-byte aligned."""
    return -(-(_HEADER_V2.size + table_len) // _ALIGN) * _ALIGN


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


def _load_v1(path) -> tuple[Model, NGramVocab]:
    """Parse a version-1 file: a header, the bias, then one record per n-gram."""
    try:
        data = Path(path).read_bytes()
    except OSError as err:
        raise DataError(f"{path}: {err.strerror or err}") from err

    offset = 0

    def take(count: int) -> bytes:
        nonlocal offset
        if offset + count > len(data):
            raise ModelFormatError(
                f"{path}: corrupt model file (expected {offset + count} bytes)"
            )
        chunk = data[offset : offset + count]
        offset += count
        return chunk

    header = take(_HEADER.size)
    magic, version, dim, act_code, fingerprint, vocab_size = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ModelFormatError(f"{path}: not a model file")
    if version != 1:
        raise ModelFormatError(f"{path}: unsupported version {version}")
    if act_code not in _ACTIVATION_NAMES:
        raise ModelFormatError(f"{path}: corrupt model file (unknown activation code {act_code})")
    if dim == 0:
        raise ModelFormatError(f"{path}: corrupt model file (dimension 0)")
    # every record holds at least its head and a row; checked before allocating
    least = _HEADER.size + 4 * dim + vocab_size * (_RECORD_HEAD.size + 4 * dim)
    if least > len(data):
        raise ModelFormatError(f"{path}: corrupt model file (expected at least {least} bytes)")

    bias = np.frombuffer(take(4 * dim), dtype="<f4").astype(np.float64)
    entries = []
    rows = []
    for pos in range(vocab_size):
        order, byte_len = _RECORD_HEAD.unpack(take(_RECORD_HEAD.size))
        try:
            ngram = take(byte_len).decode("utf-8")
        except UnicodeDecodeError as err:
            raise ModelFormatError(f"{path}: corrupt model file (bad n-gram bytes)") from err
        rows.append(take(4 * dim))
        entries.append((ngram, order, 0))
    if offset != len(data):
        raise ModelFormatError(f"{path}: corrupt model file (trailing data)")
    del data  # so that at most one float32 and one float64 copy of the rows coexist
    rows = b"".join(rows)
    rows = np.frombuffer(rows, dtype="<f4").reshape(vocab_size, dim).astype(np.float64)

    try:
        vocab = NGramVocab(entries)
    except DataError as err:
        raise ModelFormatError(f"{path}: corrupt model file ({err})") from err
    if vocab.fingerprint != fingerprint:
        raise ModelFormatError(f"{path}: corrupt model file (vocabulary fingerprint mismatch)")

    model = Model(
        weights=rows, bias=bias, activation=_ACTIVATION_NAMES[act_code], vocab_fingerprint=fingerprint
    )
    return model, vocab


def load_pairs(path) -> PairDataset:
    """Read training pairs: one `phrase1<TAB>phrase2` per line, order preserved."""
    pairs = []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected 2 tab-separated fields")
        if not parts[0].strip() or not parts[1].strip():
            raise DataError(f"{path}:{lineno}: empty phrase")
        pairs.append((parts[0], parts[1]))
    if not pairs:
        raise DataError(f"{path}: empty dataset")
    return PairDataset(pairs)


def load_simset(path, scale: tuple[float, float] = (0.0, 5.0), name: str | None = None) -> SimDataset:
    """Read a similarity set: `text1<TAB>text2<TAB>gold` per line."""
    lo, hi = scale
    items = []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
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
    return SimDataset(name=name or Path(path).stem, items=items, score_scale=scale)


def load_wordlist(path) -> list[str]:
    """Read one token per line, skipping blank lines."""
    words = [line.strip() for line in _read_text(path).splitlines() if line.strip()]
    if not words:
        raise DataError(f"{path}: empty dataset")
    return words


def load_reference_vocab(path) -> ReferenceVocab:
    return ReferenceVocab.from_tokens(load_wordlist(path))


def load_groups(path) -> dict[str, str]:
    """Read `dataset<TAB>group` lines into a dataset -> group map."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected 2 tab-separated fields")
        out[parts[0].strip()] = parts[1].strip()
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
        """Check every input exists and every output directory exists, up front."""
        for key in ("pairs", "vocab", "eval_pairs"):
            value = getattr(self, key)
            if value is not None and not Path(value).is_file():
                raise DataError(f"{key} file not found: {value}")
        for key in ("out", "curve"):
            value = getattr(self, key)
            if value is not None and not Path(value).parent.is_dir():
                raise DataError(f"output directory does not exist for {key}: {value}")


def config_key(knob: Field) -> str:
    """The config-file key of a RunConfig field; its `train` flag is this with dashes."""
    return knob.metadata["key"] or knob.name


def load_run_config(path) -> RunConfig:
    """Parse `key=value` lines; blank lines and #-comments are skipped; unknown keys are rejected."""
    cfg = RunConfig()
    knobs = {config_key(f): f for f in fields(RunConfig)}
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise DataError(f"{path}:{lineno}: expected key=value")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in knobs:
            raise DataError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            value = knobs[key].metadata["parse"](raw.strip())
        except ValueError as err:
            raise DataError(f"{path}:{lineno}: bad value for {key}: {err}") from err
        setattr(cfg, knobs[key].name, value)
    return cfg
