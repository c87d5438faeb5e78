"""File formats: binary model persistence, dataset loaders, run configuration.

The model file is a little-endian stream: a fixed 32-byte header, the bias,
then one variable-length record per vocabulary n-gram. Parameters are stored
at float32; in-memory training uses float64. Writes go through a temp file
plus atomic rename so readers never observe a partial file.
"""

from __future__ import annotations

import os
import struct
import tempfile
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import DataError, ModelFormatError
from .evaluate import ReferenceVocab, SimDataset
from .model import Model, verify_binding
from .train import PairDataset, TrainConfig, TrainingCurve
from .vocab import NGramVocab

MAGIC = b"CHRG"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<4sIIB3xQQ")  # magic, version, d, activation, fingerprint, |V|
_RECORD_HEAD = struct.Struct("<BH")  # order, utf-8 byte length

_ACTIVATION_CODES = {"linear": 0, "tanh": 1}
_ACTIVATION_NAMES = {v: k for k, v in _ACTIVATION_CODES.items()}


def escape_ngram(ngram: str) -> str:
    """Escape for the vocabulary TSV: backslash doubles, space becomes \\s."""
    return ngram.replace("\\", "\\\\").replace(" ", "\\s")


def unescape_ngram(text: str) -> str:
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\":
            if i + 1 >= len(text):
                raise DataError(f"dangling escape in n-gram field {text!r}")
            nxt = text[i + 1]
            if nxt == "\\":
                out.append("\\")
            elif nxt == "s":
                out.append(" ")
            else:
                raise DataError(f"bad escape \\{nxt} in n-gram field {text!r}")
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise DataError(f"{path}: {err.strerror or err}") from err
    except UnicodeDecodeError as err:
        raise DataError(f"{path}: not valid UTF-8 ({err})") from err


def _atomic_write_bytes(path, payload: bytes) -> None:
    target = Path(path)
    try:
        fd, tmp_name = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.")
    except OSError as err:
        raise DataError(f"{path}: {err.strerror or err}") from err
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, target)
    except OSError as err:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise DataError(f"{path}: {err.strerror or err}") from err


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
    """Serialize (model, vocab) to the binary format, atomically.

    The same (model, vocab) always produces identical bytes: entries are
    written in vocabulary order and parameters are quantized to float32.
    """
    verify_binding(model, vocab)
    code = _ACTIVATION_CODES[model.activation]
    chunks = [
        _HEADER.pack(
            MAGIC,
            FORMAT_VERSION,
            model.dim,
            code,
            model.vocab_fingerprint,
            len(vocab),
        ),
        model.bias.astype("<f4").tobytes(),
    ]
    rows = model.weights.astype("<f4")
    for pos, (ngram, order, _) in enumerate(vocab.entries):
        raw = ngram.encode("utf-8")
        chunks.append(_RECORD_HEAD.pack(order, len(raw)))
        chunks.append(raw)
        chunks.append(rows[pos].tobytes())
    _atomic_write_bytes(path, b"".join(chunks))


def load_model(path) -> tuple[Model, NGramVocab]:
    """Parse a model file back into (Model, NGramVocab).

    The reconstructed vocabulary keeps the stored entry order; corpus counts
    are not persisted and come back as zero. Parameters are promoted to
    float64.
    """
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
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"{path}: unsupported version {version}")
    if act_code not in _ACTIVATION_NAMES:
        raise ModelFormatError(f"{path}: corrupt model file (unknown activation code {act_code})")
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


@dataclass
class RunConfig:
    """Everything a training run needs, loadable from flat `key=value` text.

    CLI flags override file values; the effective configuration is echoed to
    stderr before work begins.
    """

    pairs: str | None = None
    vocab: str | None = None
    out: str | None = None
    eval_pairs: str | None = None
    curve: str | None = None
    dim: int = 300
    activation: str = "tanh"
    margin: float = 0.4
    reg_lambda: float = 0.0
    lr: float = 0.001
    batch: int = 100
    sampling: str = "max"
    epochs: int = 1
    seed: int = 0
    curriculum: bool = False
    eval_every: float = 0.25
    case: str = "lower"
    pool: str = "same-side"
    # Used only when no vocabulary file is given: the vocabulary is then
    # built from the training pairs themselves.
    orders: str = "2,3,4"
    policy: str = "mincount:1"

    def to_train_config(self) -> TrainConfig:
        return TrainConfig(
            dim=self.dim,
            activation=self.activation,
            margin=self.margin,
            reg_lambda=self.reg_lambda,
            learning_rate=self.lr,
            batch_size=self.batch,
            sampling=self.sampling,
            epochs=self.epochs,
            seed=self.seed,
            curriculum=self.curriculum,
            case_mode=self.case,
            eval_every=self.eval_every,
            negative_pool=self.pool,
        )

    def to_lines(self) -> list[str]:
        out = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            key = "lambda" if f.name == "reg_lambda" else f.name
            if isinstance(value, bool):
                value = "true" if value else "false"
            out.append(f"{key}={value}")
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


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"bad boolean {text!r}")


_CONFIG_PARSERS = {
    "pairs": str,
    "vocab": str,
    "out": str,
    "eval_pairs": str,
    "curve": str,
    "dim": int,
    "activation": str,
    "margin": float,
    "lambda": float,
    "lr": float,
    "batch": int,
    "sampling": str,
    "epochs": int,
    "seed": int,
    "curriculum": _parse_bool,
    "eval_every": float,
    "case": str,
    "pool": str,
    "orders": str,
    "policy": str,
}

_CONFIG_ATTRS = {key: ("reg_lambda" if key == "lambda" else key) for key in _CONFIG_PARSERS}


def load_run_config(path) -> RunConfig:
    """Parse `key=value` lines; blank lines and #-comments are skipped; unknown keys are rejected."""
    cfg = RunConfig()
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise DataError(f"{path}:{lineno}: expected key=value")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _CONFIG_PARSERS:
            raise DataError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            value = _CONFIG_PARSERS[key](raw.strip())
        except ValueError as err:
            raise DataError(f"{path}:{lineno}: bad value for {key}: {err}") from err
        setattr(cfg, _CONFIG_ATTRS[key], value)
    return cfg
