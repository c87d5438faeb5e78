"""Source hygiene: no module of the package imports a name it never uses or
defines a private name nothing reads, only the single-query path calls the
per-text `encode`, the case rule is applied in a few named places, only
`io._atomic_write` writes a file, SciPy matrices are made in a few named
places, and every training setting is one the command line can set.

`__init__.py` is exempt: its imports are the package's re-exports.
"""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

from charngram import RunConfig, TrainConfig

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "charngram"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """The names `source` imports and never reads, with the line of each import."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    assert _unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_the_check_names_each_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Iterator, Sequence\n"
        "def f(x: Sequence) -> None:\n"
        "    return np.zeros(1)\n"
    )
    assert _unused_imports(source) == ["Iterator (line 4)", "os (line 2)"]


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    """The private names each module of `sources` defines at its top level and no module reads."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, t.id) for t in targets if isinstance(t, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(
        f"{module}: {name}" for module, name in defined
        if name.startswith("_") and not name.startswith("__") and name not in read
    )


def test_every_private_module_name_is_read_somewhere_in_the_package():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert _unread_private_names(sources) == []


def test_the_check_names_each_unread_private_name():
    sources = {
        "a.py": "_USED = 1\n_LEFT: int = 2\ndef _helper():\n    return _USED\nclass _Gone:\n    pass\n",
        "b.py": "from . import a\nfrom .a import _helper\n_helper()\n__all__ = []\n",
    }
    assert _unread_private_names(sources) == ["a.py: _Gone", "a.py: _LEFT"]


def _callers(sources: dict[str, str], picks) -> list[str]:
    """Each function of `sources`, as `module: name`, holding a call that `picks(call, aliases)`.

    `aliases` maps each name the module's imports bind to the dotted name it
    stands for (`mv` -> `os.rename` after `from os import rename as mv`). A
    call outside any function is named `module: <module>`.
    """
    callers = set()

    def visit(node: ast.AST, module: str, scope: str, aliases: dict[str, str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        elif isinstance(node, ast.Call) and picks(node, aliases):
            callers.add(f"{module}: {scope}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope, aliases)

    for module, source in sources.items():
        tree = ast.parse(source)
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                aliases.update({a.asname: a.name for a in node.names if a.asname})
            elif isinstance(node, ast.ImportFrom) and node.module:
                aliases.update({a.asname or a.name: f"{node.module}.{a.name}" for a in node.names})
        visit(tree, module, "<module>", aliases)
    return sorted(callers)


# the single-query path; every batch goes through `encode_batch`
PER_TEXT_ENCODE_CALLERS = ["neighbors.py: nearest_neighbors"]

# the batch door, the single query, the two that need each text's normalized
# form (de-duplication, phrase identity), and the corpus count
NORMALIZE_CALLERS = [
    "model.py: encode_matrix",
    "neighbors.py: build_working_vocab",
    "neighbors.py: nearest_neighbors",
    "train.py: _encode_pairs",
    "vocab.py: build_vocab",
]


def _callers_by_name(sources: dict[str, str], name: str) -> list[str]:
    """Each function of `sources`, as `module: name`, that calls `name` by name.

    A call outside any function is named `module: <module>`; a method call
    such as `text.encode(...)` is not counted.
    """
    return _callers(
        sources, lambda call, _: isinstance(call.func, ast.Name) and call.func.id == name
    )


def test_only_the_single_query_path_calls_the_per_text_encode():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert _callers_by_name(sources, "encode") == PER_TEXT_ENCODE_CALLERS


def test_the_check_names_each_per_text_encode_caller():
    sources = {
        "a.py": (
            "from .vocab import encode\n"
            "def batch(seqs, vocab):\n"
            "    def one(seq):\n"
            "        return encode(seq, vocab)\n"
            "    return [one(s) for s in seqs], 'x'.encode('utf-8')\n"
            "FIRST = encode(' a ', None)\n"
        ),
        "b.py": "def untouched(text):\n    return text.encode('utf-8')\n",
    }
    assert _callers_by_name(sources, "encode") == ["a.py: <module>", "a.py: one"]


def test_only_the_named_functions_normalize_text():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert _callers_by_name(sources, "normalize") == NORMALIZE_CALLERS


def test_the_check_names_each_normalize_caller():
    sources = {
        "a.py": (
            "import unicodedata\n"
            "from .vocab import normalize\n"
            "def scores(texts, model):\n"
            "    return [normalize(t, model.input_case_mode) for t in texts]\n"
            "def folded(text):\n"
            "    return unicodedata.normalize('NFC', text)\n"
            "BLANK = normalize('')\n"
        ),
        "b.py": "def untouched(path):\n    return path.normalize()\n",
    }
    assert _callers_by_name(sources, "normalize") == ["a.py: <module>", "a.py: scores"]


# the one writer: symlinks, non-regular targets and file modes are its rules
FILE_WRITERS = ["io.py: _atomic_write"]

_WRITE_CALLS = {"tempfile.mkstemp", "os.replace", "os.rename"}
_WRITE_METHODS = {"write_text", "write_bytes"}
_OPEN_CALLS = {"open", "io.open", "os.fdopen"}  # their mode is the second argument


def _dotted(func: ast.expr, aliases: dict[str, str]) -> str | None:
    """The dotted name a call's function stands for, its first part resolved
    through `aliases`, or None when it is not a chain of names."""
    parts = []
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if not isinstance(func, ast.Name):
        return None
    return ".".join([aliases.get(func.id, func.id), *reversed(parts)])


def _writes(call: ast.Call, aliases: dict[str, str]) -> bool:
    """Whether `call` makes, renames or writes a file.

    That is a call of `tempfile.mkstemp`, `os.replace` or `os.rename` under
    whatever name an import binds them to; of a `write_text` or `write_bytes`
    method (`Path`'s); or of `open`, `io.open`, `os.fdopen` or an `.open`
    method (`Path.open`, mode first) whose mode is not a str constant free of
    "w", "a", "x" and "+".
    """
    func = call.func
    name = _dotted(func, aliases)
    method = func.attr if isinstance(func, ast.Attribute) else None
    if name in _WRITE_CALLS or method in _WRITE_METHODS:
        return True
    if name not in _OPEN_CALLS and method != "open":
        return False
    position = 1 if name in _OPEN_CALLS else 0
    modes = [k.value for k in call.keywords if k.arg == "mode"] + call.args[position:position + 1]
    if not modes:
        return False  # read, the default
    mode = modes[0]
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def test_only_the_atomic_writer_writes_files():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert _callers(sources, _writes) == FILE_WRITERS


def test_the_check_names_each_file_writer():
    sources = {
        "a.py": (
            "import os\n"
            "import tempfile as tf\n"
            "from os import rename as mv\n"
            "from pathlib import Path\n"
            "def keep(path):\n"
            "    fd, name = tf.mkstemp()\n"
            "    os.replace(name, path)\n"
            "def move(a, b):\n"
            "    mv(a, b)\n"
            "def read(path):\n"
            "    with open(path, 'rb') as f, Path(path).open() as g, open(path) as h:\n"
            "        return f.read(), g, h, 'a'.replace('a', 'b'), os.fdopen(3, mode='r')\n"
            "def dump(path, mode):\n"
            "    open(path, mode=mode).close()\n"
            "def note(path):\n"
            "    Path(path).open('a').close()\n"
            "Path('x').write_text('y')\n"
        ),
        "b.py": "def update(path):\n    return open(path, 'r+')\n",
    }
    assert _callers(sources, _writes) == [
        "a.py: <module>", "a.py: dump", "a.py: keep", "a.py: move", "a.py: note", "b.py: update",
    ]


# the batch door, the backward layout, the phrase table's CSR copy, and the plan's
# batches, which the gradient audit runs too: a training step makes none
SPARSE_BUILDERS = [
    "model.py: column_layout",
    "model.py: encode_matrix",
    "train.py: _encode_pairs",
    "train.py: _plan_batches",
]

_SPARSE_CALLS = {"scipy.sparse.csr_matrix", "scipy.sparse.csc_matrix"}


def _builds_sparse(call: ast.Call, aliases: dict[str, str]) -> bool:
    """Whether `call` makes a SciPy matrix.

    That is a call of `scipy.sparse.csr_matrix` or `csc_matrix` under
    whatever name an import binds them or the module to, or of a `.tocsr()`
    or `.tocsc()` method. Indexing a matrix (`counts[rows]`) makes one too,
    but it is not a call and is not seen.
    """
    func = call.func
    return _dotted(func, aliases) in _SPARSE_CALLS or (
        isinstance(func, ast.Attribute) and func.attr in ("tocsr", "tocsc")
    )


def test_only_the_named_functions_make_scipy_matrices():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert _callers(sources, _builds_sparse) == SPARSE_BUILDERS


def test_the_check_names_each_scipy_matrix_maker():
    sources = {
        "a.py": (
            "import scipy\n"
            "import scipy.sparse as ss\n"
            "from scipy import sparse\n"
            "from scipy.sparse import csc_matrix as C\n"
            "def rows(x):\n"
            "    return sparse.csr_matrix(x)\n"
            "def cols(x):\n"
            "    return ss.csc_matrix(x), C(x)\n"
            "def full(x):\n"
            "    return scipy.sparse.csr_matrix(x)\n"
            "def convert(x):\n"
            "    return x.tocsc()\n"
            "def picked(x, i):\n"
            "    return x[i], sparse.coo_matrix(x), x.tocoo(), sparse.issparse(x)\n"
            "def typed(x) -> sparse.csr_matrix:\n"
            "    return x\n"
            "EMPTY = sparse.csc_matrix((0, 0))\n"
        ),
        "b.py": "def flip(x):\n    return x.T.tocsr()\n",
    }
    assert _callers(sources, _builds_sparse) == [
        "a.py: <module>", "a.py: cols", "a.py: convert", "a.py: full", "a.py: rows", "b.py: flip",
    ]


def test_only_the_planner_makes_training_batches():
    # training and the gradient audit run one batch form, the planned one
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert _callers_by_name(sources, "_Batch") == ["train.py: _plan_batches"]


def test_every_train_config_field_is_fed_by_a_run_config_knob():
    # a field no knob feeds is a setting only Python callers can change
    fed = {knob.metadata["feeds"] for knob in fields(RunConfig)}
    assert [f.name for f in fields(TrainConfig) if f.name not in fed] == []
