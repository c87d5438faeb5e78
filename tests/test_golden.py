"""Outputs pinned bit for bit: the digests in tests/golden.json and
tests/golden_cli.json (see make_golden.py)."""

import json

import pytest

import make_golden


def _pinned(path) -> dict[str, str]:
    """The digests `path` holds; a test failure if they were made under other versions."""
    golden = json.loads(path.read_text(encoding="utf-8"))
    here = make_golden.versions()
    if golden["versions"] != here:
        pytest.fail(
            f"tests/{path.name} was made with {golden['versions']}, this run has {here}; "
            "regenerate it with `PYTHONPATH=src python tests/make_golden.py` and declare "
            "each digest that moved in CHANGES.md"
        )
    return golden["digests"]


def test_golden_digests_are_unchanged():
    pinned = _pinned(make_golden.GOLDEN)
    assert make_golden.digests() == pinned


def test_cli_digests_are_unchanged():
    pinned = _pinned(make_golden.GOLDEN_CLI)
    assert make_golden.cli_digests() == pinned


def test_digests_made_under_other_versions_are_refused(monkeypatch):
    here = make_golden.versions()
    for name in ("numpy", "scipy", "blas"):
        monkeypatch.setattr(make_golden, "versions", lambda name=name: {**here, name: "0.0"})
        with pytest.raises(pytest.fail.Exception, match=rf"'{name}': '0\.0'.*make_golden\.py"):
            test_golden_digests_are_unchanged()
