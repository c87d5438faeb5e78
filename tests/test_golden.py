"""Outputs pinned bit for bit: the digests in tests/golden.json (see make_golden.py)."""

import json

import pytest

import make_golden


def test_golden_digests_are_unchanged():
    golden = json.loads(make_golden.GOLDEN.read_text(encoding="utf-8"))
    here = make_golden.versions()
    if golden["versions"] != here:
        pytest.fail(
            f"tests/golden.json was made with {golden['versions']}, this run has {here}; "
            "regenerate it with `PYTHONPATH=src python tests/make_golden.py` and declare "
            "each digest that moved in CHANGES.md"
        )
    assert make_golden.digests() == golden["digests"]


def test_digests_made_under_other_versions_are_refused(monkeypatch):
    here = make_golden.versions()
    for name in ("numpy", "scipy", "blas"):
        monkeypatch.setattr(make_golden, "versions", lambda name=name: {**here, name: "0.0"})
        with pytest.raises(pytest.fail.Exception, match=rf"'{name}': '0\.0'.*make_golden\.py"):
            test_golden_digests_are_unchanged()
