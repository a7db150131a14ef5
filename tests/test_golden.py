"""Pinned searches stay bit-identical to their golden files (see golden.py)."""

import pytest

import golden


@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_search_matches_golden_file(name):
    recorded = golden.path_of(name).read_text()
    versions, expected = recorded.split("\n", 1)
    assert golden.render(name) == expected, (
        f"{name} differs from its golden file, {versions[2:]}; this run "
        f"uses {golden.version_line()[2:-1]}")
