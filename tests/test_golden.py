"""Pinned searches and kernel sources stay identical to their golden files
(see golden.py)."""

import pytest

import golden


@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_search_matches_golden_file(name):
    recorded = golden.path_of(name).read_text()
    versions, expected = recorded.split("\n", 1)
    assert golden.render(name) == expected, (
        f"{name} differs from its golden file, {versions[2:]}; this run "
        f"uses {golden.version_line()[2:-1]}")


@pytest.mark.parametrize("name", sorted(golden.KERNEL_PROBLEMS))
def test_kernel_sources_match_golden_hashes(name):
    want = {label: digest
            for label, digest in golden.read_kernel_hashes().items()
            if label.split()[0] == name}
    got = golden.kernel_hashes(name)
    differ = sorted(label for label in want.keys() | got.keys()
                    if want.get(label) != got.get(label))
    assert not differ, f"kernel sources differ from kernels.sha256: {differ}"
