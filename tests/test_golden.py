"""Pinned searches and kernel sources stay identical to their golden files
(see golden.py)."""

import shutil

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


def test_main_writes_only_what_changed(tmp_path, monkeypatch, capsys):
    # a kernel-only re-pin under another Python or numpy version leaves
    # the traces alone, version lines included
    golden_dir = tmp_path / "golden"
    shutil.copytree(golden.GOLDEN_DIR, golden_dir)
    monkeypatch.setattr(golden, "GOLDEN_DIR", golden_dir)
    csvs = sorted(golden_dir.glob("*.csv"))
    for path in csvs:
        body = path.read_text().split("\n", 1)[1]
        path.write_text("# recorded with Python 0.0, numpy 0.0\n" + body)
    kept = {path: path.read_bytes() for path in csvs[1:]}
    with open(csvs[0], "a") as fh:
        fh.write("stale\n")
    kernels = golden.kernel_file().read_text()
    first, rest = kernels.split("\n", 1)
    label = first.split("  ", 1)[1]
    golden.kernel_file().write_text(f"{'0' * 64}  {label}\n{rest}")

    assert golden.main() == 0
    assert {path: path.read_bytes() for path in csvs[1:]} == kept
    assert csvs[0].read_text() == (golden.version_line()
                                   + golden.render(csvs[0].stem))
    assert golden.kernel_file().read_text() == kernels
    assert capsys.readouterr().out.splitlines() == [
        f"wrote {csvs[0]}", f"wrote {golden.kernel_file()}",
        f"  changed {label}"]
