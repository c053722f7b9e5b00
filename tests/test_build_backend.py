"""The offline in-tree PEP 517/660 backend produces valid wheels."""
import os
import sys
import zipfile

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import _repro_build as backend  # noqa: E402


def test_editable_wheel_contains_pth(tmp_path):
    name = backend.build_editable(str(tmp_path))
    assert name.endswith(".whl")
    with zipfile.ZipFile(tmp_path / name) as zf:
        names = zf.namelist()
        pth = [n for n in names if n.endswith(".pth")]
        assert pth
        target = zf.read(pth[0]).decode().strip()
        assert target.endswith("src")
        assert any(n.endswith("METADATA") for n in names)
        assert any(n.endswith("RECORD") for n in names)


def test_regular_wheel_contains_package(tmp_path):
    name = backend.build_wheel(str(tmp_path))
    with zipfile.ZipFile(tmp_path / name) as zf:
        names = zf.namelist()
        assert "repro/__init__.py" in names
        assert "repro/core/qdtree.py" in names


def test_requires_hooks_empty():
    assert backend.get_requires_for_build_wheel() == []
    assert backend.get_requires_for_build_editable() == []
    assert backend.get_requires_for_build_sdist() == []


def test_record_hash_format():
    h = backend._record_hash(b"hello")
    assert h.startswith("sha256=") and "=" not in h[len("sha256=") :]
