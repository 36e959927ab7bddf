"""Tests for the content-addressed compile cache."""

import pickle

import pytest

from repro.npb import COMPILE_CACHE, REGISTRY, CompileCache
from repro.npb import cache as cache_mod
from repro.npb.cache import compiler_fingerprint

SRC_A = """
double x;
int main() {
  x = 1.5;
  return 0;
}
"""

SRC_B = SRC_A.replace("1.5", "2.5")


@pytest.fixture
def mem_cache():
    """A fresh cache with the disk layer off."""
    return CompileCache(disk=False)


def test_repeat_compile_hits(mem_cache):
    a = mem_cache.get_or_compile(SRC_A)
    b = mem_cache.get_or_compile(SRC_A)
    assert a is b
    assert mem_cache.stats()["hits"] == 1
    assert mem_cache.stats()["misses"] == 1


def test_source_change_misses(mem_cache):
    mem_cache.get_or_compile(SRC_A)
    mem_cache.get_or_compile(SRC_B)
    assert mem_cache.stats()["misses"] == 2
    assert mem_cache.stats()["hits"] == 0


def test_kernel_param_change_misses():
    def fresh_compiles():
        s = COMPILE_CACHE.stats()
        return s["misses"] + s["disk_hits"]   # i.e. not in memory

    first = REGISTRY["cg"].compile("test")
    before = fresh_compiles()
    again = REGISTRY["cg"].compile("test")
    assert first is again                 # identical params: memory hit
    assert fresh_compiles() == before
    other = REGISTRY["cg"].compile("test", n=19)
    assert other is not first             # param override: fresh image
    assert fresh_compiles() == before + 1


def test_compiler_fingerprint_invalidates_key(monkeypatch):
    k1 = CompileCache.key_for(SRC_A)
    monkeypatch.setattr(cache_mod, "_fingerprint",
                        "0" * 64)          # a different compiler version
    k2 = CompileCache.key_for(SRC_A)
    assert k1 != k2


def test_hotpath_tier_flags_change_key(monkeypatch):
    """``REPRO_HOTPATH`` shapes the image (``gen_src`` or none) without
    touching any compiler source, so generated-code and
    reference-interpreter images must map to different cache keys --
    and unset must alias ``compile``, its semantic equivalent."""
    from repro.hotpath import reset_for_tests
    keys = {}
    for tiers in ("compile", "", None):
        if tiers is None:
            monkeypatch.delenv("REPRO_HOTPATH", raising=False)
        else:
            monkeypatch.setenv("REPRO_HOTPATH", tiers)
        reset_for_tests()
        keys[tiers] = CompileCache.key_for(SRC_A)
    assert keys[None] == keys["compile"]
    assert keys["compile"] != keys[""]


def test_fingerprint_is_stable_and_hexlike():
    fp = compiler_fingerprint()
    assert fp == compiler_fingerprint()
    assert len(fp) == 64 and int(fp, 16) >= 0


def test_disk_layer_round_trip(tmp_path):
    writer = CompileCache(disk_dir=tmp_path)
    image = writer.get_or_compile(SRC_A)
    assert len(list(tmp_path.glob("*.img"))) == 1
    reader = CompileCache(disk_dir=tmp_path)    # cold in-memory layer
    loaded = reader.get_or_compile(SRC_A)
    assert reader.stats() == {"hits": 0, "disk_hits": 1, "misses": 0,
                              "entries": 1}
    assert loaded.n_instructions == image.n_instructions
    assert [c.instrs for c in loaded.funcs] == [c.instrs for c in image.funcs]


# b"not a pickle" raises UnpicklingError, b"garbage\n" ValueError --
# corruption must fall back to a compile whatever pickle throws.
@pytest.mark.parametrize("junk", [b"not a pickle", b"garbage\n", b""])
def test_corrupt_disk_entry_falls_back_to_compile(tmp_path, junk):
    writer = CompileCache(disk_dir=tmp_path)
    writer.get_or_compile(SRC_A)
    entry = next(tmp_path.glob("*.img"))
    entry.write_bytes(junk)
    reader = CompileCache(disk_dir=tmp_path)
    image = reader.get_or_compile(SRC_A)
    assert reader.stats()["misses"] == 1 and reader.stats()["disk_hits"] == 0
    assert image.n_instructions > 0


def test_disk_layer_disabled_by_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    c = CompileCache()
    c.get_or_compile(SRC_A)
    assert list(tmp_path.rglob("*.img")) == []


def test_cache_dir_env_respected(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    CompileCache().get_or_compile(SRC_A)
    assert len(list((tmp_path / "compile").glob("*.img"))) == 1


def test_clear_drops_memory_and_optionally_disk(tmp_path):
    c = CompileCache(disk_dir=tmp_path)
    c.get_or_compile(SRC_A)
    c.clear()
    assert c.stats()["entries"] == 0
    assert len(list(tmp_path.glob("*.img"))) == 1   # disk survives
    c.clear(disk=True)
    assert list(tmp_path.glob("*.img")) == []


def test_pickled_image_excludes_translation_cache(tmp_path):
    """Disk entries must not carry the interpreter's per-Code fast
    stream (derived state, rebuilt on first execution)."""
    from repro.interp.interpreter import _translate
    c = CompileCache(disk_dir=tmp_path)
    image = c.get_or_compile(SRC_A)
    _translate(image.funcs[0])                  # populate the cache...
    assert hasattr(image.funcs[0], "_fast")
    clone = pickle.loads(pickle.dumps(image))   # ...and it doesn't travel
    assert not hasattr(clone.funcs[0], "_fast")
