"""Tests for the content-addressed compile cache."""

import pickle

import pytest

from repro.npb import COMPILE_CACHE, REGISTRY, CompileCache
from repro.npb import cache as cache_mod
from repro.npb.cache import cache_root, compiler_fingerprint

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
    """A fresh cache."""
    return CompileCache()


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
        return COMPILE_CACHE.stats()["misses"]

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


def test_reference_switch_keeps_key_and_generated_code(monkeypatch):
    """``REPRO_HOTPATH`` picks the engine a VM runs and nothing else:
    every setting builds the same image, generated code included, under
    the same cache key."""
    from repro.hotpath import reset_for_tests
    keys, sources = {}, {}
    for setting in ("compile", "", None):
        if setting is None:
            monkeypatch.delenv("REPRO_HOTPATH", raising=False)
        else:
            monkeypatch.setenv("REPRO_HOTPATH", setting)
        reset_for_tests()
        keys[setting] = CompileCache.key_for(SRC_A)
        sources[setting] = [f.gen_src for f in CompileCache()
                            .get_or_compile(SRC_A).funcs]
    assert keys[None] == keys["compile"] == keys[""]
    assert sources[None] == sources["compile"] == sources[""]
    assert all(gs is not None for gs in sources[""])


def test_fingerprint_is_stable_and_hexlike():
    fp = compiler_fingerprint()
    assert fp == compiler_fingerprint()
    assert len(fp) == 64 and int(fp, 16) >= 0


def test_cache_dir_env_respected(tmp_path, monkeypatch):
    """``REPRO_CACHE_DIR`` moves the on-disk root the memo store lives
    under; compiling writes nothing there (the cache is memory only)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert cache_root() == tmp_path
    CompileCache().get_or_compile(SRC_A)
    assert list(tmp_path.iterdir()) == []


def test_clear_drops_memory(mem_cache):
    mem_cache.get_or_compile(SRC_A)
    mem_cache.clear()
    assert mem_cache.stats()["entries"] == 0
    mem_cache.get_or_compile(SRC_A)
    assert mem_cache.stats()["misses"] == 2


def test_pickled_image_excludes_translation_cache(mem_cache):
    """A pickled image must not carry the interpreter's per-Code fast
    stream (derived state, rebuilt on first execution)."""
    from repro.interp.interpreter import _translate
    image = mem_cache.get_or_compile(SRC_A)
    _translate(image.funcs[0])                  # populate the cache...
    assert hasattr(image.funcs[0], "_fast")
    clone = pickle.loads(pickle.dumps(image))   # ...and it doesn't travel
    assert not hasattr(clone.funcs[0], "_fast")
