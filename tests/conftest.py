import importlib.util
import os
import resource
import sys
from pathlib import Path

import hypothesis
import pytest

hypothesis.settings.register_profile(
    "default", max_examples=40, deadline=None, derandomize=True
)
hypothesis.settings.register_profile(
    "thorough", max_examples=300, deadline=None
)
hypothesis.settings.load_profile("default")


def child_env() -> dict:
    """The environment for a child `python -m coidem.cli`: this checkout's
    `src` first on PYTHONPATH, since pyproject's `pythonpath` reaches only the
    pytest process itself."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + rest if rest else "")}


@pytest.fixture
def bench_tracing():
    """bench/tracing.py, loaded from its file as the benchmark loads it."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def cold_caches(monkeypatch):
    """Every process-wide cache of `coidem` emptied and the lattice memo
    swapped for an empty one, so no layer is answered by what an earlier test
    left behind and a run reaches the same layers in any test order."""
    from coidem import lattice

    monkeypatch.setattr(lattice, "_memory_cache", {})
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "coidem":
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


@pytest.fixture
def memory_cap():
    """Cap this process's address space at 1 GiB above its current size, so
    a regression that starts building a 10^9-element set fails with
    MemoryError instead of exhausting the host."""
    try:
        with open("/proc/self/statm") as f:
            size = int(f.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:  # no procfs: run uncapped
        yield
        return
    old = resource.getrlimit(resource.RLIMIT_AS)
    cap = size + 2**30
    if old[1] != resource.RLIM_INFINITY:
        cap = min(cap, old[1])
    resource.setrlimit(resource.RLIMIT_AS, (cap, old[1]))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, old)
