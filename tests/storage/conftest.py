"""The backend fixture every storage suite runs against."""

import pytest

from repro.storage import MemoryBackend, SQLiteBackend


@pytest.fixture(params=["memory", "sqlite"])
def backend(request, tmp_path):
    """Each backend in turn: the memory reference, then SQLite on disk."""
    if request.param == "memory":
        instance = MemoryBackend()
    else:
        instance = SQLiteBackend(str(tmp_path / "store.db"))
    yield instance
    instance.close()
