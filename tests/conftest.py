import io
import os

import pytest

from skbeta import _fork, urnsim

SIMON_CONFIG = urnsim.UrnConfig(k0=1, a_shift=0.0, alpha=0.5, steps=200_000, seed=42)


@pytest.fixture(scope="session")
def simon_run():
    """The 2e5-step reference run shared by urn tests and acceptance."""
    return SIMON_CONFIG, urnsim.run(SIMON_CONFIG)


@pytest.fixture
def cut_stream(monkeypatch):
    """``cut_stream()``: from then on, a child of ``_fork.in_parts`` writes
    half of its first pickle write into its pipe and exits 0, leaving the
    parent a short pickle."""
    parent = os.getpid()

    def cut():
        class Cut(io.BufferedWriter):
            def write(self, data):
                view = memoryview(data).cast("B")
                super().write(view[: len(view) // 2])
                self.flush()
                os._exit(0)

        def opener(file, mode="r", **kwargs):
            if os.getpid() == parent or mode != "wb":
                return open(file, mode, **kwargs)
            return Cut(io.FileIO(file, "wb"))

        monkeypatch.setattr(_fork, "open", opener, raising=False)

    return cut
