"""Test doubles for one-sided tests: a numpy exposure and shared-epoch
helpers built from the non-blocking calls the stack ships."""

from repro.smpi import AsyncOpHandle


class ArrayExposure:
    """Exposes a numpy array through a window.

    Puts carry ``(offset, values)`` tuples; gets read slices (views: the
    transport snapshots them when the get is served).
    """

    def __init__(self, array):
        self.array = array

    def apply_put(self, payload) -> None:
        offset, values = payload
        self.array[offset : offset + len(values)] = values

    def read(self, offset: int, count: int):
        return self.array[offset : offset + count]

    def read_nbytes(self, offset: int, count: int) -> int:
        return count * self.array.itemsize


def lock(mpi, win, target_rank):
    """Open a shared epoch to ``target_rank`` and wait for its grant."""
    granted = yield from mpi.win_ilock(win, target_rank)
    yield from mpi.wait_async(AsyncOpHandle(granted))


def get(mpi, win, target_rank, offset, count):
    """Get ``count`` items at ``offset`` inside an open epoch and wait."""
    done = yield from mpi.win_iget(win, target_rank, offset, count)
    data = yield from mpi.wait_async(AsyncOpHandle(done))
    return data
