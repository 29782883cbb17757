"""Byte-addressable backing store shared by the memory models."""

from __future__ import annotations

import mmap


class BackingStore:
    """A memory window ``[base, base + size)`` backed by anonymous pages.

    The buffer is a private anonymous ``mmap``: creating it costs the
    same for any size, it reads as zeros, and a page takes host memory
    only once something is written to it, so a point pays for the data
    it moves rather than for its address window (DESIGN.md section 16).

    Accesses outside the window raise; the memory models translate this
    into SLVERR responses so a model bug cannot silently corrupt data.
    """

    def __init__(self, base: int, size: int) -> None:
        if size <= 0:
            raise ValueError("backing store size must be positive")
        self.base = base
        self.size = size
        self._data = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)

    def _offset(self, addr: int, nbytes: int) -> int:
        off = addr - self.base
        if off < 0 or off + nbytes > self.size:
            raise IndexError(
                f"access [0x{addr:x}+{nbytes}] outside "
                f"[0x{self.base:x}..0x{self.base + self.size:x})"
            )
        return off

    def read(self, addr: int, nbytes: int) -> bytes:
        off = self._offset(addr, nbytes)
        return self._data[off : off + nbytes]

    def write(self, addr: int, data: bytes, strb: int = -1) -> None:
        """Write *data*; *strb* = -1 enables all byte lanes."""
        off = self._offset(addr, len(data))
        if strb == -1:
            self._data[off : off + len(data)] = data
        else:
            for i, byte in enumerate(data):
                if strb & (1 << i):
                    self._data[off + i] = byte

    def write_run(self, addr: int, data: bytes, count: int) -> None:
        """Write *data* *count* times back to back from *addr*, all byte
        lanes enabled; nothing is written if any of it is out of range."""
        nbytes = len(data) * count
        off = self._offset(addr, nbytes)
        self._data[off : off + nbytes] = data * count

    def fill(self, addr: int, nbytes: int, pattern: int = 0) -> None:
        off = self._offset(addr, nbytes)
        self._data[off : off + nbytes] = bytes([pattern & 0xFF]) * nbytes

    # ------------------------------------------------------------------
    # snapshot contract
    # ------------------------------------------------------------------
    def state_capture(self) -> dict:
        return {"data": bytes(self._data)}

    def state_restore(self, state: dict) -> None:
        data = state["data"]
        if len(data) != self.size:
            raise ValueError(
                f"backing store size mismatch: {len(data)} != {self.size}"
            )
        # Page by page, writing only pages that differ: restoring into a
        # fresh store leaves the capture's all-zero pages untouched.
        store, step = self._data, mmap.PAGESIZE
        for off in range(0, self.size, step):
            page = data[off : off + step]
            if store[off : off + step] != page:
                store[off : off + step] = page
