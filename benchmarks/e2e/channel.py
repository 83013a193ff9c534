"""How ``run.py`` and the system under test (``sut.py``) talk.

One message is a pickled object behind a 4-byte length, written to a
pipe.  The parent holds the child's standard input and output; the child
sends its replies on a duplicate of its original standard output, so
that nothing it prints can end up in the channel.
"""

from __future__ import annotations

import os
import pickle
import select
import struct
from typing import Any

HEADER = struct.Struct("!I")
READ_CHUNK = 1 << 20


class Channel:
    """Length-prefixed pickles over a read and a write file descriptor."""

    def __init__(self, read_fd: int, write_fd: int) -> None:
        self._read_fd = read_fd
        self._write_fd = write_fd

    def send(self, message: Any) -> None:
        data = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        view = memoryview(HEADER.pack(len(data)) + data)
        while view:
            view = view[os.write(self._write_fd, view) :]

    def poll(self, timeout: float) -> bool:
        """Whether a message starts arriving within ``timeout`` seconds."""
        return bool(select.select([self._read_fd], [], [], timeout)[0])

    def recv(self) -> Any:
        (size,) = HEADER.unpack(self._read_exactly(HEADER.size))
        return pickle.loads(self._read_exactly(size))

    def _read_exactly(self, size: int) -> bytes:
        chunks = []
        while size:
            chunk = os.read(self._read_fd, min(size, READ_CHUNK))
            if not chunk:
                raise EOFError("the other end closed the channel")
            chunks.append(chunk)
            size -= len(chunk)
        return b"".join(chunks)
