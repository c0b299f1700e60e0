"""User-space instructions retired, counted with Linux perf_event_open.

The counter follows the calling process and, through ``inherit``, every
process it starts afterwards.  Kernel and hypervisor instructions are
excluded, which is what an unprivileged process may count.
"""
from __future__ import annotations

import ctypes
import fcntl
import os
import struct

_SYS_PERF_EVENT_OPEN = {"x86_64": 298, "aarch64": 241}
_PERF_TYPE_HARDWARE = 0
_PERF_COUNT_HW_INSTRUCTIONS = 1
_ATTR_SIZE = 128
# perf_event_attr flag bits
_DISABLED, _INHERIT, _EXCLUDE_KERNEL, _EXCLUDE_HV = 1 << 0, 1 << 1, 1 << 5, 1 << 6
# ioctl requests _IO('$', n)
_ENABLE, _DISABLE, _RESET = 0x2400, 0x2401, 0x2403


class InstructionCounter:
    """One counting file descriptor; ``start`` zeroes and enables it."""

    def __init__(self) -> None:
        nr = _SYS_PERF_EVENT_OPEN.get(os.uname().machine)
        if nr is None:
            raise OSError(f"perf_event_open: unknown syscall number on {os.uname().machine}")
        attr = bytearray(_ATTR_SIZE)
        flags = _DISABLED | _INHERIT | _EXCLUDE_KERNEL | _EXCLUDE_HV
        struct.pack_into("IIQQQQQ", attr, 0, _PERF_TYPE_HARDWARE, _ATTR_SIZE, _PERF_COUNT_HW_INSTRUCTIONS, 0, 0, 0, flags)
        libc = ctypes.CDLL(None, use_errno=True)
        libc.syscall.restype = ctypes.c_long
        buf = ctypes.create_string_buffer(bytes(attr), _ATTR_SIZE)
        fd = libc.syscall(ctypes.c_long(nr), buf, 0, -1, -1, ctypes.c_ulong(0))
        if fd < 0:
            err = ctypes.get_errno()
            raise OSError(err, f"perf_event_open for user-space instructions failed: {os.strerror(err)}")
        self.fd = int(fd)

    def start(self) -> None:
        fcntl.ioctl(self.fd, _RESET, 0)
        fcntl.ioctl(self.fd, _ENABLE, 0)

    def stop(self) -> int:
        fcntl.ioctl(self.fd, _DISABLE, 0)
        return self.read()

    def read(self) -> int:
        return int.from_bytes(os.read(self.fd, 8), "little")

    def close(self) -> None:
        os.close(self.fd)
