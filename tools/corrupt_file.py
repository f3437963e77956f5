#!/usr/bin/env python3
"""Deterministic binary corruption for the snapshot-image e2e tests.

    corrupt_file.py <mode> <path>

Modes mirror the failure classes --verify-image must catch:

  truncate  -- cut the file to half its size (header intact, payload short)
  flipbit   -- flip one bit in the middle of the payload (checksum mismatch)
  version   -- stamp format_version = 999 and RE-SEAL the header checksum,
               so the loader's rejection is the version check specifically,
               not a checksum side effect

The header layout constants below must match snapshot::ImageHeader
(src/snapshot/snapshot.hpp): format_version is the uint32 at offset 8,
header_checksum the uint64 at offset 216 of the 224-byte header, computed
as FNV-1a 64 over the header with the checksum field zeroed.
"""
import struct
import sys

HEADER_BYTES = 224
VERSION_OFF = 8
HEADER_CHECKSUM_OFF = 216


def fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    mode, path = sys.argv[1], sys.argv[2]
    with open(path, "rb") as f:
        data = bytearray(f.read())
    if len(data) <= HEADER_BYTES:
        print(f"corrupt_file.py: {path} is too small to be an image", file=sys.stderr)
        return 2

    if mode == "truncate":
        data = data[: len(data) // 2]
    elif mode == "flipbit":
        data[(HEADER_BYTES + len(data)) // 2] ^= 0x10
    elif mode == "version":
        struct.pack_into("<I", data, VERSION_OFF, 999)
        header = bytearray(data[:HEADER_BYTES])
        header[HEADER_CHECKSUM_OFF : HEADER_CHECKSUM_OFF + 8] = bytes(8)
        struct.pack_into("<Q", data, HEADER_CHECKSUM_OFF, fnv1a64(bytes(header)))
    else:
        print(f"corrupt_file.py: unknown mode '{mode}'", file=sys.stderr)
        return 2

    with open(path, "wb") as f:
        f.write(data)
    return 0


if __name__ == "__main__":
    sys.exit(main())
