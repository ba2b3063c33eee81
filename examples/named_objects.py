#!/usr/bin/env python3
"""Named large objects: the Database facade and its file handles.

A ``Database`` keeps a catalog of small records (slotted record pages)
that maps each name to a long field, whose bytes live under the chosen
large-object mechanism.  Objects are edited by name through the
byte-range API, or opened as seekable file handles: a write overwrites
at the cursor and extends the object when it runs past the end, and a
write that starts past the end zero-fills the gap, like a POSIX file.

Run:  python examples/named_objects.py [esm|starburst|eos|blockbased]
"""

import os
import sys

from repro import Database, DuplicateNameError

KB = 1024


def main() -> None:
    scheme = sys.argv[1] if len(sys.argv) > 1 else "eos"
    db = Database(scheme, leaf_pages=4, threshold_pages=4)
    print(f"Named objects over the {scheme.upper()} large-object mechanism\n")

    # Byte-range edits by name.
    db.put("notes.txt", b"first line\n")
    db.append("notes.txt", b"third line\n")
    db.insert("notes.txt", 11, b"second line\n")
    db.replace("notes.txt", 0, b"FIRST")
    db.delete("notes.txt", 6, 5)  # drop "line\n" after "FIRST "
    assert db.read("notes.txt") == b"FIRST second line\nthird line\n"
    db.rename("notes.txt", "log.txt")
    try:
        db.put("log.txt")
    except DuplicateNameError as exc:
        print(f"refused: {exc}")

    # The same object as a file: read, overwrite, extend, skip ahead.
    db.put("image.raw", bytes(range(256)) * 16)  # 4 KB
    with db.open("image.raw") as handle:
        header = handle.read(4)
        handle.seek(-2, os.SEEK_END)
        handle.write(b"END OF IMAGE")  # overlaps the end: replace + extend
        handle.seek(8 * KB)
        handle.write(b"TRAILER")  # past the end: the gap reads as zeros
        handle.insert_at(0, b"MAGIC")
        handle.delete_range(5, 4)  # the old 4-byte header
        size = handle.size()
    expected = (
        b"MAGIC" + (bytes(range(256)) * 16)[4:-2] + b"END OF IMAGE"
        + bytes(8 * KB - (4 * KB + 10)) + b"TRAILER"
    )
    assert header == bytes(range(4))
    assert size == len(expected) and db.read("image.raw") == expected
    print(f"image.raw edited through a file handle: {size:,} bytes, "
          "verified byte-for-byte")

    for name, nbytes in db.list():
        print(f"  {name:<10} {nbytes:>6,} bytes  "
              f"{db.utilization(name):6.1%} of its pages used")
    db.drop("log.txt")
    assert not db.exists("log.txt")
    print(f"\nTotal simulated I/O: {db.stats.io_calls} calls, "
          f"{db.elapsed_ms() / 1000:.2f} s")


if __name__ == "__main__":
    main()
