#!/usr/bin/env python3
"""Run the native-backend test suites under ASan + UBSan.

The kernel is rebuilt with ``-fsanitize=address,undefined
-fno-sanitize-recover=all`` (see ``_SANITIZE_FLAGS`` in
``repro.core._native``), so any heap error, out-of-bounds room write or
undefined arithmetic in ``kernel.c`` aborts the test run instead of
silently corrupting placement state.

An ASan-instrumented shared library can only be dlopen-ed into a process
whose *initial* library list starts with the ASan runtime, so this script
re-execs pytest in a child with:

* ``LD_PRELOAD`` pointing at the compiler's ``libasan.so``;
* ``ASAN_OPTIONS=detect_leaks=0`` — CPython itself "leaks" interned
  objects at exit, which would drown real reports;
* ``REPRO_NATIVE_SANITIZE=1`` so the kernel cache builds (and keys) the
  sanitized flavor.

Usage::

    python scripts/native_sanitize.py                 # default suites
    python scripts/native_sanitize.py tests/test_x.py # explicit selection
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
#: The suites that drive the compiled kernel hard: direct backend tests
#: (their scalar differential drives one-row ``gss_ingest_batch`` calls:
#: a native scalar insert is a batch of one), the cross-backend
#: equivalence sweeps (their int-ID properties take the
#: non-text route: the GSS's resolver, then ``ingest_columns``, then
#: ``gss_ingest_batch``), StreamSession feeds (which reach the kernel
#: through its text ingestion path), the sharded front-end sweeps (its
#: routing entry point), the text-encoder fallbacks of both, and the
#: differentials of the kernel's node table and of its left-over buffer and
#: one-call queries.
DEFAULT_SUITES = (
    "tests/test_native_backend.py",
    "tests/test_numpy_backend.py",
    "tests/test_stream_session.py",
    "tests/test_shard_front_end.py",
    "tests/test_text_batch.py",
    "tests/test_kernel_node_index.py",
    "tests/test_kernel_buffer.py",
)


def find_libasan() -> str:
    compiler = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if compiler is None:
        raise SystemExit("no C compiler found; cannot locate libasan")
    result = subprocess.run(
        [compiler, "-print-file-name=libasan.so"],
        check=True,
        capture_output=True,
        text=True,
    )
    path = result.stdout.strip()
    if not path or path == "libasan.so":
        raise SystemExit(
            f"{compiler} cannot locate libasan.so — install the ASan runtime"
        )
    return path


def main(argv: list) -> int:
    suites = argv or [str(REPO / suite) for suite in DEFAULT_SUITES]
    environment = dict(os.environ)
    environment["LD_PRELOAD"] = find_libasan()
    environment["REPRO_NATIVE_SANITIZE"] = "1"
    # CPython's interned/static allocations at exit would be reported as
    # leaks; keep ASan focused on the kernel's own heap discipline.
    environment.setdefault("ASAN_OPTIONS", "detect_leaks=0")
    environment.setdefault("UBSAN_OPTIONS", "print_stacktrace=1")
    environment["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), environment.get("PYTHONPATH")])
    )
    command = [sys.executable, "-m", "pytest", "-x", "-q", *suites]
    print("+", " ".join(command))
    print(f"  LD_PRELOAD={environment['LD_PRELOAD']}")
    return subprocess.call(command, env=environment, cwd=str(REPO))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
