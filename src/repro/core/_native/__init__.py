"""Build/load machinery for the compiled ``native`` matrix backend.

The placement and neighbour-scan kernel lives in ``kernel.c`` next to this
module and is compiled **once per machine** with the system C compiler into
a cached shared library, then bound through :mod:`ctypes`.  Nothing here
imports at package-import time: availability probing, compilation and
symbol binding all happen lazily on first use, so pure-Python users never
pay for it.

Design notes
------------
* The original plan for this backend was a numba ``@njit`` kernel; the
  toolchain this project pins ships a C compiler but no numba, so the kernel
  is plain C with the same shape a numba kernel would have (struct-of-arrays
  in, scalar control loop inside).  Setting ``REPRO_DISABLE_NATIVE=1``
  disables the compiled backend exactly like ``REPRO_DISABLE_NUMPY`` does
  for the vectorized hashing.
* Compilation output is cached under ``$REPRO_NATIVE_CACHE`` (default
  ``~/.cache/repro-gss/native``) keyed by a hash of the kernel source and
  compile flags, so rebuilding only happens when the kernel changes.  The
  write is an atomic rename: concurrent first builds (e.g. cluster worker
  processes racing) converge on one library.
* :func:`warm_up` is the explicit warm-up hook: it compiles and binds the
  kernel (or reports failure) so the one-time build cost never lands inside
  a timed region.  Backend construction calls it implicitly — store
  construction is untimed in every benchmark harness in this repo.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Optional

_KERNEL_SOURCE = Path(__file__).with_name("kernel.c")
#: Default build: optimized, and warning-clean by construction — the kernel
#: must compile silently under -Wall -Wextra (CI promotes them to -Werror
#: in the sanitizer leg; keeping them on here means a warning regression is
#: visible in every local build log, not just CI).
_COMPILE_FLAGS = ("-O3", "-fPIC", "-shared", "-Wall", "-Wextra")
#: ``REPRO_NATIVE_SANITIZE=1`` build: ASan+UBSan, aborts on first report.
#: -O1 keeps stack traces honest; -Werror makes any new warning fatal.
_SANITIZE_FLAGS = (
    "-O1",
    "-g",
    "-fPIC",
    "-shared",
    "-Wall",
    "-Wextra",
    "-Werror",
    "-Wmissing-prototypes",
    "-fsanitize=address,undefined",
    "-fno-sanitize-recover=all",
)


def sanitize_enabled() -> bool:
    """True when ``REPRO_NATIVE_SANITIZE=1`` selects the ASan/UBSan build."""
    return bool(os.environ.get("REPRO_NATIVE_SANITIZE"))


def compile_flags() -> tuple:
    """The exact flag tuple the next (or cached) kernel build uses."""
    return _SANITIZE_FLAGS if sanitize_enabled() else _COMPILE_FLAGS

_lock = threading.Lock()
#: Tri-state load cache: None = not attempted, (lib, None) = loaded,
#: (None, reason) = permanently failed for this process.
_load_state: Optional[tuple] = None


class NativeUnavailable(RuntimeError):
    """The compiled kernel cannot be built or loaded on this machine."""


def native_disabled() -> bool:
    """True when ``REPRO_DISABLE_NATIVE`` turns the compiled backend off."""
    return bool(os.environ.get("REPRO_DISABLE_NATIVE"))


def _find_compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-gss" / "native"


def _source_tag() -> str:
    digest = hashlib.sha256()
    digest.update(_KERNEL_SOURCE.read_bytes())
    digest.update(" ".join(compile_flags()).encode())
    return digest.hexdigest()[:16]


def _compile(compiler: str, target: Path) -> None:
    """Compile kernel.c to ``target`` atomically (tmp file + rename)."""
    target.parent.mkdir(parents=True, exist_ok=True)
    descriptor, tmp_name = tempfile.mkstemp(
        prefix=target.stem, suffix=".so.tmp", dir=str(target.parent)
    )
    os.close(descriptor)
    try:
        subprocess.run(
            [compiler, *compile_flags(), "-o", tmp_name, str(_KERNEL_SOURCE)],
            check=True,
            capture_output=True,
            text=True,
        )
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class node_ids_out(ctypes.Structure):  # named as the C struct it mirrors
    """``gss_node_ids``' output buffers (``kernel.c``'s ``node_ids_out``),
    owned by the caller."""

    _fields_ = [
        ("bytes", ctypes.c_void_p),
        ("bytes_cap", ctypes.c_int64),
        ("lengths", ctypes.c_void_p),
        ("hashes", ctypes.c_void_p),
        ("ids_cap", ctypes.c_int64),
        ("count", ctypes.c_int64),
        ("len", ctypes.c_int64),
    ]


def _bind(path: Path) -> ctypes.CDLL:
    lib = ctypes.CDLL(str(path))
    c = ctypes
    lib.gss_new.restype = c.c_void_p
    lib.gss_new.argtypes = []
    lib.gss_free.restype = None
    lib.gss_free.argtypes = [c.c_void_p]
    lib.gss_map_get.restype = c.c_int64
    lib.gss_map_get.argtypes = [c.c_void_p, c.c_uint64]
    lib.gss_map_put.restype = c.c_int
    lib.gss_map_put.argtypes = [c.c_void_p, c.c_uint64, c.c_int64]
    lib.gss_ingest_batch.restype = c.c_int64
    lib.gss_ingest_batch.argtypes = [
        c.c_void_p,  # ctx
        c.c_void_p, c.c_void_p, c.c_int64,  # keys, weights, n
        c.c_uint64, c.c_uint64,  # hash_range, fp_range
        c.c_int64, c.c_int64,  # width, rooms
        c.c_int64, c.c_int64,  # seq_length, candidates
        c.c_int32, c.c_int32,  # square_hashing, sampling
        c.c_uint64, c.c_uint64, c.c_uint64,  # lcg a, b, p
        c.c_void_p, c.c_void_p,  # src_fp, dst_fp
        c.c_void_p, c.c_void_p,  # src_idx, dst_idx
        c.c_void_p,  # room_weights
        c.c_void_p,  # fill
        c.c_void_p, c.c_void_p, c.c_void_p,  # spill keys/sums/count
        c.c_void_p, c.c_void_p, c.c_void_p,  # rebuf keys/sums/count
    ]
    lib.gss_ingest_text_batch.restype = c.c_int64
    lib.gss_ingest_text_batch.argtypes = [
        c.c_void_p,  # ctx
        c.c_char_p, c.c_int64,  # blob, blob_len
        c.c_void_p, c.c_int64,  # weights, n
        c.c_uint64,  # seeded FNV initial state
        c.c_uint64, c.c_uint64,  # hash_range, fp_range
        c.c_int64, c.c_int64,  # width, rooms
        c.c_int64, c.c_int64,  # seq_length, candidates
        c.c_int32, c.c_int32,  # square_hashing, sampling
        c.c_uint64, c.c_uint64, c.c_uint64,  # lcg a, b, p
        c.c_void_p, c.c_void_p,  # src_fp, dst_fp
        c.c_void_p, c.c_void_p,  # src_idx, dst_idx
        c.c_void_p,  # room_weights
        c.c_void_p,  # fill
        c.c_void_p, c.c_void_p, c.c_void_p,  # spill keys/sums/count
        c.c_void_p, c.c_void_p, c.c_void_p,  # rebuf keys/sums/count
        c.c_void_p,  # count of nodes hashed
    ]
    lib.gss_neighbor_scan.restype = c.c_int64
    lib.gss_neighbor_scan.argtypes = [
        c.c_uint64, c.c_int32,  # node_hash, forward
        c.c_uint64, c.c_int64, c.c_int64,  # fp_range, width, rooms
        c.c_int64, c.c_int32,  # seq_length, square_hashing
        c.c_uint64, c.c_uint64, c.c_uint64,  # lcg a, b, p
        c.c_void_p, c.c_void_p,  # src_fp, dst_fp
        c.c_void_p, c.c_void_p,  # src_idx, dst_idx
        c.c_void_p,  # fill
        c.c_void_p,  # out
    ]
    lib.gss_node_count.restype = c.c_int64
    lib.gss_node_count.argtypes = [c.c_void_p]
    lib.gss_node_resolve.restype = c.c_int64
    lib.gss_node_resolve.argtypes = [
        c.c_void_p, c.c_int32,  # ctx, mode
        c.c_char_p, c.c_int64,  # bytes, bytes_len
        c.c_void_p, c.c_int64,  # lengths, n
        c.c_uint64, c.c_uint64,  # seeded FNV initial state, hash_range
        c.c_void_p, c.c_void_p, c.c_void_p,  # hashes, ids, conflict
    ]
    lib.gss_node_ids.restype = c.c_int64
    lib.gss_node_ids.argtypes = [c.c_void_p, c.c_void_p, c.c_int64, c.c_void_p]  # ctx, hashes, n, out
    lib.gss_router_new.restype = c.c_void_p
    lib.gss_router_new.argtypes = [c.c_int64]
    lib.gss_router_free.restype = None
    lib.gss_router_free.argtypes = [c.c_void_p]
    lib.gss_route_text_batch.restype = c.c_int64
    lib.gss_route_text_batch.argtypes = [
        c.c_void_p,  # router
        c.c_char_p, c.c_int64,  # blob, blob_len
        c.c_void_p, c.c_int64,  # weights, n
        c.c_uint64, c.c_uint64, c.c_uint64,  # node / route FNV states, hash_range
        c.c_void_p, c.c_void_p, c.c_void_p,  # out src / dst hashes, weights
        c.c_void_p,  # per-shard item counts
        c.c_void_p, c.c_void_p, c.c_void_p,  # new-node tokens/hashes/per-shard counts
    ]
    return lib


def _load() -> tuple:
    """Attempt compile+bind once per process; cache the outcome."""
    global _load_state
    with _lock:
        if _load_state is not None:
            return _load_state
        try:
            if sanitize_enabled() and "asan" not in os.environ.get("LD_PRELOAD", ""):
                # dlopen-ing an ASan-instrumented library into a process
                # that was not started under the ASan runtime aborts the
                # interpreter outright ("ASan runtime does not come first")
                # — there is no catchable exception, so refuse up front.
                # scripts/native_sanitize.py sets the preload correctly.
                raise NativeUnavailable(
                    "REPRO_NATIVE_SANITIZE=1 requires the ASan runtime to be "
                    "preloaded; run through scripts/native_sanitize.py or set "
                    "LD_PRELOAD=$(cc -print-file-name=libasan.so)"
                )
            tag = _source_tag()
            target = _cache_dir() / f"kernel-{tag}.so"
            if not target.exists():
                compiler = _find_compiler()
                if compiler is None:
                    raise NativeUnavailable(
                        "no C compiler (cc/gcc/clang) found to build the "
                        "native placement kernel"
                    )
                _compile(compiler, target)
            _load_state = (_bind(target), None)
        except NativeUnavailable as error:
            _load_state = (None, str(error))
        except (OSError, subprocess.CalledProcessError) as error:
            detail = getattr(error, "stderr", "") or str(error)
            _load_state = (None, f"native kernel build failed: {detail}".strip())
        return _load_state


def native_available() -> bool:
    """Whether the compiled backend can actually run here.

    Checks the escape hatches fresh on every call (tests toggle them), then
    compiles/binds the kernel on the first affirmative answer.  NumPy is
    also required — the kernel writes through numpy array buffers.
    """
    if native_disabled():
        return False
    from repro.hashing.vectorized import NUMPY_AVAILABLE

    if not NUMPY_AVAILABLE:
        return False
    lib, _ = _load()
    return lib is not None


def warm_up() -> bool:
    """Explicit warm-up hook: build and bind the kernel ahead of timing.

    Returns True when the native backend is ready, False when it is
    disabled/unavailable (callers then fall back per ``auto`` resolution).
    Safe to call repeatedly; after the first call it is a cache lookup.
    """
    return native_available()


def load_native() -> ctypes.CDLL:
    """The bound kernel library, building it first if needed."""
    if native_disabled():
        raise NativeUnavailable("the native backend is disabled by REPRO_DISABLE_NATIVE")
    lib, reason = _load()
    if lib is None:
        raise NativeUnavailable(reason)
    return lib


def _reset_for_tests() -> None:
    """Forget the process-level load cache (test hook)."""
    global _load_state
    with _lock:
        _load_state = None
