"""Process set-up shared by the benchmark's entry points: BLAS thread
pinning, importing samaseg from the checkout's own sources, and the
environment record printed with every result.

Only the standard library is imported at module level, because thread
pinning must happen before numpy is first imported.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".perfbench_run"      # scratch data, checkpoints and span files
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class RefusedToRun(RuntimeError):
    """The process environment would make the measurements meaningless."""


def nproc() -> int:
    """Cores this process may run on (what `nproc` prints)."""
    return len(os.sched_getaffinity(0))


def pin_blas_threads(environ=os.environ):
    """Pin every BLAS thread variable to 1; refuse any other explicit value.

    Must run before numpy is imported. A value other than 1 could let BLAS
    start more threads than `nproc` and compete with the measured loop.
    """
    if "numpy" in sys.modules:
        raise RefusedToRun("numpy was imported before BLAS threads were pinned")
    for var in THREAD_VARS:
        value = environ.setdefault(var, "1")
        if value.strip() != "1":
            raise RefusedToRun(f"{var}={value!r}: the benchmark runs BLAS on one thread "
                               f"(nproc={nproc()}); unset it or set it to 1")


def _openblas_library():
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn
    return None


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or None when it cannot be asked."""
    fn = _openblas_library()
    return int(fn()) if fn is not None else None


def check_blas_threads() -> int | None:
    threads = blas_threads()
    if threads is not None and threads > 1:
        raise RefusedToRun(f"OpenBLAS reports {threads} threads after pinning "
                           f"(nproc={nproc()})")
    return threads


def import_samaseg():
    """Import samaseg from `<checkout>/src`, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import samaseg
    except ImportError as e:
        raise RefusedToRun(f"cannot import samaseg from {src}: {e}") from e
    if Path(samaseg.__file__).resolve().parent.parent != src.resolve():
        raise RefusedToRun(f"samaseg resolved to {samaseg.__file__}, not to {src}")
    return samaseg


def git_rev(root: Path = ROOT) -> str | None:
    """Commit of the checkout, read from `.git` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment_record(threads: int | None) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_rev": git_rev(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": threads,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
    }
