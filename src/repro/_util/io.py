"""Crash-safe file primitives: atomic JSON-text writes and per-path locks.

Campaign metadata (``status.json``, ``report.json``, per-run
``result.json``) is the durable record that ``resume=True`` and the
catalog trust.  A bare ``Path.write_text`` truncates the destination
before writing, so a driver killed mid-write (SIGKILL, OOM, power loss)
leaves *torn JSON* — and a torn ``status.json`` silently breaks resume.

:func:`atomic_write_text` closes that hole with the classic recipe:
write the full payload to a temporary file *in the same directory*,
``fsync`` it, then ``os.replace`` it over the destination.  Readers see
either the old complete file or the new complete file, never a prefix.

:func:`path_lock` serializes read-modify-write cycles on one file: a
process-wide :class:`threading.RLock` per canonical path (two campaign
-service submissions sharing a directory in one process), combined with
an advisory ``flock`` on a sibling ``<name>.lock`` file where the
platform offers one (two *processes* sharing a directory).
"""

from __future__ import annotations

import os
import tempfile
import threading
from contextlib import contextmanager
from pathlib import Path

try:  # advisory cross-process locks: POSIX only, optional by design
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None


def atomic_write_text(path: Path, text: str, fsync: bool = True) -> Path:
    """Write ``text`` to ``path`` so a crash can never leave a torn file.

    The payload lands in a ``NamedTemporaryFile`` created in ``path``'s
    own directory (same filesystem, so the final ``os.replace`` is an
    atomic rename), is flushed and — by default — fsynced, and only then
    renamed over the destination.  ``fsync=False`` trades the
    power-loss guarantee for speed (crash-of-the-*process* safety is
    retained either way); every campaign metadata writer keeps the
    default, and only the crash-safety tests pass ``fsync=False``.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


class _PathLockState:
    """One path's lock state: re-entrant in-process lock + flock depth.

    ``depth`` counts re-entries by the holding thread so the advisory
    ``flock`` is taken exactly once per outermost acquisition — a second
    ``flock`` on a fresh descriptor of the same lock file would deadlock
    against our own first one (flock conflicts are per open-file-
    description, not per process).
    """

    __slots__ = ("rlock", "depth")

    def __init__(self) -> None:
        self.rlock = threading.RLock()
        self.depth = 0


#: Canonical path -> lock state, shared process-wide.
_PATH_LOCKS: dict[str, _PathLockState] = {}
_PATH_LOCKS_GUARD = threading.Lock()


def _lock_for(path: Path) -> _PathLockState:
    key = os.path.realpath(str(path))
    with _PATH_LOCKS_GUARD:
        state = _PATH_LOCKS.get(key)
        if state is None:
            state = _PATH_LOCKS[key] = _PathLockState()
        return state


@contextmanager
def path_lock(path: Path, cross_process: bool = True):
    """Serialize a read-modify-write cycle on ``path``.

    In-process: one re-entrant lock per canonical path, so concurrent
    campaign-service submissions in one interpreter cannot interleave
    their read/modify/write halves and drop updates.

    Cross-process (``cross_process=True``, POSIX): an advisory
    ``flock(LOCK_EX)`` on ``<path>.lock`` next to the target, held for
    the outermost acquisition only and released with the context.
    Platforms without ``fcntl`` silently keep the in-process guarantee.
    """
    path = Path(path)
    state = _lock_for(path)
    with state.rlock:
        state.depth += 1
        try:
            if fcntl is None or not cross_process or state.depth > 1:
                yield
                return
            lock_path = path.with_name(path.name + ".lock")
            with open(lock_path, "a+") as lock_file:
                fcntl.flock(lock_file.fileno(), fcntl.LOCK_EX)
                try:
                    yield
                finally:
                    fcntl.flock(lock_file.fileno(), fcntl.LOCK_UN)
        finally:
            state.depth -= 1
