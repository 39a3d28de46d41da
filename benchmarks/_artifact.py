"""Shared scaffolding of the benches that write a ``BENCH_*.json`` artifact.

Every such artifact is ``{"schema": ID, "modes": {"quick"|"full": entry}}``
(``tools/check_bench_schema.py`` holds each schema id's rules).  A bench
run measures one mode: :func:`write_mode` merges its entry into the file
and keeps the other mode's.  :func:`timed` is the timed region of every
such bench.  The leading underscore keeps pytest, which collects
``bench_*.py``, from collecting this module.
"""

from __future__ import annotations

import argparse
import gc
import json
import time
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def gc_paused():
    """Collect, then keep the cyclic garbage collector off for the block.

    Reference cycles (``Task`` <-> ``TaskAttempt``, asyncio internals)
    otherwise trigger generation-2 collections mid-measurement, which
    adds double-digit-percent noise.
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def timed(fn, *args):
    """``(seconds, result)`` of one ``fn(*args)`` call under :func:`gc_paused`."""
    with gc_paused():
        t0 = time.perf_counter()
        result = fn(*args)
        return time.perf_counter() - t0, result


def arguments(doc: str, quick_help: str, default_output: Path) -> argparse.ArgumentParser:
    """The ``--quick``/``--output`` command line every artifact bench takes."""
    parser = argparse.ArgumentParser(description=doc.split("\n", 1)[0])
    parser.add_argument("--quick", action="store_true", help=quick_help)
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help=f"where to write the JSON (default {default_output})",
    )
    return parser


def write_mode(output: Path, schema: str, entry: dict) -> None:
    """Write ``entry`` as its mode's entry of the ``schema`` artifact at ``output``.

    The other mode's entry keeps its bytes: the file is always
    ``json.dumps(..., indent=2)``, which gives loaded values back the same
    text.  A file with another schema id, or that is not readable JSON,
    is replaced.
    """
    try:
        document = json.loads(output.read_text())
    except (OSError, ValueError):
        document = None
    if not (isinstance(document, dict) and document.get("schema") == schema):
        document = {"schema": schema, "modes": {}}
    document.setdefault("modes", {})[entry["mode"]] = entry
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(document, indent=2) + "\n")
    print(f"[wrote {output} ({entry['mode']} entry)]")
