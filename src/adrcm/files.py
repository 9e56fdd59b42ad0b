"""Small file helpers shared by the pipeline stages."""

from __future__ import annotations

import contextlib
import glob
import json
import os
import re
import threading
from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")

_LINE = re.compile(r"(?m)^.*$")


def read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def atomic_write_text(path: str, text: str) -> None:
    """Write via a per-thread temp file, ``{path}.{pid}.{thread id}.tmp``, and a
    rename, so readers never see a torn file; a failed write removes its temp."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):  # renamed, or never created
            os.remove(tmp)


def remove_dead_temps(directory: str) -> None:
    """Remove the :func:`atomic_write_text` temps in ``directory`` whose writer is gone."""
    for path in glob.glob(os.path.join(glob.escape(directory), "*.[1-9]*.*.tmp")):
        try:
            os.kill(int(path.split(".")[-3]), 0)
        except ProcessLookupError:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        except (OSError, ValueError):
            pass  # a live writer (PermissionError: another user's), or no pid


def dump_jsonl(rows: Iterable[object]) -> str:
    """One sorted-key JSON object per line, non-ASCII text left unescaped;
    a dataclass row is written as its fields."""
    lines = [json.dumps(row, sort_keys=True, ensure_ascii=False, default=vars) for row in rows]
    return "\n".join(lines) + ("\n" if lines else "")


def jsonl_lines(text: str) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, line)`` for every non-blank line, one at a time.

    Splits on ``\\n`` only: :func:`dump_jsonl` writes U+2028 and U+0085
    unescaped, and ``str.splitlines()`` would cut a record at either.
    """
    for line_no, match in enumerate(_LINE.finditer(text), start=1):
        if match.group().strip():
            yield line_no, match.group()


def parse_jsonl(lines: Iterable[tuple[int, str]], what: str,
                make: Callable[[dict], T]) -> Iterator[tuple[int, T]]:
    """Yield ``(line number, make(row))`` for each numbered line, as from :func:`jsonl_lines`."""
    for line_no, line in lines:
        try:
            record = make(json.loads(line))
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"line {line_no}: bad {what} record: {exc}")
        yield line_no, record
