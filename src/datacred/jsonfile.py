"""How datacred stores JSON files: wallets, agent state and config, DID
documents, registries, credentials and offline bundles.

A write goes to a ``.tmp`` sibling, renamed over the target or removed if
the write fails, so no reader or crash sees a torn file. A read yields a
JSON object or an error naming the file: FetchFailed when it cannot be read,
else DocumentInvalid.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .errors import DocumentInvalid, FetchFailed


def read_json(path: str | Path) -> dict:
    """The JSON object stored at path."""
    try:
        obj = json.loads(Path(path).read_bytes())
    except OSError as exc:
        raise FetchFailed(f"{path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that decode as no text
        raise DocumentInvalid(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise DocumentInvalid(f"{path}: expected a JSON object, got {type(obj).__name__}")
    return obj


def write_json(path: str | Path, obj: dict) -> None:
    """Replace the file at path with obj, creating its directory if needed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
