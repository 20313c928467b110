"""Columnar profile storage.

``repro.core.columnar`` re-expresses a finished profile as flat numpy
column arrays — phase-instance tables, per-resource sample grids, and
demand/usage matrices — instead of per-event Python object graphs:

* :class:`ColumnarProfile` (:mod:`.arrays`) is the interchange form: a
  string pool plus a fixed inventory of typed columns, losslessly
  convertible to and from :class:`~repro.core.profile.PerformanceProfile`
  via ``from_profile``/``to_profile``.
* :mod:`.storage` gives it a versioned memmap-backed on-disk layout
  (``ColumnarProfile.save``/``ColumnarProfile.open``) so million-slice
  grids stream through constant memory.

See ``docs/columnar.md`` for the layout and file format.
"""

from .arrays import COLUMN_SPECS, ColumnarProfile
from .storage import (
    COLUMNAR_FORMAT,
    COLUMNAR_MAGIC,
    ColumnarFormatError,
    open_columnar,
    save_columnar,
)

__all__ = [
    "COLUMN_SPECS",
    "COLUMNAR_FORMAT",
    "COLUMNAR_MAGIC",
    "ColumnarFormatError",
    "ColumnarProfile",
    "open_columnar",
    "save_columnar",
]
