"""The package's warnings, logged without importing ``logging`` up front.

``logging`` (with ``traceback`` and ``string``) is a large share of
``import summ``, and a run that warns about nothing never needs it; so it
is imported when the first warning is logged.
"""

from __future__ import annotations


def warning(name: str, message: str, *args) -> None:
    """``logging.getLogger(name).warning(message, *args)``, the record
    showing the caller's file, function and line."""
    import logging

    logging.getLogger(name).warning(message, *args, stacklevel=2)
