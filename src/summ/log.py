"""The package's warnings, logged without importing ``logging`` up front.

``logging`` (with ``traceback`` and ``string``) is a large share of
``import summ``, and a run that warns about nothing never needs it; so it
is imported when the first warning is logged.
"""

from __future__ import annotations

# called once, with ``logging``, before the first warning; the CLI sets its format
on_first_warning = None


def warning(name: str, message: str, *args) -> None:
    """``logging.getLogger(name).warning(message, *args)``, the record
    showing the caller's file, function and line."""
    global on_first_warning
    import logging

    if on_first_warning is not None:
        setup, on_first_warning = on_first_warning, None
        setup(logging)
    logging.getLogger(name).warning(message, *args, stacklevel=2)
