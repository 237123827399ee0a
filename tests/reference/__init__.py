"""Plain oracles for every component of the pipeline, each defined once,
and the fixtures the tests build.

The package's vectorized and memoized paths are checked against these
loops, most with exact ``==``.  No oracle imports an ``_``-prefixed name
from ``summ``: an oracle that calls the code it checks cannot catch that
code's bugs.
"""
