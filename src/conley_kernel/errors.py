"""What every carrier's answers share, loading no carrier: the undecided
answer and the echo of a bad value in an input-error message.

:mod:`conley_kernel.semiflow` re-exports :class:`Undecided`, its name in
the README and the tests; it lives here so that a process that reads only
finite documents catches it without loading the box carriers.
"""

import reprlib


class Undecided(Exception):
    """No exact answer within ``bound``, the bound the work actually used
    (None where it used none); never a negative.  ``outer``, where known,
    is an outer approximant of an invariant part."""

    def __init__(self, reason: str, bound=None, outer=None):
        super().__init__(reason)
        self.reason, self.bound, self.outer = reason, bound, outer


def echo(value) -> str:
    """value in an input-error message: text as it is, else its repr as
    reprlib abbreviates it (six levels deep), cut to 60 characters."""
    text = value if isinstance(value, str) else reprlib.repr(value)
    return text if len(text) <= 60 else text[:57] + "..."
