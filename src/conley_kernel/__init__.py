"""Exact kernel for index-pair-free Conley index computations.

Two carriers are supported: finite discrete systems and exact rational
box systems in R^n (piecewise-affine maps, exactly-representable semiflows).
All kernel arithmetic is exact rational; there are no tolerances.

Importing the package loads no carrier: each name below is imported from
its module on first use (PEP 562), so a process that reads only finite
documents never loads the box carriers, and one that reads only box
documents never loads the finite one.
"""

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOMES = {
    **dict.fromkeys(("BoxSet", "Cut", "Interval", "NEG_INF", "POS_INF", "rat"),
                    "boxes"),
    **dict.fromkeys(("AffineRule", "Piece", "PiecewiseAffineMap"), "affine"),
    **dict.fromkeys(("FinitePartialMap", "FiniteSpace", "FiniteSubset"),
                    "finite"),
}

__all__ = ["__version__", *_HOMES]


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:        # the import system then looks for a submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value
