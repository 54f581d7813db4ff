"""Exact stable ranks for tensor supports, forms, and ideals at the origin.

Everything reduces to small linear programs solved in exact rational
arithmetic, so every returned value is a Fraction (or +infinity) and every
witness is an integer vector that attains it.

The package re-exports the public names of its modules, each module's
`__all__` being the one list of them: removing a name from the package
means removing it there.
"""

from . import errors, exactlp, fileformat, ideals, tensors, verify
from .errors import *
from .exactlp import *
from .fileformat import *
from .ideals import *
from .tensors import *
from .verify import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (errors, exactlp, fileformat, ideals, tensors, verify)
    for name in module.__all__
] + ["__version__"]
