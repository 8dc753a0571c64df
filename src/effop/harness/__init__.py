"""Supporting engineering: file I/O, seeded generators, the invariant
battery and the command-line interface.

The public names are those in each module's ``__all__``.
"""

from . import generate as _generate, matio, report, verify
from .generate import *
from .matio import *
from .report import *
from .verify import *

__all__ = [*_generate.__all__, *matio.__all__, *report.__all__, *verify.__all__]
del _generate
