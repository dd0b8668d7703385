"""Exact edge-isoperimetric profiles of small graphs.

For every subset size i, the toolkit computes the extreme values of the
three subset edge counters (induced, covered, cut) over all i-vertex
subsets, their consecutive-difference sequences, and the symmetry
property of those sequences that characterizes regular graphs. Several
independent solver routes cross-check each other, and every counting
identity used along the way can be machine-verified on any graph within
the solver cap.
"""

from .analysis import *
from .formats import *
from .graphs import *
from .metrics import *
from .solvers import *

__version__ = "0.1.0"
