"""Exact stationary statistics for token bucket filters.

A token bucket filter grants one token per period into a bounded bucket and
queues variable-size packets FCFS in a bounded buffer.  This package
enumerates that device's states, builds the chain on the states reachable
from the full-bucket idle state, solves its per-period operator for the
stationary law, and derives occupancy tables, per-class loss ratios and
waiting times.  A discrete-event simulator driving the same transition
functions is included for cross-validation, plus a CLI for scenario files.
The public names of every module but ``cli`` are exported here, each
declared once, in its module's ``__all__``.
"""

from . import analysis, des, dynamics, markov, oracle, statespace
from .statespace import *
from .dynamics import *
from .markov import *
from .analysis import *
from .oracle import *
from .des import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += statespace.__all__
__all__ += dynamics.__all__
__all__ += markov.__all__
__all__ += analysis.__all__
__all__ += oracle.__all__
__all__ += des.__all__
