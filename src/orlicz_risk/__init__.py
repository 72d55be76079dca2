"""Conditional Orlicz norms and conditional convex risk measures on finite
filtered probability spaces, with robust dual representations computed and
checked as tolerance-tested identities.

The public names are each module's `__all__`, republished here."""

from .errors import *  # noqa: F401,F403
from .prob_space import *  # noqa: F401,F403
from .young import *  # noqa: F401,F403
from .solvers import *  # noqa: F401,F403
from .orlicz import *  # noqa: F401,F403
from .risk import *  # noqa: F401,F403
from .scenario import *  # noqa: F401,F403

__version__ = "0.1.0"
