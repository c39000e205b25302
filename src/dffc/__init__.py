"""Curriculum-learning laboratory.

Dynamic per-sample hardness scores (loss-history EMA plus a static image
quality prior), an epoch-indexed pacing function that shrinks the hard
training pool at milestones, and a synthetic forgery benchmark with a
from-scratch MLP classifier to exercise the whole loop end to end.
"""

from dffc.errors import ConfigError

__version__ = "0.1.0"

__all__ = ["ConfigError", "__version__"]
