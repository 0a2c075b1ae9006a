"""Conversational-floor detection and mixing for a shared audio space.

Turn-taking timing, observed as per-participant voice activity on a
1 ms grid, is enough to tell who is talking with whom. This package
detects those conversational floors online and uses them to give
every listener a mix where their own conversation is loud and the
others are quiet but monitorable.

The names below are the common entry points; everything else is
imported from its module (``floorspace.server``, ``floorspace.mixer``
and so on).
"""

from .assigner import FloorAssigner, enumerate_partitions, gains, score
from .corpus import GeneratorConfig, generate
from .evaluation import evaluate, partition_text, write_report, write_timeline
from .learner import load_model, make_training_instances, save_model, train
from .mixdown import read_wav

__version__ = "0.1.0"

__all__ = [
    "FloorAssigner",
    "GeneratorConfig",
    "enumerate_partitions",
    "evaluate",
    "gains",
    "generate",
    "load_model",
    "make_training_instances",
    "partition_text",
    "read_wav",
    "save_model",
    "score",
    "train",
    "write_report",
    "write_timeline",
]
