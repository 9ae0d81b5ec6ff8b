"""On-line chain partitioning: adversary games, partitioners, verification.

The package pits adversary strategies (which present a poset of bounded
width one point at a time) against on-line chain partitioners (which must
irrevocably color every point so each color class stays a chain), records
full game transcripts, and verifies every structural claim about the
outcome: forced-color bounds, rainbow chain certificates, separator
placement, and realizer extraction.
"""

from .adversaries import (
    HiddenRealizerStrategy,
    LevelReport,
    Move,
    PresentedRealizerStrategy,
    RainbowChains,
    STRATEGY_NAMES,
    Strategy,
    SzemerediStrategy,
    make_strategy,
    szemeredi_bound,
    theorem1_level_threshold,
    theorem1_total,
    theorem2_level_threshold,
    theorem2_total,
)
from .arena import (
    GameReport,
    Transcript,
    TranscriptRound,
    build_report,
    run_game,
    sweep,
    verify_transcript,
)
from .builders import BOTTOM, TOP, Builder, BuilderSpec, Region
from .errors import (
    IllegalMoveError,
    OlcpError,
    RelationError,
    StrategyInvariantError,
    TranscriptError,
)
from .partitioners import (
    FirstFit,
    Human,
    PARTITIONER_NAMES,
    PartitionerView,
    RandomValid,
    make_partitioner,
)
from .poset import (
    ChainPartition,
    LinearOrder,
    Poset,
    Realizer,
    intersect,
    verify_chain_partition,
    verify_realizer,
)

__version__ = "0.1.0"

__all__ = [
    "BOTTOM",
    "Builder",
    "BuilderSpec",
    "ChainPartition",
    "FirstFit",
    "GameReport",
    "HiddenRealizerStrategy",
    "Human",
    "IllegalMoveError",
    "LevelReport",
    "LinearOrder",
    "Move",
    "OlcpError",
    "PARTITIONER_NAMES",
    "PartitionerView",
    "Poset",
    "PresentedRealizerStrategy",
    "RainbowChains",
    "RandomValid",
    "Realizer",
    "Region",
    "RelationError",
    "STRATEGY_NAMES",
    "Strategy",
    "StrategyInvariantError",
    "SzemerediStrategy",
    "TOP",
    "Transcript",
    "TranscriptError",
    "TranscriptRound",
    "build_report",
    "intersect",
    "make_partitioner",
    "make_strategy",
    "run_game",
    "sweep",
    "szemeredi_bound",
    "theorem1_level_threshold",
    "theorem1_total",
    "theorem2_level_threshold",
    "theorem2_total",
    "verify_chain_partition",
    "verify_realizer",
    "verify_transcript",
]
