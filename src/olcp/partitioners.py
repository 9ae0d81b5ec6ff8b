"""Chain partitioners: the on-line players that must color every point.

A partitioner sees, through :class:`PartitionerView`, exactly what the
on-line model grants it: the presented poset so far (including the new
point), the coloring history, and — only when the adversary plays with its
realizer on the table — a snapshot of the visible linear orders.

Each partitioner returns a positive integer color; the arena enforces the
chain constraint, but the partitioners here never propose an illegal color
in the first place (the human one is argued out of it interactively).
"""

from __future__ import annotations

import random
import sys
from typing import IO

from .errors import OlcpError
from .poset import ChainPartition, LinearOrder, Poset

PARTITIONER_NAMES = ("first-fit", "random", "human")


class PartitionerView:
    """Everything a partitioner is allowed to see in one round.  The arena
    gives ``realizer`` as the strategy's ``realizer_snapshot``, called on
    first read: only a partitioner that reads the orders has them copied."""

    def __init__(self, poset: Poset, partition: ChainPartition, element: int, realizer=None):
        self.poset, self.partition, self.element = poset, partition, element
        self._realizer = realizer

    @property
    def realizer(self) -> tuple[LinearOrder, ...] | None:
        if callable(self._realizer):
            self._realizer = self._realizer()
        return self._realizer

    def legal_colors(self) -> list[int]:
        """Existing colors the new element may join, ascending, found from
        each class's first member (:meth:`ChainPartition.legal_colors`)."""
        return self.partition.legal_colors(self.poset, self.element)

    def fresh_color(self) -> int:
        return self.partition.top + 1


class FirstFit:
    """Always the smallest color that keeps its class a chain."""

    name = "first-fit"

    def choose(self, view: PartitionerView) -> int:
        legal = view.legal_colors()
        return legal[0] if legal else view.fresh_color()


class RandomValid:
    """Uniform choice among the legal existing colors plus one fresh color."""

    name = "random"

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = random.Random(seed)

    def choose(self, view: PartitionerView) -> int:
        options = view.legal_colors()
        options.append(view.fresh_color())
        return self._rng.choice(options)


class Human:
    """Interactive partitioner: prompts on a channel, re-prompts until legal."""

    name = "human"

    def __init__(self, infile: IO[str] | None = None, outfile: IO[str] | None = None):
        self.infile = infile if infile is not None else sys.stdin
        self.outfile = outfile if outfile is not None else sys.stdout

    def _say(self, text: str) -> None:
        self.outfile.write(text + "\n")
        self.outfile.flush()

    def choose(self, view: PartitionerView) -> int:
        e = view.element
        p = view.poset
        below = p.below(e)
        above = p.above(e)
        incomparable = [x for x in p.elements if x != e and x not in below and x not in above]
        if view.realizer is not None:
            for i, order in enumerate(view.realizer):
                self._say(f"order {i}: [{','.join(str(x) for x in order)}]")
        chains = " ".join(
            f"{color}:[{','.join(str(x) for x in sorted(members))}]"
            for color, members in sorted(view.partition.classes().items())
        )
        prompt = (
            f"element {e}: below={_fmt(below)} above={_fmt(above)} "
            f"incomparable={_fmt(incomparable)}; chains: {chains or 'none'}; color?"
        )
        while True:
            self._say(prompt)
            line = self.infile.readline()
            if not line:
                raise OlcpError("prompt channel closed; game aborted")
            try:
                color = int(line.strip())
            except ValueError:
                self._say("enter a positive integer")
                continue
            if color < 1:
                self._say("enter a positive integer")
                continue
            ok, pair = view.partition.legal(p, e, color)
            if ok:
                return color
            assert pair is not None
            self._say(f"illegal: {pair[0]} and {pair[1]} would share a color but are incomparable")


def _fmt(ids) -> str:
    return "{" + ",".join(str(x) for x in sorted(ids)) + "}"


def make_partitioner(name: str, seed: int | None = None,
                     infile: IO[str] | None = None, outfile: IO[str] | None = None):
    if name == "first-fit":
        return FirstFit()
    if name == "random":
        return RandomValid(seed if seed is not None else 0)
    if name == "human":
        return Human(infile, outfile)
    raise ValueError(f"unknown partitioner {name!r}")
