"""Exception types shared across the package."""


class IfdError(Exception):
    """Base class for all library errors."""


class TooFewVertices(IfdError):
    """A polygonal curve needs at least two distinct vertices."""


class OutOfRange(IfdError):
    """Arc-length or parameter-space coordinate outside its valid interval."""


class AntiparallelCell(IfdError):
    """The cell's segments point in opposite directions, so its axis lies at
    infinity and it has no finite centre; only
    :func:`~ifd.param_space.free_space_axes` raises it."""


class BudgetExceeded(IfdError):
    """Building the requested structure would exceed the vertex budget."""

    def __init__(self, projected, budget):
        self.projected = int(projected)
        self.budget = int(budget)
        super().__init__(
            f"projected {self.projected} vertices exceeds budget {self.budget}"
        )


class DegenerateBall(IfdError):
    """A grid ball whose radius or mesh is not positive and finite; use the bare center point instead."""


class NoFeasibleGraph(IfdError):
    """Every requested graph exceeded the vertex budget."""


class Disconnected(IfdError):
    """No source-to-sink path exists in the (single) requested graph."""


class NotMonotone(IfdError):
    """A path moved backwards along one of the parameter axes."""
