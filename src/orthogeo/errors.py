"""Exception types raised across the library.

Everything derives from OrthogeoError so callers (and the CLI) can catch
domain problems with one except clause and distinguish them from genuine
usage errors.
"""


class OrthogeoError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidStructure(OrthogeoError):
    """Malformed container input: duplicate ids, bad cover/edge/order data."""


class CycleError(OrthogeoError):
    """The cover relation contains a directed cycle."""


class NotGraded(OrthogeoError):
    """Some cover step does not raise rank by exactly one."""


class UnknownElement(OrthogeoError):
    """An element id was referenced that the poset does not contain."""


class NotMedian(OrthogeoError):
    """The poset is not a median semilattice (or distributive lattice)."""


class NotModularSemilattice(OrthogeoError):
    """The poset is not a semilattice with modular principal ideals."""


class NotModular(OrthogeoError):
    """The lattice is not modular."""


class SizeCap(OrthogeoError):
    """An enumeration would exceed its configured size cap."""


class NotCommonSimplex(OrthogeoError):
    """Two points whose supports do not union to a chain were combined."""


class InvalidPoint(OrthogeoError):
    """Point data is not a convex combination supported on a chain."""


class SupportOutsideFrame(OrthogeoError):
    """A point's support leaves the sublattice a frame can express."""


class JoinUndefined(OrthogeoError):
    """A required join does not exist in the poset."""


class InfiniteFlow(OrthogeoError):
    """Every source-sink cut of the network has infinite capacity."""


class NotBipartitePip(OrthogeoError):
    """The instance is not a bipartite poset-incidence structure."""


class EmptyBlock(OrthogeoError):
    """An arch step moves no mass on one of the two sides."""


class SupportMismatch(OrthogeoError):
    """Point support does not match the arch's blocks."""

