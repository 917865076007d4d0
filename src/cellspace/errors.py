"""Exception types raised by cellspace validators and constructors."""


class CellSpaceError(ValueError):
    """Base class for all cellspace errors."""


class EmptyCell(CellSpaceError):
    """A cell family member is the empty set."""


class MissingRoot(CellSpaceError):
    """The cell family does not contain the full point set."""


class Overlap(CellSpaceError):
    """Two family members overlap without one containing the other."""

    def __init__(self, a, b, witness):
        self.a = frozenset(a)
        self.b = frozenset(b)
        self.witness = witness
        super().__init__(
            f"cells {sorted(a)} and {sorted(b)} overlap without nesting "
            f"(witness points {witness})"
        )


class NotABase(CellSpaceError):
    """A singleton is missing from the family in strict mode."""

    def __init__(self, point):
        self.point = point
        super().__init__(f"singleton {{{point!r}}} missing; family is not a base")


class NotDisjoint(CellSpaceError):
    """Cells expected to be pairwise disjoint share a point."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"cells are not pairwise disjoint (shared point {witness!r})")


class BrokenCellTree(CellSpaceError):
    """A CellTree violates one of its canonical-form invariants."""


class EmptySubset(CellSpaceError):
    """An induced substructure was requested on the empty set."""


class DuplicateLeafLabel(CellSpaceError):
    """Two leaves of an abstract tree carry the same label."""

    def __init__(self, label):
        self.label = label
        super().__init__(f"duplicate leaf label {label!r}")


class BadAlphabetSize(CellSpaceError):
    """A product level has fewer than two symbols."""


class BadProportion(CellSpaceError):
    """A gap proportion lies outside (0, 1)."""


class NotDecreasing(CellSpaceError):
    """A weight sequence is not strictly decreasing."""


class DepthMismatch(CellSpaceError):
    """Weight sequence length does not match the uniform leaf depth."""


class OverlappingCells(CellSpaceError):
    """Separation requested for cells that are not disjoint."""


class NotProbability(CellSpaceError):
    """Level weights are not a positive probability vector."""


class ZeroDiameterInternalCell(CellSpaceError):
    """An internal cell has zero diameter; regularity ratios are undefined."""


class IsolatedPoint(CellSpaceError):
    """An internal node with a single child was found in an imported family."""


class PointSetMismatch(CellSpaceError):
    """Two metric tables are defined over different point sets."""


class GridTooCoarse(CellSpaceError):
    """The evaluation grid has fewer than three points below 1."""


class FormatError(CellSpaceError):
    """A serialized space, table, or profile is malformed."""
