"""Exception hierarchy shared by all modules."""

from __future__ import annotations


class SupercharError(Exception):
    """Base class for all errors raised by this package."""


class NotAGroup(SupercharError):
    """The supplied multiplication table violates a group axiom."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class IdentityNotZero(NotAGroup):
    """Element 0 of a Cayley table is not the identity."""

    def __init__(self, reason: str = "element 0 is not the identity"):
        super().__init__(reason)


class OrderCapExceeded(SupercharError):
    """A closure or enumeration grew past its configured cap."""


class PrimeRejected(SupercharError):
    """A user-supplied prime fails the admissibility conditions."""


class GroupMismatch(SupercharError):
    """Two class functions live on different groups."""


class NotASubgroup(SupercharError):
    """An element set is not a subgroup of the stated parent."""


class NotAPartition(SupercharError):
    """Blocks do not form a partition of the expected index set."""


class NotASupercharacterTheory(SupercharError):
    """A (irr partition, class partition) pair fails one of the three
    defining conditions.  ``condition`` is 1, 2 or 3 and ``witness``
    locates the failure."""

    def __init__(self, condition: int, message: str, witness: dict):
        super().__init__(message)
        self.condition = condition
        self.witness = witness


class IncompatibleTheories(SupercharError):
    """Superclasses of the subgroup theory do not embed into superclasses
    of the ambient theory."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class IncompatibleFamily(SupercharError):
    """Some comparable pair of subgroups carries incompatible theories."""

    def __init__(self, h1_elements, h2_elements, witness):
        super().__init__(
            f"theories on subgroups {sorted(h1_elements)} <= "
            f"{sorted(h2_elements)} are incompatible (witness element "
            f"{witness})"
        )
        self.h1_elements = tuple(sorted(h1_elements))
        self.h2_elements = tuple(sorted(h2_elements))
        self.witness = witness


class SubgroupNotInFamily(SupercharError):
    """The requested subgroup carries no theory in this family."""


class NotASuperclassFunction(SupercharError):
    """Values are not constant on the superclasses of the given theory."""


class NotACharacter(SupercharError):
    """A class function is not a genuine character (some multiplicity is
    not a nonnegative integer)."""


class InvalidCertificate(SupercharError):
    """A decomposition certificate fails its defining identity or carries
    a term without linear constituents."""


class SchemaError(SupercharError):
    """A structured input file does not match its declared schema."""
