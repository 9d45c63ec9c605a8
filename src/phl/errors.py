"""Exception types shared across the package.

Every domain failure raised by the library derives from PhlError, so
callers (and the command line front end) can distinguish bad input from
genuine bugs.  InternalInvariantViolation is reserved for conditions
that are mathematically guaranteed; seeing one means the code is wrong,
not the input.
"""

from __future__ import annotations


class PhlError(Exception):
    """Base class for all library errors."""


class MalformedDocument(PhlError):
    """An input document (JSON poset, certificate, spec) is structurally bad."""


class DuplicateLabel(PhlError):
    def __init__(self, label: str):
        super().__init__(f"duplicate label {label!r}")
        self.label = label


class UnknownLabel(PhlError):
    def __init__(self, label: str):
        super().__init__(f"unknown label {label!r}")
        self.label = label


class UnknownElement(PhlError):
    pass


class NotAPartialOrder(PhlError):
    """The given relation violates a partial-order axiom.

    axiom is one of "reflexivity", "antisymmetry", "transitivity";
    witness names the offending labels.
    """

    def __init__(self, axiom: str, witness: tuple):
        super().__init__(f"{axiom} fails at {witness}")
        self.axiom = axiom
        self.witness = witness


class InvalidParameter(PhlError):
    pass


class IndexOutOfRange(PhlError):
    pass


class EmptyPoset(PhlError):
    pass


class DomainMismatch(PhlError):
    pass


class BoundTooLarge(PhlError):
    def __init__(self, requested: int, ceiling: int):
        super().__init__(f"bound {requested} exceeds ceiling {ceiling}")
        self.requested = requested
        self.ceiling = ceiling


class SizeOverflow(PhlError):
    def __init__(self, size: int, ceiling: int):
        super().__init__(f"structure of size {size} exceeds ceiling {ceiling}")
        self.size = size
        self.ceiling = ceiling


class OracleTooLarge(PhlError):
    pass


class NotStrict(PhlError):
    pass


class NotStrictOnto(PhlError):
    pass


class PreconditionFailed(PhlError):
    pass


class UniverseMismatch(PhlError):
    pass


class NotADistributor(PhlError):
    """A distributing-family check failed.

    reason is a short machine-readable tag; index points at the offending
    source when applicable; witness carries (P, l, l2, common_map) for an
    overlap between composition sets.
    """

    def __init__(self, reason: str, message: str, index=None, witness=None):
        super().__init__(message)
        self.reason = reason
        self.index = index
        self.witness = witness


class MalformedCertificate(PhlError):
    pass


class NotConvex(PhlError):
    def __init__(self, which: str, witness: tuple):
        super().__init__(f"{which} is not convex: {witness[0]} <= {witness[1]} <= {witness[2]} escapes")
        self.which = which
        self.witness = witness


class NotIsomorphism(PhlError):
    pass


class CarriersNotDisjoint(PhlError):
    pass


class NotAntichain(PhlError):
    pass


class InternalInvariantViolation(PhlError):
    """A mathematically guaranteed condition failed; this is a bug."""
