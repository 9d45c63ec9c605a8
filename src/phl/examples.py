"""Bundled worked examples.

Two transport certificates over the catalog posets, the chain-graft
construction spec, and the frozen count matrices they validate against.
The selftest subcommand replays everything here; the test suite pins
the same data independently.
"""

from __future__ import annotations

from .construction import ConstructionSpec
from .gscheme import DistributorSpec, TransportCertificate
from .homs import HomMap
from .poset import Poset, catalog, direct_sum

# frozen counts for the six-class universe A1, C2, V3, Lambda3, N, C3
# against the targets N and A1+C3
UPPER_UNIVERSE = ("A1", "C2", "V3", "Lambda3", "N", "C3")
UPPER_TARGETS = ("N", "A1+C3")
UPPER_SRO = (
    (1, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0),
    (0, 1, 1, 0, 0, 2),
    (0, 1, 0, 1, 0, 2),
    (0, 1, 1, 1, 1, 5),
    (0, 0, 0, 0, 0, 1),
)
UPPER_EMB = (
    (4, 4),
    (3, 3),
    (2, 0),
    (2, 0),
    (1, 0),
    (0, 1),
)
UPPER_STRICT = (
    (4, 4),
    (3, 3),
    (5, 5),
    (5, 5),
    (8, 8),
    (0, 1),
)

# frozen counts for the seven-class universe A1, C2, V3, Lambda3, N, W, N2
# against the targets W and A1+N2
LOWER_UNIVERSE = ("A1", "C2", "V3", "Lambda3", "N", "W", "N2")
LOWER_TARGETS = ("W", "A1+N2")
LOWER_SRO = (
    (1, 0, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0, 0),
    (0, 1, 1, 0, 0, 0, 0),
    (0, 1, 0, 1, 0, 0, 0),
    (0, 1, 1, 1, 1, 0, 1),
    (0, 1, 3, 1, 2, 1, 3),
    (0, 1, 1, 1, 0, 0, 1),
)
LOWER_EMB = (
    (5, 5),
    (4, 4),
    (4, 4),
    (2, 4),
    (2, 0),
    (2, 0),
    (0, 4),
)
LOWER_STRICT = (
    (5, 5),
    (4, 4),
    (8, 8),
    (6, 8),
    (12, 16),
    (24, 32),
    (10, 16),
)


def zigzag_to_chain_certificate() -> TransportCertificate:
    """The zigzag N compares below the sum of a point and a 3-chain."""
    a1 = catalog("A", 1)
    c2 = catalog("C", 2)
    c3 = catalog("C", 3)
    v3 = catalog("V", 3)
    l3 = catalog("Lambda", 3)
    n = catalog("N")
    r = n
    s = direct_sum(a1, c3)
    q_classes = (a1, c2, v3, l3, n)
    qprime = (a1, c2, c3)
    taus = (
        DistributorSpec((HomMap.from_labels(a1, a1, {"a1": "a1"}),), a1),
        DistributorSpec((HomMap.from_labels(c2, c2, {"0": "0", "1": "1"}),), c2),
        DistributorSpec(
            (
                HomMap.from_labels(v3, c3, {"b": "0", "t1": "1", "t2": "2"}),
                HomMap.from_labels(l3, c3, {"b1": "0", "b2": "1", "t": "2"}),
                HomMap.from_labels(n, c3, {"a": "1", "b": "0", "c": "2", "d": "1"}),
            ),
            c3,
        ),
    )
    return TransportCertificate(
        r, s, q_classes, qprime,
        nu=(1, 1, 3),
        lam=((0,), (1,), (2, 3, 4)),
        distributors=taus,
    )


def fence_to_crown_certificate() -> TransportCertificate:
    """The five-element fence W compares below a point plus the crown N2."""
    a1 = catalog("A", 1)
    c2 = catalog("C", 2)
    v3 = catalog("V", 3)
    l3 = catalog("Lambda", 3)
    n = catalog("N")
    w = catalog("W")
    n2 = catalog("N2")
    r = w
    s = direct_sum(a1, n2)
    q_classes = (a1, c2, v3, l3, n, w)
    qprime = (a1, c2, v3, l3, n2)
    taus = (
        DistributorSpec((HomMap.from_labels(a1, a1, {"a1": "a1"}),), a1),
        DistributorSpec((HomMap.from_labels(c2, c2, {"0": "0", "1": "1"}),), c2),
        DistributorSpec(
            (HomMap.from_labels(v3, v3, {"b": "b", "t1": "t1", "t2": "t2"}),), v3
        ),
        DistributorSpec(
            (HomMap.from_labels(l3, l3, {"b1": "b1", "b2": "b2", "t": "t"}),), l3
        ),
        DistributorSpec(
            (
                HomMap.from_labels(n, n2, {"a": "a1", "b": "a2", "c": "b1", "d": "b2"}),
                HomMap.from_labels(n, n2, {"a": "a2", "b": "a1", "c": "b1", "d": "b2"}),
                HomMap.from_labels(
                    w, n2, {"b1": "a1", "b2": "a2", "t1": "b1", "t2": "b2", "t3": "b1"}
                ),
            ),
            n2,
        ),
    )
    return TransportCertificate(
        r, s, q_classes, qprime,
        nu=(1, 1, 1, 1, 3),
        lam=((0,), (1,), (2,), (3,), (4, 4, 5)),
        distributors=taus,
    )


def chain_graft_spec() -> ConstructionSpec:
    """Graft one 2-chain onto the bottom of another: C2 + C2 vs A1 + C3."""
    p = Poset(("p0", "p1"), (0b11, 0b10))
    q = Poset(("q0", "q1"), (0b11, 0b10))
    return ConstructionSpec.from_labels(p, q, ["p1"], ["q0"], {"p1": "q0"})
