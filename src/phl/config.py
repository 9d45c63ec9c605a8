"""Default bounds and ceilings.

All scans over "every poset up to n elements" are bounded; these are the
package-wide defaults.  PHL_MAX_BOUND (environment) caps every such
bound, including the enumeration ceiling itself.
"""

from __future__ import annotations

import os

from .errors import BoundTooLarge, InvalidParameter

# Default bound for comparison scans and scheme checks.
DEFAULT_SCAN_BOUND = 5
# Default bound for distributor disjointness scans.
DEFAULT_DISTRIBUTOR_BOUND = 6
# Brute-force oracles refuse more raw maps than this.
DEFAULT_ORACLE_CEILING = 10**7
# Extended-vicinity systems refuse more points than this.
DEFAULT_EV_CEILING = 2**16
# Embeddable-class scans refuse a target component with more subsets than this.
DEFAULT_SUBSET_CEILING = 2**12
# DOT export of an extended-vicinity system refuses more <+ edges than this.
DEFAULT_DOT_EDGE_CEILING = 2**20
# Enumeration of isomorphism classes refuses sizes beyond this.
DEFAULT_MAX_BOUND = 7

_ENV_MAX_BOUND = "PHL_MAX_BOUND"


def max_bound() -> int:
    """The enumeration ceiling, honouring the PHL_MAX_BOUND override."""
    raw = os.environ.get(_ENV_MAX_BOUND)
    if raw is None:
        return DEFAULT_MAX_BOUND
    try:
        value = int(raw)
    except ValueError:
        raise InvalidParameter(f"{_ENV_MAX_BOUND} must be an integer, got {raw!r}")
    if value < 1:
        raise InvalidParameter(f"{_ENV_MAX_BOUND} must be positive, got {value}")
    return value


def check_bound(n_max: int | None, default: int | None = None) -> int:
    """Validate a scan bound against the enumeration ceiling; None reads as default."""
    if n_max is None:
        n_max = default
    if not isinstance(n_max, int) or isinstance(n_max, bool):
        raise InvalidParameter(f"bound must be an integer, got {n_max!r}")
    if n_max < 1:
        raise InvalidParameter(f"bound must be at least 1, got {n_max}")
    ceiling = max_bound()
    if n_max > ceiling:
        raise BoundTooLarge(n_max, ceiling)
    return n_max
