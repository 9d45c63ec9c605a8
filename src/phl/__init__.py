"""Order arithmetic for finite posets.

Core objects: Poset, homomorphism-class counting and enumeration,
vicinity systems, strict-count factorization through connected classes,
transport certificates, and the grafting construction for ordinal sums.

Submodules load on first use (PEP 562): `import phl` is cheap, and
`phl.count_maps` or `phl.homs` imports only the module that owns it.
"""

from importlib import import_module

__version__ = "0.1.0"

# Every submodule, with the names the package re-exports from it.
_EXPORTS = {
    "_bits": (),
    "canonical": (
        "canonical_form", "canonicalize", "enumerate_connected",
        "enumerate_posets", "is_isomorphic",
    ),
    "cli": (),
    "config": (),
    "construction": (
        "ConstructionSpec", "GraftResult", "antichain_ev_extension",
        "build_graft", "graft_pipeline",
    ),
    "errors": (
        "BoundTooLarge", "CarriersNotDisjoint", "DomainMismatch",
        "DuplicateLabel", "EmptyPoset", "IndexOutOfRange",
        "InternalInvariantViolation", "InvalidParameter",
        "MalformedCertificate", "MalformedDocument", "NotADistributor",
        "NotAPartialOrder", "NotAntichain", "NotConvex", "NotIsomorphism",
        "NotStrict", "NotStrictOnto", "OracleTooLarge", "PhlError",
        "PreconditionFailed", "SizeOverflow", "UniverseMismatch",
        "UnknownElement", "UnknownLabel",
    ),
    "evsystem": (
        "EVElement", "EVMap", "EVSystem", "build_ev", "check_ev_scheme",
        "ev_at", "ev_profile", "ev_size", "is_strict_ev_hom",
    ),
    "examples": (),
    "gscheme": (
        "DistributorSpec", "TransportCertificate", "bounded_gle_check",
        "check_distributing", "check_distributor", "suggest_distributing",
        "verify_certificate", "witness_search",
    ),
    "homs": (
        "HomMap", "brute_force_count", "count_maps", "enumerate_maps",
        "gamma_class_count", "map_tuples", "pointwise_leq", "quotient",
    ),
    "lovasz": (
        "count_strict_onto_orbits", "embeddable_connected", "factor_matrices",
        "image_class_count", "verify_factorization",
    ),
    "poset": ("Poset",),
    "randgen": (),
    "serialize": (
        "certificate_from_doc", "certificate_to_doc", "parse_catalog_ref",
        "poset_from_doc", "poset_to_doc",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = import_module(f"{__name__}.{name}")
    elif name in _OWNER:
        value = getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
