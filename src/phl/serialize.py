"""Input and output formats.

Poset documents:  {"labels": [...], "pairs": [["a","b"], ...],
"mode": "covers"|"full"}.  Serialization always emits covers mode with
the cover pairs in carrier order, so parse-serialize round-trips are
stable.

Catalog references: the string grammar NAME(+NAME)* over the catalog
(A1, C3, V3, Lambda4, N, W, N2, ...) denotes iterated direct sums,
left associated.

Certificates: {"R": .., "S": .., "q": [..], "qprime": [..],
"nu": [..], "lambda": [[..]], "distributors": [{"target": ..,
"sources": [{"poset": .., "tau": {label: label}}]}]}.  Poset positions
accept either an inline document or a "catalog:..." string.  "q" may be
omitted, in which case the source classes are recomputed from R in
canonical order; "lambda" indices are zero-based into "q".

Construction specs: {"P": .., "Q": .., "A": [labels], "B": [labels],
"beta": {label: label}}.

DOT output renders the cover relation bottom-up with one rank per
height level; vicinity systems export as JSON lines or DOT with one
cluster per fiber.
"""

from __future__ import annotations

import json
import re
from typing import TYPE_CHECKING

from ._bits import bits
from .errors import MalformedCertificate, MalformedDocument, PhlError
from .homs import HomMap
from .poset import Poset, catalog, direct_sum, from_pairs

if TYPE_CHECKING:
    from .construction import ConstructionSpec
    from .evsystem import EVSystem
    from .gscheme import TransportCertificate

_CATALOG_TOKEN = re.compile(r"^(A|C|V|Lambda|N2|N|W)(\d*)$")


def poset_from_doc(doc) -> Poset:
    """Parse a poset document; malformed shapes raise MalformedDocument."""
    if not isinstance(doc, dict):
        raise MalformedDocument("poset document must be an object")
    extra = set(doc) - {"labels", "pairs", "mode"}
    if extra:
        raise MalformedDocument(f"unknown poset document keys: {sorted(extra)}")
    labels = doc.get("labels")
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise MalformedDocument("labels must be a list of strings")
    pairs = doc.get("pairs", [])
    if not isinstance(pairs, list):
        raise MalformedDocument("pairs must be a list")
    for pair in pairs:
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(x, str) for x in pair)
        ):
            raise MalformedDocument(f"bad pair {pair!r}")
    mode = doc.get("mode", "covers")
    if mode not in ("covers", "full"):
        raise MalformedDocument(f"mode must be 'covers' or 'full', got {mode!r}")
    try:
        return from_pairs(labels, [tuple(p) for p in pairs], mode)
    except PhlError as exc:
        raise MalformedDocument(f"invalid poset document: {exc}") from exc


def poset_to_doc(p: Poset) -> dict:
    return {
        "labels": list(p.labels),
        "pairs": [[p.labels[i], p.labels[j]] for i, j in p.cover_pairs()],
        "mode": "covers",
    }


def parse_catalog_ref(text: str) -> Poset:
    """Resolve NAME(+NAME)* into an iterated direct sum."""
    tokens = text.split("+")
    out = None
    for tok in tokens:
        m = _CATALOG_TOKEN.match(tok.strip())
        if not m:
            raise MalformedDocument(f"bad catalog token {tok!r}")
        name, knum = m.groups()
        if name in ("N", "W", "N2"):
            if knum:
                raise MalformedDocument(f"catalog name {name} takes no size")
            piece = catalog(name)
        else:
            if not knum:
                raise MalformedDocument(f"catalog name {name} needs a size")
            try:
                piece = catalog(name, int(knum))
            except PhlError as exc:
                raise MalformedDocument(str(exc)) from exc
        out = piece if out is None else direct_sum(out, piece)
    return out


def poset_from_value(value) -> Poset:
    """A poset position in a larger document: inline doc or catalog ref."""
    if isinstance(value, str):
        if value.startswith("catalog:"):
            return parse_catalog_ref(value[len("catalog:"):])
        raise MalformedDocument(f"string poset value must use catalog:, got {value!r}")
    return poset_from_doc(value)


def _load_json(path: str, error: type[PhlError]):
    """Parse a JSON file; unreadable files and bad JSON raise error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise error(f"bad JSON in {path}: {exc}") from exc


def load_poset_arg(arg: str) -> Poset:
    """Command-line poset argument: catalog:REF, file:PATH, or a bare path."""
    if arg.startswith("catalog:"):
        return parse_catalog_ref(arg[len("catalog:"):])
    path = arg[len("file:"):] if arg.startswith("file:") else arg
    return poset_from_doc(_load_json(path, MalformedDocument))


# -- DOT ------------------------------------------------------------------

def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def poset_to_dot(p: Poset, name: str = "poset") -> str:
    lines = [f"digraph {_quote(name)} {{", "  rankdir=BT;", "  node [shape=plaintext];"]
    for lab in p.labels:
        lines.append(f"  {_quote(lab)};")
    by_height: dict[int, list[str]] = {}
    for i, lab in enumerate(p.labels):
        by_height.setdefault(p.heights[i], []).append(lab)
    for h in sorted(by_height):
        row = " ".join(f"{_quote(lab)};" for lab in by_height[h])
        lines.append(f"  {{ rank=same; {row} }}")
    for i, j in p.cover_pairs():
        lines.append(f"  {_quote(p.labels[i])} -> {_quote(p.labels[j])};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- vicinity systems -------------------------------------------------------

def ev_to_jsonl(system: EVSystem) -> str:
    base = system.base
    lines = []
    for e in system.elements:
        lines.append(json.dumps({
            "anchor": base.labels[e.anchor],
            "down": [base.labels[i] for i in bits(e.down)],
            "up": [base.labels[i] for i in bits(e.up)],
        }, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def ev_to_dot(system: EVSystem, name: str = "ev") -> str:
    base = system.base
    ids = [e.render(base) for e in system.elements]
    lines = [f"digraph {_quote(name)} {{", "  rankdir=BT;", "  node [shape=plaintext];"]
    for x in range(base.n):
        members = [ids[i] for i, e in enumerate(system.elements) if e.anchor == x]
        lines.append(f"  subgraph {_quote('cluster_' + base.labels[x])} {{")
        lines.append(f"    label={_quote(base.labels[x])};")
        for m in members:
            lines.append(f"    {_quote(m)};")
        lines.append("  }")
    for i in range(len(system.elements)):
        for j in bits(system._lt_rows[i]):
            lines.append(f"  {_quote(ids[i])} -> {_quote(ids[j])};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- certificates -----------------------------------------------------------

def _tau_from_doc(doc, dom: Poset, cod: Poset) -> HomMap:
    if not isinstance(doc, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in doc.items()
    ):
        raise MalformedCertificate("tau must map labels to labels")
    try:
        return HomMap.from_labels(dom, cod, doc)
    except PhlError as exc:
        raise MalformedCertificate(f"bad tau: {exc}") from exc


def _cert_poset(value) -> Poset:
    """poset_from_value, reporting a malformed poset as MalformedCertificate."""
    try:
        return poset_from_value(value)
    except MalformedDocument as exc:
        raise MalformedCertificate(str(exc)) from exc


def certificate_from_doc(doc) -> TransportCertificate:
    from .gscheme import DistributorSpec, TransportCertificate
    from .lovasz import embeddable_connected

    if not isinstance(doc, dict):
        raise MalformedCertificate("certificate must be an object")
    required = {"R", "S", "qprime", "nu", "lambda", "distributors"}
    missing = required - set(doc)
    if missing:
        raise MalformedCertificate(f"certificate lacks keys: {sorted(missing)}")
    extra = set(doc) - required - {"q"}
    if extra:
        raise MalformedCertificate(f"unknown certificate keys: {sorted(extra)}")
    r = _cert_poset(doc["R"])
    s = _cert_poset(doc["S"])
    if "q" in doc:
        if not isinstance(doc["q"], list):
            raise MalformedCertificate("q must be a list")
        q_classes = tuple(_cert_poset(v) for v in doc["q"])
    else:
        q_classes = embeddable_connected(r).posets
    if not isinstance(doc["qprime"], list):
        raise MalformedCertificate("qprime must be a list")
    qprime = tuple(_cert_poset(v) for v in doc["qprime"])
    nu = doc["nu"]
    lam = doc["lambda"]
    dists = doc["distributors"]
    if not (
        isinstance(nu, list)
        and all(isinstance(v, int) and not isinstance(v, bool) for v in nu)
    ):
        raise MalformedCertificate("nu must be a list of integers")
    if not isinstance(lam, list) or not all(isinstance(row, list) for row in lam):
        raise MalformedCertificate("lambda must be a list of lists")
    for row in lam:
        for v in row:
            if not isinstance(v, int) or isinstance(v, bool):
                raise MalformedCertificate("lambda entries must be integers")
    if not isinstance(dists, list):
        raise MalformedCertificate("distributors must be a list")
    specs = []
    for j, dd in enumerate(dists):
        if not isinstance(dd, dict) or set(dd) - {"target", "sources"}:
            raise MalformedCertificate(f"bad distributor object at {j}")
        if "target" in dd:
            target = _cert_poset(dd["target"])
        elif j < len(qprime):
            target = qprime[j]
        else:
            raise MalformedCertificate(f"distributor {j} has no target")
        sources = []
        for sd in dd.get("sources", []):
            if not isinstance(sd, dict) or set(sd) - {"poset", "tau"} or "poset" not in sd or "tau" not in sd:
                raise MalformedCertificate(f"bad source object in distributor {j}")
            sources.append(_tau_from_doc(sd["tau"], _cert_poset(sd["poset"]), target))
        try:
            specs.append(DistributorSpec(tuple(sources), target))
        except PhlError as exc:
            raise MalformedCertificate(f"bad distributor {j}: {exc}") from exc
    try:
        return TransportCertificate(
            r, s, q_classes, qprime,
            tuple(nu), tuple(tuple(row) for row in lam), tuple(specs),
        )
    except MalformedCertificate:
        raise
    except PhlError as exc:
        raise MalformedCertificate(str(exc)) from exc


def certificate_to_doc(cert: TransportCertificate) -> dict:
    return {
        "R": poset_to_doc(cert.r),
        "S": poset_to_doc(cert.s),
        "q": [poset_to_doc(p) for p in cert.q_classes],
        "qprime": [poset_to_doc(p) for p in cert.qprime_classes],
        "nu": list(cert.nu),
        "lambda": [list(row) for row in cert.lam],
        "distributors": [
            {
                "target": poset_to_doc(d.target),
                "sources": [
                    {"poset": poset_to_doc(tau.dom), "tau": tau.label_map()}
                    for tau in d.sources
                ],
            }
            for d in cert.distributors
        ],
    }


def load_certificate(path: str) -> TransportCertificate:
    return certificate_from_doc(_load_json(path, MalformedCertificate))


# -- construction specs ------------------------------------------------------

def construction_spec_from_doc(doc) -> ConstructionSpec:
    from .construction import ConstructionSpec

    if not isinstance(doc, dict):
        raise MalformedDocument("construction spec must be an object")
    required = {"P", "Q", "A", "B", "beta"}
    missing = required - set(doc)
    if missing:
        raise MalformedDocument(f"construction spec lacks keys: {sorted(missing)}")
    extra = set(doc) - required
    if extra:
        raise MalformedDocument(f"unknown construction spec keys: {sorted(extra)}")
    p = poset_from_value(doc["P"])
    q = poset_from_value(doc["Q"])
    for key in ("A", "B"):
        if not isinstance(doc[key], list) or not all(isinstance(x, str) for x in doc[key]):
            raise MalformedDocument(f"{key} must be a list of labels")
    beta = doc["beta"]
    if not isinstance(beta, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in beta.items()
    ):
        raise MalformedDocument("beta must map labels to labels")
    try:
        return ConstructionSpec.from_labels(p, q, doc["A"], doc["B"], beta)
    except PhlError as exc:
        raise MalformedDocument(f"invalid construction spec: {exc}") from exc


def load_construction_spec(path: str) -> ConstructionSpec:
    return construction_spec_from_doc(_load_json(path, MalformedDocument))
