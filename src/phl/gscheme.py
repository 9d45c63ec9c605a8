"""Scheme comparison: bounded scans, distributors, transport certificates.

Write R <=_G S when every poset P admits at least as many strict maps
into S as into R.  Strict-map counts against connected domains
characterize the relation, so bounded_gle_check scans all connected
classes up to a bound; a counterexample refutes R <=_G S outright,
while a clean scan is evidence bounded by n_max.

A certificate upgrades bounded evidence to a theorem.  Its ingredients:

  * the connected classes Q_1..Q_I embeddable in R and Q'_1..Q'_J
    embeddable in S (hypothesis i);
  * a covering assignment lambda_j sending, for each target class Q'_j,
    nu_j source classes onto Q'_j, such that every Q_i is used at least
    once (hypothesis iii); r(i) counts how many targets use Q_i and
    q_j(i) how often Q_i appears within lambda_j (hypothesis iv);
  * per target class a distributing family tau_1..tau_L: strict
    surjections Q_l -> Q' whose composition sets
    T_l = {tau_l o sigma : sigma strict onto Q_l} are pairwise disjoint
    for every connected P; when L >= 2 no Q_l may be isomorphic to Q'
    (hypothesis v).

check_distributing proves a single surjection distributing when its
vicinity profile is injective and, for every collision, the down images
and up images are both disjoint; otherwise it reports inconclusive
rather than failed.  check_distributor verifies a family up to a bound.
verify_certificate recomputes every hypothesis, evaluates the rational
count inequality per used target class exactly, and runs the bounded
scan as an independent sanity check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import config
from .canonical import canonical_form, enumerate_connected, is_isomorphic
from .errors import (
    InternalInvariantViolation,
    InvalidParameter,
    MalformedCertificate,
    NoWitnessFound,
    NotADistributor,
    NotStrictOnto,
)
from .homs import HomMap, count_maps, map_tuples
from .lovasz import display_name, embeddable_connected
from .poset import Poset, require_nonempty


@dataclass(frozen=True)
class WitnessReport:
    verdict: str  # "holds_up_to_bound" | "counterexample"
    bound: int
    classes_checked: int
    witness: tuple[Poset, tuple[int, int]] | None

    @property
    def holds(self) -> bool:
        return self.verdict == "holds_up_to_bound"


def bounded_gle_check(r: Poset, s: Poset, n_max: int | None = None) -> WitnessReport:
    """Scan connected classes up to n_max for a strict-count violation."""
    require_nonempty(r, s)
    if n_max is None:
        n_max = config.DEFAULT_SCAN_BOUND
    config.check_bound(n_max)
    checked = 0
    for p in enumerate_connected(n_max):
        checked += 1
        cr = count_maps("strict", p, r)
        cs = count_maps("strict", p, s)
        if cr > cs:
            return WitnessReport("counterexample", n_max, checked, (p, (cr, cs)))
    return WitnessReport("holds_up_to_bound", n_max, checked, None)


def check_distributing(tau: HomMap) -> str:
    """"proved" when the vicinity-profile criterion certifies tau
    distributing, else "inconclusive"; tau must be strict and onto."""
    if not (tau.is_strict and tau.is_onto):
        raise NotStrictOnto("distributing candidates must be strict surjections")
    from .evsystem import ev_profile

    prof = ev_profile(tau)
    if len(set(prof.triples)) < tau.dom.n:
        return "inconclusive"
    f = tau.map
    n = tau.dom.n
    for x in range(n):
        for y in range(x + 1, n):
            if f[x] != f[y]:
                continue
            ex, ey = prof[x], prof[y]
            if ex.down & ey.down or ex.up & ey.up:
                return "inconclusive"
    return "proved"


def suggest_distributing(q: Poset, qprime: Poset) -> list[HomMap]:
    """Experimental scan: strict surjections q -> qprime that prove
    distributing.  Absence from the list does not refute a candidate."""
    maps = (HomMap(q, qprime, sol) for sol in sorted(map_tuples("strict_onto", q, qprime)))
    return [m for m in maps if check_distributing(m) == "proved"]


@dataclass(frozen=True)
class DistributorSpec:
    """A family of strict surjections sharing one target class."""

    sources: tuple[HomMap, ...]
    target: Poset

    def __post_init__(self):
        for k, tau in enumerate(self.sources):
            if tau.cod != self.target:
                raise InvalidParameter(f"source {k} does not map into the target")
            if not (tau.is_strict and tau.is_onto):
                raise NotStrictOnto(f"source {k} is not a strict surjection")


@dataclass(frozen=True)
class DistributorReport:
    bound: int
    classes_checked: int
    source_count: int


def check_distributor(spec: DistributorSpec, n_max: int | None = None) -> DistributorReport:
    """Verify a distributor up to n_max; raises NotADistributor on failure.

    Failure modes: with two or more sources, a source isomorphic to the
    target; a source not provably distributing; or, for some connected
    P within the bound, a strict map P -> target reached through two
    different sources.
    """
    if n_max is None:
        n_max = config.DEFAULT_DISTRIBUTOR_BOUND
    config.check_bound(n_max)
    sources = spec.sources
    if len(sources) >= 2:
        for k, tau in enumerate(sources):
            if is_isomorphic(tau.dom, spec.target):
                raise NotADistributor(
                    "source-isomorphic-to-target",
                    f"source {k} is isomorphic to the target, "
                    "which a family of two or more forbids",
                    index=k,
                )
    for k, tau in enumerate(sources):
        if check_distributing(tau) != "proved":
            raise NotADistributor(
                "not-provably-distributing",
                f"source {k} fails the distributing criterion",
                index=k,
            )
    checked = 0
    for p in enumerate_connected(n_max):
        checked += 1
        if len(sources) < 2:
            continue
        seen: dict[tuple[int, ...], int] = {}
        for k, tau in enumerate(sources):
            f = tau.map
            for sol in map_tuples("strict_onto", p, tau.dom):
                composite = tuple(f[v] for v in sol)
                other = seen.setdefault(composite, k)
                if other != k:
                    witness_map = HomMap(p, spec.target, composite)
                    raise NotADistributor(
                        "overlap",
                        f"sources {other} and {k} both reach {witness_map.label_map()} "
                        f"on a connected poset of size {p.n}",
                        index=(other, k),
                        witness=(p, other, k, witness_map),
                    )
    return DistributorReport(n_max, checked, len(sources))


# -- transport certificates -------------------------------------------------

@dataclass(frozen=True)
class TransportCertificate:
    """Certificate data for R <=_G S.

    q_classes and qprime_classes list the source and target classes;
    nu[j] is the source multiplicity for target class j; lam[j] lists
    the nu[j] source-class positions assigned to j; distributors[j]
    carries the distributing family for j (empty when nu[j] == 0).
    """

    r: Poset
    s: Poset
    q_classes: tuple[Poset, ...]
    qprime_classes: tuple[Poset, ...]
    nu: tuple[int, ...]
    lam: tuple[tuple[int, ...], ...]
    distributors: tuple[DistributorSpec, ...]

    def __post_init__(self):
        j_count = len(self.qprime_classes)
        if not (len(self.nu) == len(self.lam) == len(self.distributors) == j_count):
            raise MalformedCertificate(
                "nu, lambda and distributors must align with the target classes"
            )
        i_count = len(self.q_classes)
        for j, (count, assigned, dist) in enumerate(
            zip(self.nu, self.lam, self.distributors)
        ):
            if count < 0:
                raise MalformedCertificate(f"nu[{j}] is negative")
            if len(assigned) != count:
                raise MalformedCertificate(
                    f"lambda[{j}] lists {len(assigned)} classes, nu[{j}] = {count}"
                )
            for i in assigned:
                if not (0 <= i < i_count):
                    raise MalformedCertificate(
                        f"lambda[{j}] references source class {i} out of range"
                    )
            if len(dist.sources) != count:
                raise MalformedCertificate(
                    f"distributor {j} carries {len(dist.sources)} sources, nu[{j}] = {count}"
                )


@dataclass(frozen=True)
class InequalityInstance:
    target_name: str
    terms: tuple[tuple[str, Fraction], ...]
    lhs: Fraction
    rhs: Fraction

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs


@dataclass(frozen=True)
class CertificateReport:
    verdict: str  # "certified" | "failed"
    bound: int
    failure: str | None
    inequalities: tuple[InequalityInstance, ...]
    distributor_reports: tuple[DistributorReport, ...]
    scan: WitnessReport | None

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"

    def summary(self) -> str:
        lines = []
        if self.certified:
            lines.append(
                f"certified (distributors machine-checked to n={self.bound})"
            )
        else:
            lines.append(f"failed: {self.failure}")
        for ineq in self.inequalities:
            terms = ", ".join(f"{name}:{val}" for name, val in ineq.terms)
            lines.append(
                f"inequality at {ineq.target_name}: max{{{terms}}} = "
                f"{ineq.lhs} <= {ineq.rhs}"
            )
        if self.scan is not None:
            lines.append(
                f"independent scan: {self.scan.verdict} "
                f"(bound {self.scan.bound}, {self.scan.classes_checked} classes)"
            )
        return "\n".join(lines)


def _failed(n_max, reason, ineqs=(), dreports=()) -> CertificateReport:
    return CertificateReport("failed", n_max, reason, tuple(ineqs), tuple(dreports), None)


def verify_certificate(cert: TransportCertificate, n_max: int | None = None) -> CertificateReport:
    """Recheck every certificate hypothesis and the count inequality.

    Returns a certified report only when all hypotheses verify, the
    exact rational inequality holds for every used target class, and
    the independent bounded scan finds no counterexample (the latter
    failing after the former succeed would be a library bug).
    """
    if n_max is None:
        n_max = config.DEFAULT_DISTRIBUTOR_BOUND
    config.check_bound(n_max)
    require_nonempty(cert.r, cert.s)

    # hypothesis (i): the class lists are exactly the embeddable classes
    side_codes = []
    for side, posets, target in (
        ("R", cert.q_classes, cert.r),
        ("S", cert.qprime_classes, cert.s),
    ):
        codes = [canonical_form(p) for p in posets]
        if len(set(codes)) != len(codes):
            return _failed(n_max, f"hypothesis (i): {side} classes repeat")
        if sorted(codes) != list(embeddable_connected(target).codes):
            return _failed(
                n_max,
                f"hypothesis (i): {side} classes differ from the classes "
                f"embeddable in {side}",
            )
        side_codes.append(codes)
    q_codes, qprime_codes = side_codes

    i_count = len(cert.q_classes)
    j_star = [j for j, count in enumerate(cert.nu) if count >= 1]

    # structural match between lambda and the distributor sources
    for j in j_star:
        dist = cert.distributors[j]
        if canonical_form(dist.target) != qprime_codes[j]:
            raise MalformedCertificate(
                f"distributor {j} targets a poset not isomorphic to target class {j}"
            )
        for k, tau in enumerate(dist.sources):
            if canonical_form(tau.dom) != q_codes[cert.lam[j][k]]:
                raise MalformedCertificate(
                    f"distributor {j} source {k} is not isomorphic to the "
                    f"assigned source class {cert.lam[j][k]}"
                )

    # hypothesis (iii): covering, and the reuse counts r(i)
    r_of = [0] * i_count
    for j in j_star:
        for i in set(cert.lam[j]):
            r_of[i] += 1
    uncovered = [i for i in range(i_count) if r_of[i] == 0]
    if uncovered:
        names = ", ".join(display_name(cert.q_classes[i]) for i in uncovered)
        return _failed(
            n_max, f"hypothesis (iii): source classes not covered: {names}"
        )

    # hypothesis (v): every used target class carries a distributor
    dreports = []
    for j in j_star:
        try:
            dreports.append(check_distributor(cert.distributors[j], n_max))
        except NotADistributor as exc:
            return _failed(
                n_max,
                f"hypothesis (v): distributor for "
                f"{display_name(cert.qprime_classes[j])}: {exc}",
                dreports=dreports,
            )

    # the count inequality, in exact rational arithmetic
    aut_q = [count_maps("aut", p, p) for p in cert.q_classes]
    emb_r = [count_maps("emb", p, cert.r) for p in cert.q_classes]
    ineqs = []
    for j in j_star:
        qp = cert.qprime_classes[j]
        rhs = Fraction(count_maps("emb", qp, cert.s), count_maps("aut", qp, qp))
        terms = []
        lhs = Fraction(0)
        for i in sorted(set(cert.lam[j])):
            q_ji = sum(1 for i2 in cert.lam[j] if i2 == i)
            val = Fraction(emb_r[i], q_ji * r_of[i] * aut_q[i])
            terms.append((display_name(cert.q_classes[i]), val))
            lhs = max(lhs, val)
        ineqs.append(InequalityInstance(display_name(qp), tuple(terms), lhs, rhs))
    bad = [ineq for ineq in ineqs if not ineq.holds]
    if bad:
        return _failed(
            n_max,
            f"count inequality fails at {bad[0].target_name}: "
            f"{bad[0].lhs} > {bad[0].rhs}",
            ineqs=ineqs, dreports=dreports,
        )

    scan = bounded_gle_check(cert.r, cert.s, n_max)
    if not scan.holds:
        raise InternalInvariantViolation(
            "certificate verified but the independent scan found a counterexample"
        )
    return CertificateReport("certified", n_max, None, tuple(ineqs), tuple(dreports), scan)


def witness_search(r: Poset, s: Poset, n_max: int | None = None) -> tuple[Poset, tuple[int, int]]:
    """First connected poset separating the strict-map counts of r and s.

    The inputs must be non-isomorphic; a separating witness then exists
    with at most max(|r|, |s|) elements, which is the default bound.
    NoWitnessFound within that bound signals a bug.
    """
    require_nonempty(r, s)
    if is_isomorphic(r, s):
        raise InvalidParameter("witness search requires non-isomorphic posets")
    if n_max is None:
        n_max = max(r.n, s.n)
    config.check_bound(n_max)
    for p in enumerate_connected(n_max):
        cr = count_maps("strict", p, r)
        cs = count_maps("strict", p, s)
        if cr != cs:
            return p, (cr, cs)
    raise NoWitnessFound(
        f"no separating poset within {n_max} elements; for a bound of at least "
        f"max(|r|, |s|) this indicates a bug"
    )
