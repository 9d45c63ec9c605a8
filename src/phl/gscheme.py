"""Scheme comparison: bounded scans, distributors, transport certificates.

Write R <=_G S when every poset P admits at least as many strict maps
into S as into R.  Strict-map counts against connected domains
characterize the relation, so bounded_gle_check scans all connected
classes up to a bound; a counterexample refutes R <=_G S outright,
while a clean scan is evidence bounded by n_max.  witness_search needs
no bound: non-isomorphic R and S are separated by a connected P of at
most max(|R|, |S|) elements.

A connected P has a connected image, inside one component of the
target, so #strict(P, R) sums over the components of R.  The scans count
a component class (canonical code) once per P, weighted by its
multiplicity in R and in S, skip a component whose longest chain is
shorter than P's, and keep the counts, by the index of P in class order,
as the class's profile (lovasz.strict_profile): one bounded table keyed
by code holds it beside the copy levels, and every later scan reads it.

The copy vector.  Let d = ind(., S) - ind(., R) be the copy vector of
the lovasz docstring, whose identity writes #strict(P, S) - #strict(P, R)
for connected P as the sum of #strict_onto(P, Q) * d(Q) over the Q of at
most |P| elements, each #strict_onto >= 0.  Levels 1 and 2 hold A1 and
C2 alone, where the count differences are d itself (#strict_onto(C2, A1)
= 0) and come in closed form: #strict(A1, T) = |T|, and #strict(C2, T)
is T's number of strict relations.  The scans compare those before they
group a component, and apply two exact rules from level 3 on; neither
scan's output changes by them.

  1. Let k be the first level with a negative entry.  For |P| < k every
     term is >= 0, so no class below k is a counterexample:
     bounded_gle_check counts from level k on, and classes_checked still
     counts the classes below.  With no negative entry up to n_max (a
     copy-dominated pair) it counts nothing and reports
     holds_up_to_bound, with classes_checked the number of classes up to
     n_max.
  2. Let k be the first level with a nonzero entry.  For |P| < k every
     term is 0, so no class below k separates R and S, and one at level
     k does, so witness_search's first witness, counts and all, is the
     full scan's and lies at level k.  For |P| = |Q| a strict surjection
     is a bijection keeping every relation of P, so #strict_onto(P, Q) > 0
     needs Q to have at least P's relations, with equality only for Q
     isomorphic to P, where it is #aut(P) > 0.  Take Q0 at level k with
     d(Q0) != 0 and the most relations among such; at P = Q0 the sum
     keeps only the term #aut(Q0) * d(Q0), which is nonzero.

A level that is not computed ends the search for k there, which keeps
the rules exact: the copies of a component with more subsets than
config.DEFAULT_SUBSET_CEILING are not walked, so such a pair starts
counting at level 3.

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
rather than failed.  check_distributor verifies a family up to a bound,
returning None or raising NotADistributor.  verify_certificate
recomputes every hypothesis, evaluates the rational count inequality
per used target class exactly, and runs the bounded scan as an
independent sanity check; its report is certified when it names no
failure.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import config
from ._record import record
from .canonical import canonical_form, component_classes, connected_of_size, enumerate_connected, is_isomorphic
from .errors import (
    BoundTooLarge,
    IndexOutOfRange,
    InternalInvariantViolation,
    InvalidParameter,
    MalformedCertificate,
    NotADistributor,
    NotStrictOnto,
)
from .homs import HomMap, count_maps, enumerate_maps, map_tuples
from .lovasz import copy_vector, display_name, embeddable_connected, strict_profile
from .poset import Poset, require_indices, require_nonempty

if TYPE_CHECKING:
    from fractions import Fraction


@record
class WitnessReport:
    """A bounded scan's verdict; witness is (P, (#strict(P, R), #strict(P, S)))."""

    verdict: str  # "holds_up_to_bound" | "counterexample"
    bound: int
    classes_checked: int
    witness: tuple[Poset, tuple[int, int]] | None

    @property
    def holds(self) -> bool:
        return self.verdict == "holds_up_to_bound"


def bounded_gle_check(r: Poset, s: Poset, n_max: int | None = None) -> WitnessReport:
    """Scan connected classes up to n_max for a strict-count violation.

    A1 and C2 are compared in closed form; from level 3 on, the scan counts
    from the copy vector's first negative level (rule 1), so a
    copy-dominated pair is settled with no count.
    """
    require_nonempty(r, s)
    n_max = config.check_bound(n_max, config.DEFAULT_SCAN_BOUND)
    found = _first_difference(r, s, n_max, one_sided=True)
    if found is None:
        return WitnessReport("holds_up_to_bound", n_max, _classes_below(n_max + 1), None)
    i, p, counts = found
    return WitnessReport("counterexample", n_max, i + 1, (p, counts))


def _first_difference(r: Poset, s: Poset, n_max: int, one_sided: bool):
    """(i, p, (#strict(p, r), #strict(p, s))) for the first connected class p
    up to n_max, the i-th, whose counts differ, with the count into r the
    larger when one_sided; None when there is none.  Levels 1 and 2 are read
    in closed form, and the count walk starts at the level the copy vector
    gives (rules 1 and 2 of the module docstring)."""
    for i, (cr, cs) in enumerate(_low_counts(r, s, n_max)):
        if cr > cs or cr != cs and not one_sided:
            return i, connected_of_size(i + 1)[0], (cr, cs)
    if n_max > 2:
        groups = component_classes(r, s)
        start = _start_level(groups, n_max, one_sided)
        if start <= n_max:
            for i, p, cr, cs in _strict_count_pairs(groups, start, n_max):
                if cr > cs or cr != cs and not one_sided:
                    return i, p, (cr, cs)
    return None


def _low_counts(r: Poset, s: Poset, n_max: int) -> tuple[tuple[int, int], ...]:
    """(#strict(P, r), #strict(P, s)) for the classes of levels 1 and 2 up
    to n_max, A1 and C2: a strict map from A1 is an element and one from C2
    a strict relation."""
    return ((r.n, s.n), (r.relation_size - r.n, s.relation_size - s.n))[:n_max]


def _start_level(groups: dict[bytes, list], n_max: int, one_sided: bool) -> int:
    """The first level from 3 on where the copy vector d of the module
    docstring has a negative entry (one_sided, rule 1) or a nonzero one
    (rule 2), or n_max + 1 when no level up to n_max has one.  A level
    above the largest component that does not cancel is zero; when that
    component has more subsets than config.DEFAULT_SUBSET_CEILING, its
    copies are not walked and the level is 3.
    """
    largest = max([c.n for c, mr, ms in groups.values() if mr != ms], default=0)
    if 1 << largest > config.DEFAULT_SUBSET_CEILING:
        return 3
    for m in range(3, min(largest, n_max) + 1):
        if any(v < 0 if one_sided else v for v in copy_vector(groups, m).values()):
            return m
    return n_max + 1


# Entry k: the connected classes of fewer than k elements (partial sums of OEIS A000608).
_CLASSES_BELOW = (0, 0, 1, 2, 5, 15, 59, 297, 1947, 16459, 179800)


def _classes_below(size: int) -> int:
    """The number of connected classes of fewer than size elements, read
    from _CLASSES_BELOW where it reaches and generated past it."""
    if size < len(_CLASSES_BELOW):
        return _CLASSES_BELOW[size]
    return _CLASSES_BELOW[-1] + sum(map(len, map(connected_of_size, range(len(_CLASSES_BELOW) - 1, size))))


def _strict_count_pairs(groups: dict[bytes, list], start: int, n_max: int):
    """Yield (i, p, #strict(p, r), #strict(p, s)) for the i-th connected class
    p, over the classes of start to n_max elements, summed over the
    component groups of r and s as the module docstring describes."""
    shared = [(strict_profile(code), c, c.longest_chain, mr, ms) for code, (c, mr, ms) in groups.items()]
    i = _classes_below(start)
    for size in range(start, n_max + 1):
        for p in connected_of_size(size):
            cr = cs = 0
            for profile, c, top, mr, ms in shared:
                k = profile.get(i)
                if k is None:
                    # one store: threads that count the same class store the same value
                    k = profile[i] = count_maps("strict", p, c) if p.longest_chain <= top else 0
                if k:
                    cr += mr * k
                    cs += ms * k
            yield i, p, cr, cs
            i += 1


def check_distributing(tau: HomMap) -> str:
    """"proved" when the vicinity-profile criterion certifies tau
    distributing, else "inconclusive"; tau must be strict and onto."""
    if not (tau.is_strict and tau.is_onto):
        raise NotStrictOnto("distributing candidates must be strict surjections")
    from .evsystem import ev_profile

    prof = ev_profile(tau)
    if len(set(prof)) < tau.dom.n:
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
    maps = enumerate_maps("strict_onto", q, qprime)
    return [m for m in maps if check_distributing(m) == "proved"]


@record
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


def check_distributor(spec: DistributorSpec, n_max: int | None = None) -> None:
    """Verify a distributor up to n_max; returns None, raises NotADistributor on failure.

    Failure modes: with two or more sources, a source isomorphic to the
    target; a source not provably distributing; or, for some connected
    P within the bound, a strict map P -> target reached through two
    different sources.  One source cannot overlap another, so it scans
    no class.
    """
    n_max = config.check_bound(n_max, config.DEFAULT_DISTRIBUTOR_BOUND)
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
    if len(sources) < 2:
        return
    for p in enumerate_connected(n_max):
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


# -- transport certificates -------------------------------------------------

@record
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
            try:
                require_indices(assigned, i_count, f"lambda[{j}] source class")
            except (IndexOutOfRange, InvalidParameter) as exc:
                raise MalformedCertificate(str(exc)) from exc
            if len(dist.sources) != count:
                raise MalformedCertificate(
                    f"distributor {j} carries {len(dist.sources)} sources, nu[{j}] = {count}"
                )


@record
class InequalityInstance:
    """The count inequality at one used target class: max of terms <= rhs."""

    target_name: str
    terms: tuple[tuple[str, Fraction], ...]
    lhs: Fraction
    rhs: Fraction

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs


@record
class CertificateReport:
    """verify_certificate's verdict: certified when failure is None."""

    bound: int
    failure: str | None
    inequalities: tuple[InequalityInstance, ...]
    scan: WitnessReport | None

    @property
    def certified(self) -> bool:
        return self.failure is None

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


def _failed(n_max, reason, ineqs=()) -> CertificateReport:
    return CertificateReport(n_max, reason, tuple(ineqs), None)


def verify_certificate(cert: TransportCertificate, n_max: int | None = None) -> CertificateReport:
    """Recheck every certificate hypothesis and the count inequality.

    Returns a certified report only when all hypotheses verify, the
    exact rational inequality holds for every used target class, and
    the independent bounded scan finds no counterexample (the latter
    failing after the former succeed would be a library bug).  On a
    copy-dominated pair, one whose copy vector is >= 0 on every level
    up to the bound, that scan makes no count (rule 1 of the module
    docstring).
    """
    n_max = config.check_bound(n_max, config.DEFAULT_DISTRIBUTOR_BOUND)
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
        if sorted(codes) != list(embeddable_connected(target)):
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
    for j in j_star:
        try:
            check_distributor(cert.distributors[j], n_max)
        except NotADistributor as exc:
            return _failed(
                n_max,
                f"hypothesis (v): distributor for "
                f"{display_name(cert.qprime_classes[j])}: {exc}",
            )

    # the count inequality, in exact rational arithmetic on induced copies
    from fractions import Fraction

    groups_r, groups_s = (component_classes(Poset((), ()), t) for t in (cert.r, cert.s))
    ineqs = []
    for j in j_star:
        qp = cert.qprime_classes[j]
        rhs = Fraction(copy_vector(groups_s, qp.n)[qprime_codes[j]])
        terms = []
        lhs = Fraction(0)
        for i in sorted(set(cert.lam[j])):
            q_ji = sum(1 for i2 in cert.lam[j] if i2 == i)
            val = Fraction(copy_vector(groups_r, cert.q_classes[i].n)[q_codes[i]], q_ji * r_of[i])
            terms.append((display_name(cert.q_classes[i]), val))
            lhs = max(lhs, val)
        ineqs.append(InequalityInstance(display_name(qp), tuple(terms), lhs, rhs))
    bad = [ineq for ineq in ineqs if not ineq.holds]
    if bad:
        return _failed(
            n_max,
            f"count inequality fails at {bad[0].target_name}: "
            f"{bad[0].lhs} > {bad[0].rhs}",
            ineqs,
        )

    scan = bounded_gle_check(cert.r, cert.s, n_max)
    if not scan.holds:
        raise InternalInvariantViolation(
            "certificate verified but the independent scan found a counterexample"
        )
    return CertificateReport(n_max, None, tuple(ineqs), scan)


def witness_search(r: Poset, s: Poset) -> tuple[Poset, tuple[int, int]]:
    """First connected poset separating the strict-map counts of r and s.

    The inputs must be non-isomorphic; a separating witness then exists
    with at most max(|r|, |s|) elements, so the search scans the classes
    up to that size, or up to the enumeration ceiling when that is
    smaller.  Finding none within max(|r|, |s|) is a library bug
    (InternalInvariantViolation); finding none within a smaller ceiling
    raises BoundTooLarge.
    """
    require_nonempty(r, s)
    if is_isomorphic(r, s):
        raise InvalidParameter("witness search requires non-isomorphic posets")
    full = max(r.n, s.n)
    ceiling = config.max_bound()
    found = _first_difference(r, s, min(full, ceiling), one_sided=False)
    if found is not None:
        return found[1:]
    if full > ceiling:
        raise BoundTooLarge(full, ceiling)
    raise InternalInvariantViolation(
        f"no separating poset within max(|r|, |s|) = {full} elements"
    )
