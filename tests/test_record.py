"""phl's frozen records behave as frozen dataclasses built from the same fields."""

import copy
import dataclasses
import importlib
import pickle
import pkgutil
from fractions import Fraction

import pytest

import phl
from phl.errors import InvalidParameter, MalformedCertificate, NotStrictOnto
from phl.evsystem import EVMap, build_ev
from phl.examples import fence_to_crown_certificate, zigzag_to_chain_certificate
from phl.gscheme import DistributorSpec, TransportCertificate, WitnessReport, bounded_gle_check
from phl.homs import HomMap
from phl.poset import catalog


def record_classes() -> list[type]:
    """Every class in phl whose __init__ comes from phl._record."""
    found = []
    for info in pkgutil.iter_modules(phl.__path__):
        module = importlib.import_module(f"phl.{info.name}")
        for obj in vars(module).values():
            if (
                isinstance(obj, type)
                and obj.__module__ == module.__name__
                and getattr(vars(obj).get("__init__"), "__module__", None) == "phl._record"
            ):
                found.append(obj)
    return sorted(found, key=lambda cls: (cls.__module__, cls.__qualname__))


RECORDS = record_classes()

# Plain field values of several kinds; the validated records get real ones.
PLAIN = (3, "x", (1, (2,)), None, frozenset({4, 5}), catalog("N"), Fraction(1, 2))
VALIDATED = {
    DistributorSpec: lambda: zigzag_to_chain_certificate().distributors[1:3],
    TransportCertificate: lambda: (zigzag_to_chain_certificate(), fence_to_crown_certificate()),
    EVMap: lambda: (EVMap.identity(build_ev(catalog("C", 2))), EVMap.identity(build_ev(catalog("N")))),
}


def fields_of(cls) -> tuple[str, ...]:
    return tuple(cls.__annotations__)


def twin_of(cls) -> type:
    """A frozen dataclass with cls's annotations, name and validator."""
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    twin = dataclasses.make_dataclass(
        cls.__name__, list(cls.__annotations__.items()), frozen=True, namespace=namespace
    )
    twin.__qualname__ = cls.__qualname__
    return twin


def sample_values(cls) -> tuple[tuple, tuple]:
    """Field values of two distinct sample instances."""
    names = fields_of(cls)
    if cls in VALIDATED:
        return tuple(tuple(getattr(rec, f) for f in names) for rec in VALIDATED[cls]())
    first = tuple(PLAIN[k % len(PLAIN)] for k in range(len(names)))
    second = tuple(PLAIN[(k + 1) % len(PLAIN)] for k in range(len(names)))
    return first, second


def test_every_record_is_found():
    assert [cls.__name__ for cls in RECORDS] == [
        "ConstructionSpec", "EmbRow", "GraftReport", "GraftResult", "RelationParts",
        "EVElement", "EVMap", "EVSchemeReport", "EVSchemeViolation", "CertificateReport",
        "DistributorSpec", "InequalityInstance", "TransportCertificate",
        "WitnessReport", "QuotientFactorization", "CountMatrix", "FactorMatrices",
        "FactorizationReport", "FactorizationTerm",
    ]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_matches_its_dataclass_twin(cls):
    twin = twin_of(cls)
    names = fields_of(cls)
    a, b = sample_values(cls)
    rec, other, mirror = cls(*a), cls(*b), twin(*a)
    assert repr(rec) == repr(mirror)
    assert repr(other) == repr(twin(*b))
    assert rec == cls(*a) and hash(rec) == hash(cls(*a)) == hash(mirror)
    assert hash(other) == hash(twin(*b))
    assert (rec == other) is (mirror == twin(*b)) is False
    assert (rec != other) is (mirror != twin(*b)) is True
    # equality holds only within one class, as for the twin
    assert rec.__eq__(mirror) is mirror.__eq__(rec) is NotImplemented
    assert rec.__eq__(a) is NotImplemented
    assert rec != mirror and not (rec == a)
    # positional, keyword and mixed construction agree
    keywords = dict(zip(names, a))
    assert cls(**keywords) == rec and twin(**keywords) == mirror
    assert cls(a[0], **dict(zip(names[1:], a[1:]))) == rec
    assert vars(rec) == vars(mirror) and list(vars(rec)) == list(names)
    assert cls.__match_args__ == twin.__match_args__ == names


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_rejects_bad_arguments_as_its_twin(cls):
    names = fields_of(cls)
    a, _ = sample_values(cls)
    keywords = dict(zip(names, a))
    bad_calls = [
        (a[:-1], {}),                                   # a positional argument missing
        ((), dict(list(keywords.items())[:-1])),        # a keyword argument missing
        (a, {"no_such_field": 1}),                      # an unexpected keyword
        (a + (1,), {}),                                 # one positional too many
        (a, {names[0]: a[0]}),                          # a field given twice
    ]
    for made in (cls, twin_of(cls)):
        for args, kwargs in bad_calls:
            with pytest.raises(TypeError):
                made(*args, **kwargs)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_is_frozen_as_its_twin(cls):
    name = fields_of(cls)[0]
    a, b = sample_values(cls)
    for made in (cls, twin_of(cls)):
        rec = made(*a)
        for target in (name, "no_such_field"):
            with pytest.raises(AttributeError):
                setattr(rec, target, b[0])
            with pytest.raises(AttributeError):
                delattr(rec, target)
        assert getattr(rec, name) is a[0] and "no_such_field" not in vars(rec)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_pickles_and_copies(cls):
    rec = cls(*sample_values(cls)[0])
    assert copy.copy(rec) == rec
    for clone in (pickle.loads(pickle.dumps(rec)), copy.deepcopy(rec)):
        assert type(clone) is cls and clone == rec and hash(clone) == hash(rec)
        assert repr(clone) == repr(rec)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_has_its_own_docstring(cls):
    assert vars(cls).get("__doc__")


def test_records_match_positionally():
    match bounded_gle_check(catalog("C", 3), catalog("N"), 3):
        case WitnessReport("counterexample", bound, _, (p, (cr, cs))):
            assert bound == 3 and cr > cs and p.n == 3
        case _:
            pytest.fail("C3 vs N has a counterexample within size 3")


def test_validators_still_fire():
    cert = zigzag_to_chain_certificate()
    a1, c2 = catalog("A", 1), catalog("C", 2)
    not_onto = HomMap(a1, c2, (0,))
    with pytest.raises(NotStrictOnto):
        DistributorSpec((not_onto,), c2)
    with pytest.raises(NotStrictOnto):
        DistributorSpec(sources=(not_onto,), target=c2)
    changed = {**vars(cert), "nu": (1, 1)}
    with pytest.raises(MalformedCertificate):
        TransportCertificate(**changed)
    with pytest.raises(MalformedCertificate):
        TransportCertificate(*changed.values())
    system = build_ev(c2)
    with pytest.raises(InvalidParameter):
        EVMap(system, system, ())
    with pytest.raises(InvalidParameter):
        EVMap(source=system, target=system, mapping=(0,))
