"""One bound rule for the five bounded checks.

Each check resolves its bound once through config.check_bound(n_max,
default): None reads as the check's own default; a value that is not an
int, a bool, or an int below 1 raises InvalidParameter; a bound above the
enumeration ceiling raises BoundTooLarge.  graft_pipeline alone reads the
int 0 as "skip the redundant scan".  The CLI passes None when a bound
option is left out, so it prints the bound the library picked.
witness_search takes no bound, so it is not among them.
"""

import json

import pytest

from phl import config, construction, gscheme
from phl.cli import main
from phl.construction import graft_pipeline
from phl.errors import BoundTooLarge, InvalidParameter, NotADistributor
from phl.evsystem import EVMap, build_ev, check_ev_scheme
from phl.examples import chain_graft_spec, zigzag_to_chain_certificate
from phl.gscheme import (
    DistributorSpec,
    bounded_gle_check,
    check_distributor,
    verify_certificate,
)
from phl.homs import HomMap
from phl.poset import catalog
from phl.serialize import certificate_to_doc

N, C3 = catalog("N"), catalog("C", 3)
TAU = HomMap.from_labels(N, C3, {"a": "1", "b": "0", "c": "2", "d": "1"})


def _scheme(n_max):
    system = build_ev(C3)
    return check_ev_scheme(EVMap.identity(system), C3, C3, ["0", "1", "2"], n_max)


# each check, called with a bound, and its documented default
CHECKS = {
    "bounded_gle_check": (lambda b: bounded_gle_check(N, C3, b), config.DEFAULT_SCAN_BOUND),
    "check_distributor": (
        lambda b: check_distributor(DistributorSpec((TAU,), C3), b),
        config.DEFAULT_DISTRIBUTOR_BOUND,
    ),
    "verify_certificate": (
        lambda b: verify_certificate(zigzag_to_chain_certificate(), b),
        config.DEFAULT_DISTRIBUTOR_BOUND,
    ),
    "check_ev_scheme": (_scheme, config.DEFAULT_SCAN_BOUND),
    "graft_pipeline": (lambda b: graft_pipeline(chain_graft_spec(), b), config.DEFAULT_SCAN_BOUND),
}


@pytest.fixture
def resolved(monkeypatch):
    """The bounds config.check_bound returns, in call order."""
    seen = []
    real = config.check_bound

    def spy(n_max, default=None):
        seen.append(real(n_max, default))
        return seen[-1]

    monkeypatch.setattr(config, "check_bound", spy)
    return seen


@pytest.mark.parametrize("name", CHECKS)
def test_none_reads_as_the_checks_default(name, resolved):
    call, default = CHECKS[name]
    call(None)
    assert resolved[0] == default
    resolved.clear()
    call(default - 1)
    assert resolved[0] == default - 1


@pytest.mark.parametrize("bad", [True, False, 2.5, 0.0, 0, -1], ids=repr)
@pytest.mark.parametrize("name", CHECKS)
def test_bad_bounds_raise_invalid_parameter(name, bad):
    call, _ = CHECKS[name]
    if name == "graft_pipeline" and bad == 0 and type(bad) is int:
        assert call(bad).scan is None
        return
    with pytest.raises(InvalidParameter):
        call(bad)


@pytest.mark.parametrize("name", CHECKS)
def test_bound_beyond_the_ceiling_raises(name):
    call, _ = CHECKS[name]
    with pytest.raises(BoundTooLarge):
        call(config.max_bound() + 1)


def test_graft_pipeline_checks_its_bound_before_the_graft(monkeypatch):
    def refuse(spec):
        raise AssertionError("graft built before the bound was checked")

    monkeypatch.setattr(construction, "build_graft", refuse)
    for bad in (2.5, False, config.max_bound() + 1):
        with pytest.raises((InvalidParameter, BoundTooLarge)):
            graft_pipeline(chain_graft_spec(), bad)


def test_single_source_distributor_scans_no_class(monkeypatch):
    def refuse(n_max):
        raise AssertionError("classes walked")

    monkeypatch.setattr(gscheme, "enumerate_connected", refuse)
    assert check_distributor(DistributorSpec((TAU,), C3), 6) is None
    with pytest.raises(AssertionError, match="classes walked"):
        check_distributor(DistributorSpec((TAU, TAU), C3), 6)
    monkeypatch.undo()
    with pytest.raises(NotADistributor) as exc:
        check_distributor(DistributorSpec((TAU, TAU), C3), 6)
    assert exc.value.reason == "overlap"


@pytest.mark.parametrize(
    "argv, line",
    [
        (["verify-cert", "--cert", "{tmp}/cert.json"],
         "certified (distributors machine-checked to n=6)"),
        (["check-gle", "--r", "catalog:N", "--s", "catalog:N"],
         "holds_up_to_bound bound=5 classes=59"),
        (["construct-sum", "--spec", "{tmp}/spec.json"],
         "scan: holds_up_to_bound bound=5 classes=59"),
    ],
    ids=["verify-cert", "check-gle", "construct-sum"],
)
def test_cli_prints_the_bound_the_library_chose(capsys, tmp_path, argv, line):
    (tmp_path / "cert.json").write_text(
        json.dumps(certificate_to_doc(zigzag_to_chain_certificate()))
    )
    (tmp_path / "spec.json").write_text(json.dumps({
        "P": {"labels": ["p0", "p1"], "pairs": [["p0", "p1"]]},
        "Q": {"labels": ["q0", "q1"], "pairs": [["q0", "q1"]]},
        "A": ["p1"], "B": ["q0"], "beta": {"p1": "q0"},
    }))
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 0
    assert line in capsys.readouterr().out.splitlines()
