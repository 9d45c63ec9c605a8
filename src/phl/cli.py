"""Command line front end.

Exit codes: 0 success (or positive verdict), 1 usage error, 2 domain
failure or negative verdict, 3 malformed input, 4 internal invariant
violated (a bug in phl, never a verdict).  With --json, errors are
emitted as one JSON object on stderr.

Each subcommand imports the modules it calls when it runs, so a cold
start loads only what that subcommand needs.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from . import config
from .errors import (
    InternalInvariantViolation,
    MalformedCertificate,
    MalformedDocument,
    PhlError,
)
from .homs import KINDS

if TYPE_CHECKING:
    from .poset import Poset


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _poset_arg(text: str) -> Poset:
    from .serialize import load_poset_arg

    return load_poset_arg(text)


def _target_name(text: str) -> str:
    if text.startswith("catalog:"):
        return text[len("catalog:"):]
    path = text[len("file:"):] if text.startswith("file:") else text
    stem = path.rsplit("/", 1)[-1]
    return stem[:-5] if stem.endswith(".json") else stem


def build_parser() -> _Parser:
    parser = _Parser(prog="phl", description="finite-poset order arithmetic")
    parser.add_argument("--json", action="store_true", help="structured JSON errors")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("catalog", parents=[], help="print a catalog poset as JSON")
    sp.add_argument("ref", help="catalog reference, e.g. N or A1+C3")
    sp.set_defaults(func=cmd_catalog)

    sp = sub.add_parser("count", help="count maps of a class")
    sp.add_argument("--kind", required=True, choices=KINDS)
    sp.add_argument("--p", required=True, help="domain poset (catalog: or file)")
    sp.add_argument("--q", required=True, help="codomain poset")
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("enumerate", help="list maps of a class")
    sp.add_argument("--kind", required=True, choices=KINDS)
    sp.add_argument("--p", required=True)
    sp.add_argument("--q", required=True)
    sp.add_argument("--emit", choices=["jsonl", "text"], default="text")
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("matrix", help="factorization count matrices")
    sp.add_argument("--targets", required=True, nargs="+")
    sp.add_argument("--format", choices=["csv", "pretty"], default="pretty")
    sp.set_defaults(func=cmd_matrix)

    sp = sub.add_parser("verify-cert", help="verify a transport certificate")
    sp.add_argument("--cert", required=True)
    sp.add_argument("--bound", type=int, default=config.DEFAULT_DISTRIBUTOR_BOUND)
    sp.set_defaults(func=cmd_verify_cert)

    sp = sub.add_parser("check-gle", help="bounded strict-count comparison scan")
    sp.add_argument("--r", required=True)
    sp.add_argument("--s", required=True)
    sp.add_argument("--bound", type=int, default=config.DEFAULT_SCAN_BOUND)
    sp.set_defaults(func=cmd_check_gle)

    sp = sub.add_parser("witness", help="find a separating connected poset")
    sp.add_argument("--r", required=True)
    sp.add_argument("--s", required=True)
    sp.add_argument("--bound", type=int, default=None)
    sp.set_defaults(func=cmd_witness)

    sp = sub.add_parser("construct-sum", help="graft construction pipeline")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--emit", default=None, help="write the graft poset as JSON")
    sp.add_argument("--verify-bound", type=int, default=config.DEFAULT_SCAN_BOUND)
    sp.set_defaults(func=cmd_construct_sum)

    sp = sub.add_parser("ev", help="export a vicinity system")
    sp.add_argument("--p", required=True)
    sp.add_argument("--format", choices=["jsonl", "dot"], default="jsonl")
    sp.set_defaults(func=cmd_ev)

    sp = sub.add_parser("dot", help="render a poset cover diagram")
    sp.add_argument("--p", required=True)
    sp.set_defaults(func=cmd_dot)

    sp = sub.add_parser("suggest", help="experimental: scan for distributing maps")
    sp.add_argument("--q", required=True)
    sp.add_argument("--qprime", required=True)
    sp.set_defaults(func=cmd_suggest)

    sp = sub.add_parser("selftest", help="replay the bundled worked examples")
    sp.add_argument("--bound", type=int, default=4)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_selftest)
    return parser


def cmd_catalog(args) -> int:
    from .serialize import parse_catalog_ref, poset_to_doc

    ref = args.ref
    if ref.startswith("catalog:"):
        ref = ref[len("catalog:"):]
    print(json.dumps(poset_to_doc(parse_catalog_ref(ref)), indent=2))
    return 0


def cmd_count(args) -> int:
    from .homs import count_maps

    print(count_maps(args.kind, _poset_arg(args.p), _poset_arg(args.q)))
    return 0


def cmd_enumerate(args) -> int:
    from .homs import enumerate_maps

    for m in enumerate_maps(args.kind, _poset_arg(args.p), _poset_arg(args.q)):
        lab = m.label_map()
        if args.emit == "jsonl":
            print(json.dumps(lab, separators=(",", ":")))
        else:
            print(" ".join(f"{a}>{b}" for a, b in lab.items()))
    return 0


def cmd_matrix(args) -> int:
    from .lovasz import embeddable_connected, factor_matrices

    targets = [_poset_arg(t) for t in args.targets]
    names = [_target_name(t) for t in args.targets]
    rows = embeddable_connected(*targets).posets
    mats = factor_matrices(rows, targets, target_names=names)
    render = (lambda m: m.to_csv()) if args.format == "csv" else (lambda m: m.to_pretty())
    print("# strict-surjection orbits")
    print(render(mats.sro), end="")
    print("# embeddings")
    print(render(mats.emb), end="")
    print("# strict maps")
    print(render(mats.strict), end="")
    return 0


def cmd_verify_cert(args) -> int:
    from .gscheme import verify_certificate
    from .serialize import load_certificate

    cert = load_certificate(args.cert)
    report = verify_certificate(cert, args.bound)
    print(report.summary())
    return 0 if report.certified else 2


def cmd_check_gle(args) -> int:
    from .gscheme import bounded_gle_check
    from .lovasz import display_name

    report = bounded_gle_check(_poset_arg(args.r), _poset_arg(args.s), args.bound)
    if report.holds:
        print(f"holds_up_to_bound bound={report.bound} classes={report.classes_checked}")
        return 0
    p, (cr, cs) = report.witness
    print(
        f"counterexample size={p.n} class={display_name(p)} counts=({cr},{cs})"
    )
    return 2


def cmd_witness(args) -> int:
    from .gscheme import witness_search
    from .lovasz import display_name
    from .serialize import poset_to_doc

    p, (cr, cs) = witness_search(_poset_arg(args.r), _poset_arg(args.s), args.bound)
    print(f"witness size={p.n} class={display_name(p)} counts=({cr},{cs})")
    print(json.dumps(poset_to_doc(p)))
    return 0


def cmd_construct_sum(args) -> int:
    from .construction import antichain_ev_extension, graft_pipeline
    from .serialize import load_construction_spec, poset_to_doc

    spec = load_construction_spec(args.spec)
    report = graft_pipeline(spec, args.verify_bound)
    result = report.result
    print(f"T: {len(result.t)} elements over {list(result.t.labels)}")
    for row in report.rows:
        print(f"emb {row.name}: sum={row.count_sum} graft={row.count_graft}")
    if report.scan is not None:
        print(
            f"scan: {report.scan.verdict} bound={report.scan.bound} "
            f"classes={report.scan.classes_checked}"
        )
    if spec.a and spec.p.is_antichain(spec.a):
        _, ext = antichain_ev_extension(spec)
        print(f"extension: {ext.source_size} -> {ext.target_size} points, injective strict")
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            json.dump(poset_to_doc(result.t), fh, indent=2)
            fh.write("\n")
    return 0


def cmd_ev(args) -> int:
    from .evsystem import build_ev
    from .serialize import ev_to_dot, ev_to_jsonl

    system = build_ev(_poset_arg(args.p))
    out = ev_to_jsonl(system) if args.format == "jsonl" else ev_to_dot(system)
    print(out, end="")
    return 0


def cmd_dot(args) -> int:
    from .serialize import poset_to_dot

    print(poset_to_dot(_poset_arg(args.p)), end="")
    return 0


def cmd_suggest(args) -> int:
    from .gscheme import suggest_distributing

    q = _poset_arg(args.q)
    qp = _poset_arg(args.qprime)
    found = suggest_distributing(q, qp)
    for m in found:
        print(json.dumps(m.label_map(), separators=(",", ":")))
    print(f"# {len(found)} proved distributing (experimental scan)", file=sys.stderr)
    return 0


def _selftest_checks(bound: int, seed: int):
    import random

    from . import examples
    from .canonical import enumerate_connected, enumerate_posets
    from .construction import antichain_ev_extension, graft_pipeline
    from .gscheme import verify_certificate
    from .lovasz import factor_matrices, verify_factorization
    from .serialize import parse_catalog_ref

    def matrices(universe_names, target_refs, sro, emb, strict):
        universe = tuple(parse_catalog_ref(name) for name in universe_names)
        targets = tuple(parse_catalog_ref(ref) for ref in target_refs)
        mats = factor_matrices(
            universe, targets, row_names=universe_names, target_names=target_refs
        )
        return mats.sro.cells == sro and mats.emb.cells == emb and mats.strict.cells == strict

    yield "count-matrices-six-class", lambda: matrices(
        examples.UPPER_UNIVERSE, examples.UPPER_TARGETS,
        examples.UPPER_SRO, examples.UPPER_EMB, examples.UPPER_STRICT,
    )
    yield "count-matrices-seven-class", lambda: matrices(
        examples.LOWER_UNIVERSE, examples.LOWER_TARGETS,
        examples.LOWER_SRO, examples.LOWER_EMB, examples.LOWER_STRICT,
    )
    yield "certificate-zigzag-chain", lambda: verify_certificate(
        examples.zigzag_to_chain_certificate(), bound
    ).certified
    yield "certificate-fence-crown", lambda: verify_certificate(
        examples.fence_to_crown_certificate(), bound
    ).certified

    def graft() -> bool:
        report = graft_pipeline(examples.chain_graft_spec(), bound)
        ev_map, ext = antichain_ev_extension(examples.chain_graft_spec())
        return report.ok and ext.ok and len(ev_map.source) == 8 and len(ev_map.target) == 13

    yield "chain-graft", graft

    def random_factorizations() -> bool:
        rng = random.Random(seed)
        posets = [p for p in enumerate_posets(4)]
        connected = [p for p in enumerate_connected(4)]
        for _ in range(25):
            p = rng.choice(connected)
            t = rng.choice(posets)
            if verify_factorization(p, t).strict_total < 0:
                return False
        return True

    yield "random-factorization-sweep", random_factorizations


def cmd_selftest(args) -> int:
    failures = 0
    for name, check in _selftest_checks(args.bound, args.seed):
        try:
            ok = check()
        except InternalInvariantViolation:
            raise
        except PhlError as exc:
            ok = False
            print(f"FAIL {name}: {exc}")
            failures += 1
            continue
        print(f"{'ok' if ok else 'FAIL'} {name}")
        failures += 0 if ok else 1
    return 0 if failures == 0 else 2


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except InternalInvariantViolation as exc:
        _report_error(args, exc, "; this is a bug in phl, not a verdict, please report it")
        return 4
    except (MalformedDocument, MalformedCertificate) as exc:
        _report_error(args, exc)
        return 3
    except PhlError as exc:
        _report_error(args, exc)
        return 2


def _report_error(args, exc: PhlError, note: str = "") -> None:
    if getattr(args, "json", False):
        print(
            json.dumps({"error": type(exc).__name__, "message": f"{exc}{note}"}),
            file=sys.stderr,
        )
    else:
        print(f"error: {type(exc).__name__}: {exc}{note}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
