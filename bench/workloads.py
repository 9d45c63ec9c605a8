"""The workloads: seeded inputs, op lists and reference checks.

Each workload builds, in setup(), a fixed list of distinct ops from
gen.Gen(seed): a set number of ops of each kind and input size, in a
seeded order.  A timed run makes a few passes over that list, each in a
new seeded order, and an op's latency is its best time over the passes.
The machine is a shared host whose speed changes from second to second;
an op's best time is what it costs when the host leaves it alone, and
the passes spread each op's tries over the whole run.

The counts of each kind are the same for every seed, so the median and
the 90th percentile fall on the same kind of op in every run.  Each
sits inside a class of ops of similar cost, well away from the class
boundaries; the comments of each workload say which.

An op returns its raw output; check() compares it against a reference
that comes from how the input was built or from an oracle (the
brute-force counter phl.homs.brute_force_count), never from the path
under test.  check() returns None when the output is right, else the
reason it is wrong.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import gen

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Connected posets on 1..n elements, partial sums of OEIS A000608.
CONNECTED_UP_TO = {5: 59, 6: 297, 7: 1947}


class Op:
    """One timed operation: kind, a thunk, and its reference check."""

    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run
        self.check = check


def _expect(cond: bool, reason: str) -> str | None:
    return None if cond else reason


class Workload:
    name = ""
    # Set-ups per run; setup_s is their median.
    setup_samples = 9
    # About the seconds one pass over the op list takes on the recorded
    # baseline; a run of S seconds makes round(S / pass_seconds) passes,
    # at least one.
    pass_seconds = 10.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.op_list: list[Op] = []
        # Ops that only the traced run executes, after its share of op_list.
        self.traced_extra: list[Op] = []

    def setup(self) -> None:
        raise NotImplementedError

    def passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.pass_seconds))

    def fixed_ops(self) -> list[Op]:
        """The traced run's ops: the first two of each kind, then the extras."""
        seen: dict[str, int] = {}
        ops = []
        for op in self.op_list:
            seen[op.kind] = seen.get(op.kind, 0) + 1
            if seen[op.kind] <= 2:
                ops.append(op)
        return ops + self.traced_extra

    def _compose(self, g, parts) -> None:
        """op_list from (count, make) pairs; make() builds an op or a list of ops."""
        ops: list[Op] = []
        for count, make in parts:
            for _ in range(count):
                made = make()
                ops.extend(made if isinstance(made, list) else [made])
        g.rng.shuffle(ops)
        self.op_list = ops


def _poset(labels, rows):
    import phl

    return phl.Poset(labels, rows)


def _rows_of(p) -> list[int]:
    return [p.up_mask(i) for i in range(p.n)]


# -- scan -------------------------------------------------------------------

class Scan(Workload):
    """Warm comparison scans: bounded_gle_check at bounds 5 and 6, and witness_search."""

    name = "scan"
    BOUND = 6
    # The op list, by cost on the recorded baseline.  Refuted pairs fail
    # on the first class and witness pairs of different sizes separate
    # on it, so both take well under a millisecond: 46 ops.  A holding
    # pair S = R + X scans every class up to the bound.  At bound 5 (59
    # classes), 40 pairs with |R| = 3 and |X| = 1 take about 8 ms and 12
    # with |X| = 2 about 12 ms; 2 pairs at bound 6 (297 classes) take
    # about 0.07 s.  The median (ops 50 and 51 of 100) is the 4th or 5th
    # fastest |X| = 1 pair and the 90th percentile (about op 91) the 4th
    # or 5th fastest |X| = 2 pair: near the low end of each kind, where a
    # few ops that never met an idle host do not reach.  The quantiles
    # and most of the summed time sit on short ops because the host is
    # slower for minutes at a time: a 0.07-s op then reads up to half
    # slower even at its best of 50 tries, an 8-ms op a quarter.  A pass
    # is short, so each op gets many tries.  The pairs have density 1/3,
    # which makes R a 2-chain plus a point and X an antichain, so all
    # pairs of a kind are the same input up to labels; the shapes of
    # density 0.5 differ in cost by up to half.  Larger pairs at bound 6
    # (|R| up to 5, |X| up to 3) take 0.1 to 0.6 s each; only the traced
    # run makes them.
    REFUTED = 23
    WITNESSES = ((5, 6, 12), (6, 7, 11))  # (|A|, |B|, count)
    # (|R|, |X|, bound, count), density 1/3
    HOLDS = ((3, 1, 5, 40), (3, 2, 5, 12), (3, 1, 6, 2))
    HOLDS_DENSITY = 1 / 3
    TRACED_HOLDS = ((3, 2), (4, 1), (3, 3), (4, 2), (5, 1))  # density 0.5, bound 6
    DENSITY = 0.5
    pass_seconds = 1.0

    def setup(self) -> None:
        import phl

        g = gen.Gen(self.seed)
        parts = [(self.REFUTED, lambda: self._refuted(g))]
        parts += [(k, lambda n1=n1, n2=n2: self._witness(g, n1, n2)) for n1, n2, k in self.WITNESSES]
        parts += [(k, lambda nr=nr, nx=nx, b=b: self._holds(g, nr, nx, self.HOLDS_DENSITY, b))
                  for nr, nx, b, k in self.HOLDS]
        self._compose(g, parts)
        self.traced_extra = [self._holds(g, nr, nx, self.DENSITY, self.BOUND) for nr, nx in self.TRACED_HOLDS]
        for _ in phl.enumerate_connected(self.BOUND):
            pass

    def _holds(self, g, nr, nx, density, bound) -> Op:
        import phl

        r = g.rows(nr, density)
        x = g.rows(nx, density)
        rp = _poset(gen.labels("r", nr), r)
        sp = _poset(gen.labels("s", nr + nx), gen.direct_sum(r, x))

        def check(rep):
            return _expect(
                rep.holds and rep.witness is None
                and rep.classes_checked == CONNECTED_UP_TO[bound],
                f"holding pair reported {rep.verdict} after {rep.classes_checked} classes",
            )

        return Op(f"holds{nr}+{nx}b{bound}", lambda: phl.bounded_gle_check(rp, sp, bound), check)

    def _refuted(self, g) -> Op:
        import phl

        n = g.rng.randint(3, 6)
        r = g.rows(n, self.DENSITY)
        keep = g.proper_subset(n)
        rp = _poset(gen.labels("r", n), r)
        sp = _poset(gen.labels("s", len(keep)), gen.induced(r, keep))
        bound = self.BOUND

        def check(rep):
            ok = (
                not rep.holds and rep.classes_checked == 1
                and rep.witness[0].n == 1 and rep.witness[1] == (n, len(keep))
            )
            return _expect(ok, f"refuted pair reported {rep.verdict} {rep.witness}")

        return Op("refuted", lambda: phl.bounded_gle_check(rp, sp, bound), check)

    def _witness(self, g, n1, n2) -> Op:
        import phl

        # The sizes differ, so the pair is non-isomorphic by construction.
        if g.rng.random() < 0.5:
            n1, n2 = n2, n1
        a = g.rows(n1, self.DENSITY)
        b = g.rows(n2, self.DENSITY)
        ap = _poset(gen.labels("a", n1), a)
        bp = _poset(gen.labels("b", n2), b)
        return Op("witness", lambda: phl.witness_search(ap, bp), lambda out: _check_witness(out, ap, bp))


def _check_witness(out, a, b) -> str | None:
    from phl.homs import brute_force_count

    p, (ca, cb) = out
    if ca == cb or p.n > max(a.n, b.n) or not gen.is_connected(_rows_of(p)):
        return f"witness of size {p.n} with counts {(ca, cb)} does not separate"
    oracle = (brute_force_count("strict", p, a), brute_force_count("strict", p, b))
    return _expect(oracle == (ca, cb), f"witness counts {(ca, cb)}, oracle {oracle}")


# -- cli_cold ---------------------------------------------------------------

# The bundled certificates as documents, written out independently of
# phl.serialize.
ZIGZAG_CERT = {
    "R": "catalog:N",
    "S": "catalog:A1+C3",
    "q": ["catalog:A1", "catalog:C2", "catalog:V3", "catalog:Lambda3", "catalog:N"],
    "qprime": ["catalog:A1", "catalog:C2", "catalog:C3"],
    "nu": [1, 1, 3],
    "lambda": [[0], [1], [2, 3, 4]],
    "distributors": [
        {"sources": [{"poset": "catalog:A1", "tau": {"a1": "a1"}}]},
        {"sources": [{"poset": "catalog:C2", "tau": {"0": "0", "1": "1"}}]},
        {"sources": [
            {"poset": "catalog:V3", "tau": {"b": "0", "t1": "1", "t2": "2"}},
            {"poset": "catalog:Lambda3", "tau": {"b1": "0", "b2": "1", "t": "2"}},
            {"poset": "catalog:N", "tau": {"a": "1", "b": "0", "c": "2", "d": "1"}},
        ]},
    ],
}
FENCE_CERT = {
    "R": "catalog:W",
    "S": "catalog:A1+N2",
    "q": ["catalog:A1", "catalog:C2", "catalog:V3", "catalog:Lambda3", "catalog:N", "catalog:W"],
    "qprime": ["catalog:A1", "catalog:C2", "catalog:V3", "catalog:Lambda3", "catalog:N2"],
    "nu": [1, 1, 1, 1, 3],
    "lambda": [[0], [1], [2], [3], [4, 4, 5]],
    "distributors": [
        {"sources": [{"poset": "catalog:A1", "tau": {"a1": "a1"}}]},
        {"sources": [{"poset": "catalog:C2", "tau": {"0": "0", "1": "1"}}]},
        {"sources": [{"poset": "catalog:V3", "tau": {"b": "b", "t1": "t1", "t2": "t2"}}]},
        {"sources": [{"poset": "catalog:Lambda3", "tau": {"b1": "b1", "b2": "b2", "t": "t"}}]},
        {"sources": [
            {"poset": "catalog:N", "tau": {"a": "a1", "b": "a2", "c": "b1", "d": "b2"}},
            {"poset": "catalog:N", "tau": {"a": "a2", "b": "a1", "c": "b1", "d": "b2"}},
            {"poset": "catalog:W",
             "tau": {"b1": "a1", "b2": "a2", "t1": "b1", "t2": "b2", "t3": "b1"}},
        ]},
    ],
}


class CliCold(Workload):
    """One fresh `python -m phl.cli` process per op."""

    name = "cli_cold"
    OP_TIMEOUT = 60
    GLE_BOUND = 7
    DENSITY = 0.5
    # The op list, by cost on the recorded baseline.  Most ops cost a
    # process start, the import and little more (0.15 to 0.23 s): 30
    # counts, 14 enumerations, 14 witness searches, 14 refuted check-gle
    # runs and 14 matrices.  Then come 8 verify-cert runs on the fence
    # certificate at bound 5 (about 0.3 s, the same input for every
    # seed), 3 construct-sum runs (about 0.45 s), verify-cert on both
    # certificates at bound 6 (about 1 s) and one holding check-gle at
    # bound 7, which generates every class up to size 7 (about 2.5 s).
    # The median (ops 50 and 51 of 100) falls among the process starts
    # and the 90th percentile (about op 91) is the 4th or 5th fastest
    # bound-5 fence check.
    COUNTS = 6  # per kind
    ENUMERATES = 14
    WITNESSES = 14
    GLE_REFUTED = 14
    MATRICES = 14
    FENCE5 = 8
    CONSTRUCTS = 3
    setup_samples = 13  # each imports phl and writes the documents, about 0.1 s
    pass_seconds = 25.0

    def __init__(self, seed: int, workdir: Path, launcher: Path | None = None):
        super().__init__(seed, workdir)
        # With a launcher, children install the tracer before phl.cli.main.
        self.launcher = launcher
        self.trace_files: list[Path] = []
        self._files = 0

    def setup(self) -> None:
        import phl  # noqa: F401  (the checks use its brute-force oracle)

        self.workdir.mkdir(parents=True, exist_ok=True)
        g = gen.Gen(self.seed)
        zigzag, fence = self._write(ZIGZAG_CERT), self._write(FENCE_CERT)
        parts = [(self.COUNTS, lambda kind=kind: self._count(g, kind))
                 for kind in ("hom", "strict", "strict_onto", "emb", "aut")]
        parts += [
            (self.ENUMERATES, lambda: self._enumerate(g)),
            (self.WITNESSES, lambda: self._witness(g)),
            (self.GLE_REFUTED, lambda: self._gle_refuted(g)),
            (self.MATRICES, lambda: self._matrix(g)),
            (self.FENCE5, lambda: self._verify_cert(fence, 5)),
            (self.CONSTRUCTS, lambda: self._construct(g)),
            (1, lambda: self._verify_cert(zigzag, 6)),
            (1, lambda: self._verify_cert(fence, 6)),
            (1, lambda: self._gle_holds(g)),
        ]
        self._compose(g, parts)

    # -- documents and processes --------------------------------------------

    def _write(self, doc) -> str:
        self._files += 1
        path = self.workdir / f"doc{self._files}.json"
        path.write_text(json.dumps(doc))
        return path.name

    def _poset_file(self, prefix: str, rows: list[int]) -> str:
        return self._write(gen.to_doc(gen.labels(prefix, len(rows)), rows))

    def _cli(self, kind: str, argv: list[str], check) -> Op:
        def run():
            if self.launcher is None:
                cmd = [sys.executable, "-m", "phl.cli", *argv]
            else:
                out = self.workdir / f"trace{len(self.trace_files)}.json"
                self.trace_files.append(out)
                cmd = [sys.executable, str(self.launcher), str(out), *argv]
            env = dict(os.environ, PYTHONPATH=str(SRC))
            proc = subprocess.run(
                cmd, cwd=self.workdir, env=env, capture_output=True, text=True,
                timeout=self.OP_TIMEOUT,
            )
            return proc.returncode, proc.stdout

        def checked(out):
            rc, stdout = out
            return check(rc, stdout)

        return Op(kind, run, checked)

    # -- ops ------------------------------------------------------------------

    def _gle_holds(self, g) -> Op:
        r = g.rows(g.rng.randint(2, 3), self.DENSITY)
        s = gen.direct_sum(r, [1])
        expected = f"holds_up_to_bound bound={self.GLE_BOUND} classes={CONNECTED_UP_TO[self.GLE_BOUND]}"
        argv = ["check-gle", "--r", self._poset_file("r", r), "--s", self._poset_file("s", s),
                "--bound", str(self.GLE_BOUND)]
        return self._cli("gle_holds", argv, lambda rc, out: _expect(
            rc == 0 and out.strip() == expected, f"check-gle on a holding pair: rc={rc} {out!r}"))

    def _gle_refuted(self, g) -> Op:
        n = g.rng.randint(2, 4)
        r = g.rows(n, self.DENSITY)
        keep = g.proper_subset(n)
        expected = f"counterexample size=1 class=A1 counts=({n},{len(keep)})"
        argv = ["check-gle", "--r", self._poset_file("r", r),
                "--s", self._poset_file("s", gen.induced(r, keep)), "--bound", str(self.GLE_BOUND)]
        return self._cli("gle_refuted", argv, lambda rc, out: _expect(
            rc == 2 and out.strip() == expected, f"check-gle on a refuted pair: rc={rc} {out!r}"))

    def _witness(self, g) -> Op:
        n1, n2 = g.rng.randint(2, 4), g.rng.randint(2, 4)
        a = g.rows(n1, self.DENSITY)
        b = g.rows(n2, g.rng.choice((0.3, 0.5, 0.7)))
        while gen.isomorphic(a, b):
            b = g.rows(n2, g.rng.choice((0.3, 0.5, 0.7)))
        argv = ["witness", "--r", self._poset_file("a", a), "--s", self._poset_file("b", b)]

        def check(rc, out):
            lines = out.splitlines()
            if rc != 0 or len(lines) != 2:
                return f"witness: rc={rc} {out!r}"
            counts = tuple(int(v) for v in lines[0].rsplit("counts=(", 1)[1].rstrip(")").split(","))
            doc = json.loads(lines[1])
            index = {lab: i for i, lab in enumerate(doc["labels"])}
            rows = [0] * len(index)
            for lo, hi in doc["pairs"]:
                rows[index[lo]] |= 1 << index[hi]
            p = _poset(doc["labels"], gen.closure(rows))
            return _check_witness(
                (p, counts), _poset(gen.labels("a", n1), a), _poset(gen.labels("b", n2), b)
            )

        return self._cli("witness", argv, check)

    def _verify_cert(self, path: str, bound: int) -> Op:
        argv = ["verify-cert", "--cert", path, "--bound", str(bound)]

        def check(rc, out):
            lines = out.splitlines()
            ok = (
                rc == 0 and lines[0] == f"certified (distributors machine-checked to n={bound})"
                and lines[-1] == (
                    f"independent scan: holds_up_to_bound (bound {bound}, {CONNECTED_UP_TO[bound]} classes)"
                )
            )
            return _expect(ok, f"verify-cert at bound {bound}: rc={rc} {out!r}")

        return self._cli(f"verify_cert{bound}", argv, check)

    def _construct(self, g) -> Op:
        np_ = nq = 4
        while True:
            p, q = g.rows(np_, self.DENSITY), g.rows(nq, self.DENSITY)
            k = g.rng.randint(1, 2)
            a, b = g.antichain(p, k), g.antichain(q, k)
            if a is not None and b is not None:
                break
        pl, ql = gen.labels("p", np_), gen.labels("q", nq)
        doc = {
            "P": gen.to_doc(pl, p), "Q": gen.to_doc(ql, q),
            "A": [pl[i] for i in a], "B": [ql[j] for j in b],
            "beta": {pl[i]: ql[j] for i, j in zip(a, b)},
        }
        argv = ["construct-sum", "--spec", self._write(doc)]
        expected = (
            f"T: {np_ - k + nq} elements",
            f"scan: holds_up_to_bound bound=5 classes={CONNECTED_UP_TO[5]}",
            f"extension: {gen.ev_size(gen.direct_sum(p, q))} -> ",
        )

        def check(rc, out):
            lines = out.splitlines()
            ok = (
                rc == 0 and lines[0].startswith(expected[0] + " ")
                and expected[1] in lines and lines[-1].startswith(expected[2])
            )
            return _expect(ok, f"construct-sum: rc={rc} {out!r}")

        return self._cli("construct", argv, check)

    def _count(self, g, kind: str) -> Op:
        n1, n2 = g.rng.randint(3, 5), g.rng.randint(3, 5)
        p = g.rows(n1, self.DENSITY)
        pf = self._poset_file("p", p)
        if kind == "aut":
            q, qf = p, pf
        else:
            q = g.rows(n2, self.DENSITY)
            qf = self._poset_file("q", q)
        argv = ["count", "--kind", kind, "--p", pf, "--q", qf]

        def check(rc, out):
            from phl.homs import brute_force_count

            oracle = brute_force_count(kind, _poset(gen.labels("p", len(p)), p),
                                       _poset(gen.labels("p" if kind == "aut" else "q", len(q)), q))
            return _expect(rc == 0 and out.strip() == str(oracle), f"count {kind}: rc={rc} {out!r}, oracle {oracle}")

        return self._cli(f"count_{kind}", argv, check)

    def _enumerate(self, g) -> Op:
        # A sparse 6-element domain into a 4-element codomain has
        # thousands of homomorphisms.
        p, q = g.rows(6, 0.15), g.rows(4, self.DENSITY)
        argv = ["enumerate", "--kind", "hom", "--p", self._poset_file("p", p),
                "--q", self._poset_file("q", q), "--emit", "jsonl"]

        def check(rc, out):
            from phl.homs import brute_force_count

            lines = out.splitlines()
            oracle = brute_force_count("hom", _poset(gen.labels("p", 6), p), _poset(gen.labels("q", 4), q))
            ok = rc == 0 and len(lines) == oracle and len(set(lines)) == oracle
            return _expect(ok, f"enumerate: rc={rc}, {len(lines)} lines, oracle {oracle}")

        return self._cli("enumerate", argv, check)

    def _matrix(self, g) -> Op:
        targets = [g.rows(g.rng.randint(3, 5), self.DENSITY) for _ in range(g.rng.randint(2, 3))]
        files = [self._poset_file("t", t) for t in targets]
        argv = ["matrix", "--targets", *files, "--format", "csv"]
        names = [f[:-len(".json")] for f in files]
        sizes = [str(len(t)) for t in targets]

        def check(rc, out):
            sections = out.split("# ")[1:]
            ok = rc == 0 and [s.split("\n", 1)[0] for s in sections] == [
                "strict-surjection orbits", "embeddings", "strict maps"]
            for sec in sections[1:] if ok else ():
                rows = sec.splitlines()[1:]
                # A point embeds into, and maps strictly onto, each element.
                ok = ok and rows[0] == "," + ",".join(names) and rows[1] == "A1," + ",".join(sizes)
            return _expect(ok, f"matrix: rc={rc} {out[:200]!r}")

        return self._cli("matrix", argv, check)


WORKLOADS = {w.name: w for w in (Scan, CliCold)}
