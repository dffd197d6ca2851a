"""Seeded inputs, operations and output checks of the three workloads.

Every workload is an endless sequence of operations made in rounds.  A round
walks a fixed list of configurations in a fixed order, so every stretch of the
sequence has the same mix of sizes whatever the seed; the seed draws
everything else (sub-seeds, kept faces, unimodular maps, translations).  The
library sees only the generated inputs, and only through the public names of
its modules, so the tracer's rebinding reaches every call.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from simplat import cli, complexes, verify
from simplat.errors import ResourceLimitError

WHY = {
    "fuzz": "the paper's randomized sweep as users run it: box enumeration "
            "over many repeated simplices with warm caches and no validation",
    "doc": "the CLI user's path on distinct documents: exact-LP validation "
           "does most of the work, counting little",
    "dilate": "distinct full-grid images on the additive Ehrhart path: "
              "counting under interpolation with few repeated simplices",
}

# Criterion 3's sweep mix without its dimension-1 configurations: those take
# under 1 ms an op, a hundredth of the sweep's time, and a third of the ops
# would set the median op in the gap between two configurations' latencies.
# The most costly axis varies fastest, so every prefix of a round holds
# nearly the same share of large configurations.
FUZZ_CONFIGS = [(dim, grid, n)
                for n in (2, 3, 4, 5, 6, 12)
                for grid in (1, 2)
                for dim in (2, 3)]
FUZZ_TRIALS = 4  # one cycle of verify.FUZZ_KEEP_CYCLE

# Each workload mixes configurations of like cost, so its op latencies stay
# unimodal and their median and tail settle within one run.  Documents come
# from 2-D grids 4-6 and 3-D grids 1-2; each keeps an exact share of the
# grid's maximal simplices, 6 to 20 of them, drawn at random (validation
# cost grows with the square of that number: a whole 3-D grid-2 document
# takes 4-6 s to validate, a whole 2-D grid-6 one over 1 s).  2-D documents
# are verified at every n in 2, 3 and 6, 3-D documents once a round at n = 2:
# n = 3 and 6 plan dilations 9 and 36, which put 3-D documents past
# run_verify's enumeration budget onto the additive path, and counting is
# meant to do little on this workload.  Once a round also keeps the costly,
# widely spread 3-D grid-2 documents from taking over the tail.  The 3-D
# documents sit between the 2-D ones so every stretch of a round has a like
# mix.
DOC_CONFIGS = [(2, 4, Fraction(1, 2), 2), (2, 5, Fraction(2, 5), 2),
               (2, 6, Fraction(1, 4), 2), (2, 4, Fraction(1, 2), 3),
               (3, 1, Fraction(1), 2),
               (2, 5, Fraction(2, 5), 3), (2, 6, Fraction(1, 4), 3),
               (2, 4, Fraction(1, 2), 6), (2, 5, Fraction(2, 5), 6),
               (3, 2, Fraction(1, 6), 2),
               (2, 6, Fraction(1, 4), 6)]

# Moduli large enough that the planned dilation puts every one of these
# grids over run_verify's enumeration budget, so it takes the additive path.
DILATE_CONFIGS = [(dim, grid, n)
                  for n in (30, 60)
                  for dim, grid in ((2, 4), (3, 1), (2, 5))]

# Counting and validation cost follow the bounding boxes of the images today
# (one map with entries up to 46 took 84 s), so the map entries are bounded
# by construction: M is a signed row permutation of a unit lower-triangular
# matrix whose entries below the diagonal are each -1 or 1, so |M_ij| <= 1
# and det M = +-1.  Every such map stretches a grid's bounding box by the
# same factor (its rows span 1, 2, ..., d times the grid's width), so the
# draw changes shape and signs but not box size, which cost follows.  Inputs
# are never filtered or redrawn by their cost.
SHIFT = 10 ** 6


def planned_dilation(dim: int, n: int) -> int:
    """The paper's dilation prod p^(alpha + floor(log_p dim)), computed here
    independently of the library."""
    t, p, rest = 1, 2, n
    while rest > 1:
        alpha = 0
        while rest % p == 0:
            rest //= p
            alpha += 1
        if alpha:
            beta, power = alpha, p
            while power <= dim:
                beta += 1
                power *= p
            t *= p ** beta
        p += 1
    return t


def unimodular(rng: random.Random, dim: int) -> list[list[int]]:
    low = [[1 if i == j else rng.choice((-1, 1)) if j < i else 0
            for j in range(dim)] for i in range(dim)]
    rows = list(range(dim))
    rng.shuffle(rows)
    signed = []
    for r in rows:
        sign = rng.choice((-1, 1))
        signed.append([sign * x for x in low[r]])
    return signed


def moved_vertices(rng: random.Random, dim: int, vertices) -> list[list[int]]:
    """Image of the vertices under a random unimodular map plus a random
    translation; a fresh translation per op keeps simplices from repeating
    across ops."""
    m = unimodular(rng, dim)
    shift = [rng.randint(-SHIFT, SHIFT) for _ in range(dim)]
    return [[sum(m[i][k] * v[k] for k in range(dim)) + shift[i] for i in range(dim)]
            for v in vertices]


class Refused(Exception):
    """An op the library refused for its resource envelope."""


class Op:
    """One operation: run() returns None when the output checks pass and a
    one-line reason when they do not; Refused marks a resource refusal."""

    def __init__(self, label: str, run):
        self.label = label
        self.run = run


def _fuzz_op(rng: random.Random, index: int) -> Op:
    dim, grid, n = FUZZ_CONFIGS[index % len(FUZZ_CONFIGS)]
    sub_seed = rng.getrandbits(32)
    t = planned_dilation(dim, n)

    def run():
        try:
            summary = verify.run_fuzz(dim, grid, n, FUZZ_TRIALS, sub_seed)
        except ResourceLimitError as exc:
            raise Refused(str(exc)) from exc
        if summary.dilation != t:
            return f"dilation {summary.dilation}, expected {t}"
        if not summary.passed or summary.passes != FUZZ_TRIALS:
            return f"{summary.failures} of {FUZZ_TRIALS} trials failed"
        return None

    return Op(f"fuzz d={dim} g={grid} n={n} seed={sub_seed}", run)


def _check_full_grid(dim, grid, n, dilation, count, euler):
    t = planned_dilation(dim, n)
    if dilation != t:
        return f"dilation {dilation}, expected {t}"
    if count != (grid * t + 1) ** dim:
        return f"count {count}, expected {(grid * t + 1) ** dim}"
    if euler != 1:
        return f"euler {euler}, expected 1"
    return None


def _doc_op(rng: random.Random, index: int, workdir) -> Op:
    dim, grid, keep, n = DOC_CONFIGS[index % len(DOC_CONFIGS)]
    base = complexes.generate_complex(dim, grid, 1, 0)
    kept = rng.sample(base.maximal_faces, int(keep * len(base.maximal_faces)))
    document = {"ambient_dim": dim,
                "vertices": moved_vertices(rng, dim, base.vertices),
                "maximal_simplices": [list(f) for f in sorted(kept)]}
    path = workdir / f"doc-{index}.json"
    path.write_text(json.dumps(document))
    argv = ["verify", str(path), "--modulus", str(n)]

    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        if code == cli.EXIT_RESOURCE:
            raise Refused(err.getvalue().strip())
        if code != 0:
            return f"exit code {code}: {err.getvalue().strip()}"
        report = json.loads(out.getvalue())
        if report["verdict"] != "pass":
            return f"verdict {report['verdict']}"
        if not all(s["passed"] for s in report["subchecks"]):
            return "a per-simplex sub-check failed"
        if keep == 1:
            return _check_full_grid(dim, grid, n, report["dilation"],
                                    report["count"], report["euler"])
        return None

    return Op(f"doc d={dim} g={grid} keep={keep} n={n} {path.name}", run)


def _dilate_op(rng: random.Random, index: int) -> Op:
    dim, grid, n = DILATE_CONFIGS[index % len(DILATE_CONFIGS)]
    base = complexes.generate_complex(dim, grid, 1, 0)
    faces = base.maximal_faces
    vertices = moved_vertices(rng, dim, base.vertices)

    def run():
        try:
            c = complexes.close_under_faces(faces, vertices, dim)
            report = verify.run_verify(c, n)
        except ResourceLimitError as exc:
            raise Refused(str(exc)) from exc
        if not report.all_passed:
            return "verdict or a per-simplex sub-check failed"
        return _check_full_grid(dim, grid, n, report.dilation, report.count,
                                report.euler)

    return Op(f"dilate d={dim} g={grid} n={n}", run)


class Workload:
    """The seeded op sequence of one workload, prepared a round at a time."""

    def __init__(self, name: str, seed: int, workdir):
        if name not in WHY:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.rng = random.Random(f"{name}:{seed}")
        self.workdir = workdir
        self.prepared: list[Op] = []
        self.made = 0

    @property
    def round_size(self) -> int:
        return len({"fuzz": FUZZ_CONFIGS, "doc": DOC_CONFIGS,
                    "dilate": DILATE_CONFIGS}[self.name])

    def prepare_round(self) -> None:
        for _ in range(self.round_size):
            i = self.made
            if self.name == "fuzz":
                op = _fuzz_op(self.rng, i)
            elif self.name == "doc":
                op = _doc_op(self.rng, i, self.workdir)
            else:
                op = _dilate_op(self.rng, i)
            self.prepared.append(op)
            self.made += 1

    def next_op(self) -> Op:
        if not self.prepared:
            self.prepare_round()
        return self.prepared.pop(0)
