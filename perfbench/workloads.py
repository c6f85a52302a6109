"""The three workloads: their inputs, and the oracle that judges each op.

Every input is generated here from the workload seed with the standard
library only.  Each op carries a judge that turns the program's exit
code and output into one of three outcomes:

- "ok": the verdict and every checked value match the expected answer;
- "undecided": the program declined the input with exit 3 for a reason
  it documents (a spectrum outside its root search);
- "wrong": any other exit code, verdict, or value.

Expected answers are known by construction (a conjugated diagonal
matrix has the diagonal as its spectrum; a parameter triplet whose
pairs sum to -2 satisfies the braid equation) or are evaluated from the
published closed forms with Fraction arithmetic at sample points.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Tuple

from exact import (
    GQ,
    PoleAtPoint,
    adjugate,
    const_matrix,
    det,
    evaluate,
    kron,
    mat_mul,
    poly_text,
)

OK, UNDECIDED, WRONG = "ok", "undecided", "wrong"

# Sample points for the symbols of every workload.  Their denominators
# (5, 7, 11, 13) keep them off the poles of the generated inputs, whose
# denominators are linear with leading coefficient at most 3.
POINTS = (
    {"q": GQ(13, 0) / 7, "a": GQ(17, 0) / 5, "b": GQ(-23, 0) / 7, "c": GQ(31, 0) / 11},
    {"q": GQ(-5, 11) / 13, "a": GQ(-7, 3) / 13, "b": GQ(19, 5) / 11, "c": GQ(-41, 7) / 5},
)

GAUSSIAN_UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1))

# Messages with which the analyze verb declines an input it cannot
# decide; any other exit-3 message is a wrong outcome.
_UNDECIDED_MESSAGES = ("input error: spectrum not found", "input error: matrix is not diagonalisable")

VERIFY_SECTIONS = (
    "minimal-polynomials", "projector-suites", "constant-ybe", "s03-baxterisation",
    "functional-equations", "s14-combinations", "inverses-diagonalizers",
    "noncommutative-planes", "plumbing",
)


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the judge of its result."""

    kind: str
    argv: Tuple[str, ...]
    judge: Callable[[int, str, str], Tuple[str, str]]


def _loads(stdout: str):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def _same_values(texts, expected_texts) -> bool:
    """Whether two lists of expressions agree at every sample point."""
    if len(texts) != len(expected_texts):
        return False
    for point in POINTS:
        for got, want in zip(texts, expected_texts):
            try:
                if evaluate(got, point) != evaluate(want, point):
                    return False
            except (PoleAtPoint, ValueError, KeyError):
                return False
    return True


def _same_value_set(texts, expected) -> bool:
    """Whether printed values equal an expected set of per-point values."""
    for point, want in zip(POINTS, expected):
        try:
            got = [evaluate(t, point) for t in texts]
        except (PoleAtPoint, ValueError, KeyError):
            return False
        if len(got) != len(want) or set(got) != set(want):
            return False
    return True


def _verdict(rc: int, report, want_rc: int, sections) -> str:
    """The reason the exit code and section list disagree, or ''."""
    if rc != want_rc:
        return f"exit {rc}, expected {want_rc}"
    if report is None:
        return "output is not JSON"
    if report.get("holds") is not (want_rc == 0):
        return "holds flag disagrees with the exit code"
    names = [s.get("name") for s in report.get("sections", ())]
    if names != list(sections):
        return f"sections {names}"
    if want_rc == 0 and not all(s.get("holds") for s in report["sections"]):
        return "a section failed under a passing verdict"
    return ""


def _simple_judge(sections):
    def judge(rc, stdout, stderr):
        problem = _verdict(rc, _loads(stdout), 0, sections)
        return (WRONG, problem) if problem else (OK, "")

    return judge


# ------------------------------------------------------------ verify-all


def verify_all(seed: int, count: int, workdir: str) -> List[Op]:
    """verify-all at seeds S, S+1, ...: all nine sections must hold."""
    return [
        Op("verify-all", ("verify-all", f"--seed={seed + k}", "--format", "json"),
           _simple_judge(VERIFY_SECTIONS))
        for k in range(count)
    ]


# --------------------------------------------------------- analyze-files

# Braided built-in matrices P*R, written out so the inputs do not come
# from the program: s03 has spectrum {1 + i, 1 - i}, s14 {1, q, -q}.
_Z, _ONE, _Q = {}, {0: (1, 0)}, {1: (1, 0)}
_RHAT = {
    "s03": const_matrix([[(1, 0), (0, 0), (0, 0), (1, 0)],
                         [(0, 0), (1, 0), (-1, 0), (0, 0)],
                         [(0, 0), (1, 0), (1, 0), (0, 0)],
                         [(-1, 0), (0, 0), (0, 0), (1, 0)]]),
    "s14": [[_Z, _Z, _Z, _Q], [_Z, _ONE, _Z, _Z], [_Z, _Z, _ONE, _Z], [_Q, _Z, _Z, _Z]],
}
_SPECTRUM = {
    "s03": [{0: (1, 1)}, {0: (1, -1)}],
    "s14": [{0: (1, 0)}, {1: (1, 0)}, {1: (-1, 0)}],
}


def _invertible(rng: random.Random, n: int) -> Tuple[list, tuple]:
    """A matrix with small Gaussian-integer entries and nonzero determinant."""
    while True:
        s = [[(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        d = det(s)
        if d != (0, 0):
            return s, d


def _at(poly: dict, point: dict) -> GQ:
    q = point["q"]
    return sum((GQ(*c) * q ** k for k, c in poly.items()), GQ())


_ANALYZE_SECTIONS = ("projectors", "spectral-recompose", "constant-ybe")


def _analyze_judge(spectrum: list, sections: tuple):
    def judge(rc, stdout, stderr):
        if rc == 3 and stderr.startswith(_UNDECIDED_MESSAGES):
            return UNDECIDED, stderr.strip()
        report = _loads(stdout)
        problem = _verdict(rc, report, 0, sections)
        expected = [{_at(p, point) for p in spectrum} for point in POINTS]
        if not problem and not _same_value_set(report["eigenvalues"], expected):
            problem = f"eigenvalues {report['eigenvalues']}"
        return (WRONG, problem) if problem else (OK, "")

    return judge


def _interleaved(rng: random.Random, items: list, key) -> list:
    """items in a seeded order in which every prefix holds each key's share.

    Each key's items are shuffled and spread evenly over [0, 1) from a
    random offset; the order is by position.
    """
    groups: dict = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    placed = []
    for members in groups.values():
        rng.shuffle(members)
        offset = rng.random()
        placed += [((i + offset) / len(members), rng.random(), m) for i, m in enumerate(members)]
    placed.sort(key=lambda t: t[:2])
    return [m for _, _, m in placed]


def analyze_files(seed: int, count: int, workdir: str) -> List[Op]:
    """Matrix files S*D*S^-1 (n = 2, 3) and (S x S)*Rhat*(S x S)^-1 (n = 4).

    D is diagonal with distinct entries unit * q^k, k <= 2; S has small
    Gaussian-integer entries.  Each block of six ops holds two inputs of
    each size, and the two n = 4 inputs conjugate the two built-ins.
    """
    rng = random.Random(f"analyze-files/{seed}")
    os.makedirs(workdir, exist_ok=True)
    diagonal = [{k: u} for u in GAUSSIAN_UNITS for k in range(3)]
    # Each size walks through every set of distinct diagonal entries in a
    # seeded order, interleaved by exponent pattern so that every run sees
    # nearly the same share of each pattern.  The pattern decides whether
    # the program's root search finds the spectrum.
    spectra = {}
    for n in (2, 3):
        combos = [list(c) for c in itertools.combinations(diagonal, n)]
        spectra[n] = _interleaved(rng, combos, lambda c: tuple(sorted(k for p in c for k in p)))
    used = {2: 0, 3: 0}
    ops: List[Op] = []
    while len(ops) < count:
        block = ["n2", "n2", "n3", "n3", "s03", "s14"]
        rng.shuffle(block)
        for kind in block:
            if kind in ("n2", "n3"):
                n = int(kind[1])
                spectrum = list(spectra[n][used[n] % len(spectra[n])])
                used[n] += 1
                rng.shuffle(spectrum)
                s, d = _invertible(rng, n)
                middle = [[spectrum[i] if i == j else {} for j in range(n)] for i in range(n)]
                s_adj = adjugate(s)
            else:
                s, d = _invertible(rng, 2)
                s_adj = adjugate(s)
                s, s_adj, d = kron(s, s), kron(s_adj, s_adj), (d[0] ** 2 - d[1] ** 2, 2 * d[0] * d[1])
                middle = _RHAT[kind]
                spectrum = _SPECTRUM[kind]
            # S * middle * adj(S) / det(S) is the conjugate S * middle * S^-1
            matrix = mat_mul(mat_mul(const_matrix(s), middle), const_matrix(s_adj))
            symbolic = any(k for row in matrix for p in row for k in p)
            path = os.path.join(workdir, f"m{len(ops):04d}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump({
                    "n": len(matrix),
                    "symbols": ["q"] if symbolic else [],
                    "entries": [[poly_text(p, "q", d) for p in row] for row in matrix],
                }, handle)
            ops.append(Op(f"analyze-{kind}", ("analyze", f"file:{path}", "--format", "json"),
                          _analyze_judge(spectrum, _ANALYZE_SECTIONS)))
    return ops[:count]


# ------------------------------------------------------- parameter-sweep


def _const(rng: random.Random) -> GQ:
    value = GQ(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
    if rng.random() < 0.25:
        value = value + GQ(0, Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    return value


def _poly(rng: random.Random, degree: int) -> dict:
    out = {k: (rng.randint(-3, 3), 0) for k in range(degree)}
    out[degree] = (rng.choice((-3, -2, -1, 1, 2, 3)), 0)
    return {k: c for k, c in out.items() if c != (0, 0)}


def slot_text(rng: random.Random, kind: str, symbol: str) -> str:
    """A constant, polynomial, or rational function in one symbol."""
    if kind == "const":
        return _const(rng).text()
    if kind == "poly":
        return poly_text(_poly(rng, rng.randint(1, 2)), symbol)
    num = poly_text(_poly(rng, 1), symbol)
    den = poly_text({1: (rng.randint(1, 3), 0), 0: (rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), 0)}, symbol)
    return f"({num})/({den})"


def closed_forms(v, w, vp, wp, vpp, wpp) -> dict:
    """The published residual coefficients of an s14 parameter triplet."""
    quarter, half = GQ(Fraction(1, 4)), GQ(Fraction(1, 2))
    return {
        "a1": (v + vpp + v * vpp - vp)
        + quarter * (v * vp * vpp - w * wp * vpp + w * vp * wpp - v * wp * wpp),
        "a2": (w + wpp + w * wpp - wp)
        + quarter * (w * wp * wpp - v * vp * wpp + v * wp * vpp - w * vp * vpp),
        "b1": half * (v * wp - vp * w) * (vpp + wpp + 2),
        "b2": half * (vpp * wp - vp * wpp) * (v + w + 2),
    }


def _triplet_judge(texts: List[str]):
    def judge(rc, stdout, stderr):
        # the expected coefficients, per sample point
        wants = [closed_forms(*(evaluate(t, point) for t in texts)) for point in POINTS]
        vanish = all(c.is_zero() for want in wants for c in want.values())
        report = _loads(stdout)
        want_rc = 0 if vanish else 1
        problem = _verdict(rc, report, want_rc, ("expansion-coefficients", "residual-zero"))
        if not problem:
            coeffs = report.get("coefficients", {})
            for point, want in zip(POINTS, wants):
                for key, value in want.items():
                    try:
                        if evaluate(coeffs[key], point) != value:
                            problem = f"coefficient {key} = {coeffs[key]}"
                    except (PoleAtPoint, ValueError, KeyError):
                        problem = f"coefficient {key} unreadable"
            echoed = [t for pair in report.get("triplet", ()) for t in pair]
            if not problem and not _same_values(echoed, texts):
                problem = "triplet echo differs from the input"
        return (WRONG, problem) if problem else (OK, "")

    return judge


def _triplet(rng: random.Random, kinds: Tuple[str, str, str], pair_sum: bool) -> Op:
    texts = []
    for kind, symbol in zip(kinds, "abc"):
        v = slot_text(rng, kind, symbol)
        if not pair_sum:
            w = slot_text(rng, kind, symbol)
        elif kind == "const":
            w = (GQ(-2) - evaluate(v, {})).text()
        else:
            w = f"-2-({v})"
        texts += [v, w]
    shape = "poly" if kinds == ("poly",) * 3 else f"{kinds.count('rat')}rat"
    kind = f"triplet-{shape}-{'sum' if pair_sum else 'free'}"
    return Op(kind, ("baxterize", "s14", "--triplet=" + ",".join(texts), "--format", "json"),
              _triplet_judge(texts))


def _s03_mixed(c: str) -> list:
    return [[f"{c}-1", c, "0", "0"], [c, f"{c}-1", "0", "0"],
            ["0", "0", f"{c}-1", f"-{c}"], ["0", "0", f"-{c}", f"{c}-1"]]


def _s14_mixed(kp: str, kz: str) -> list:
    return [[f"{kp}-1", "0", "0", kp], ["0", f"{kz}-1", "0", "0"],
            ["0", "0", f"{kz}-1", "0"], [kp, "0", "0", f"{kp}-1"]]


_PLANE_SECTIONS = ("consistency", "coordinate-block", "differential-block", "rewrite-rules")


def _ncplane_judge(mixed: list, coordinates: list, parameters: dict):
    def judge(rc, stdout, stderr):
        report = _loads(stdout)
        problem = _verdict(rc, report, 0, _PLANE_SECTIONS)
        if not problem:
            relations = report["relations"]
            names = sorted(parameters)
            if not _same_values([report["parameters"].get(k, "") for k in names],
                                [parameters[k] for k in names]):
                problem = "parameter echo differs from the input"
            elif not _same_values([t for row in relations["mixed"] for t in row],
                                  [t for row in mixed for t in row]):
                problem = "rewrite rules differ from the published matrix"
            elif relations["coordinates"] != coordinates:
                problem = "coordinate relations differ from the published block"
        return (WRONG, problem) if problem else (OK, "")

    return judge


def parameter_sweep(seed: int, count: int, workdir: str) -> List[Op]:
    """Blocks of twelve ops mixing every parameterised verb.

    Slot expressions are constants, polynomials or rational functions in
    their own slot's symbol.  Free triplets have at most one rational
    slot and pair-sum triplets at most two: a free triplet with two
    rational slots takes from 0.3 s to over 20 s, so a few of them would
    decide a run's throughput (see README.md).
    """
    rng = random.Random(f"parameter-sweep/{seed}")
    # Slot kinds and exponents cycle with the block number, so every run
    # of a dozen blocks or more holds the same mix of input shapes.
    exponents = rng.sample(range(-6, 7), 13)
    shapes = ("const", "poly", "rat")
    ops: List[Op] = []
    while len(ops) < count:
        b = len(ops) // 12
        block: List[Op] = []
        p = exponents[b % 13]
        sections = ["parameterised-braid", "coefficient-law"]
        if p % 2 == 0:
            sections.append("reparametrised-branch")
        block.append(Op("baxterize-s03", ("baxterize", "s03", f"--p={p}", "--format", "json"),
                        _simple_judge(sections)))
        block.append(Op("baxterize-s14", ("baxterize", "s14", "--format", "json"),
                        _simple_judge(("triplet-free-braid", "coefficient-formulas",
                                       "exchange-relations"))))
        others = ("const", "poly")
        one_rat = [others[b % 2], others[b // 2 % 2]]
        one_rat.insert(b % 3, "rat")
        two_rat = ["rat", "rat"]
        two_rat.insert(b % 3, others[b // 3 % 2])
        for kinds, pair_sum in ((("const",) * 3, True), (("const",) * 3, False),
                                (("poly",) * 3, False), (one_rat, True), (one_rat, False),
                                (two_rat, True)):
            block.append(_triplet(rng, tuple(kinds), pair_sum))
        c = slot_text(rng, shapes[b % 3], "c")
        block.append(Op("ncplane-s03", ("ncplane", "s03", f"--c={c}", "--format", "json"),
                        _ncplane_judge(_s03_mixed(f"({c})"), [["1", "-1", "0", "0"], ["0", "0", "1", "1"]],
                                       {"c": c})))
        kp = slot_text(rng, shapes[b % 3], "a")
        kz = slot_text(rng, shapes[b // 3 % 3], "b")
        block.append(Op("ncplane-s14",
                        ("ncplane", "s14", f"--kplus={kp}", f"--kzero={kz}", "--format", "json"),
                        _ncplane_judge(_s14_mixed(f"({kp})", f"({kz})"), [["1", "0", "0", "-1"]],
                                       {"kplus": kp, "kzero": kz})))
        for name in ("s03", "s14"):
            block.append(Op(f"analyze-{name}", ("analyze", name, "--format", "json"),
                            _analyze_judge(_SPECTRUM[name], _ANALYZE_SECTIONS + ("published-data",))))
        rng.shuffle(block)
        ops.extend(block)
    return ops[:count]


WORKLOADS = {
    "verify-all": verify_all,
    "analyze-files": analyze_files,
    "parameter-sweep": parameter_sweep,
}
