"""Workload definitions: which `qconic` CLI calls one pass of each workload
makes, and the input documents they read.

An item is one CLI invocation, given as the argv passed to
``qconic.cli.main``.  Fixed families always produce the same documents;
the seed fixes the order in which a pass visits them, and the
``generic`` workload draws all its arrangements but one from the seed.

Why each workload exists (see README.md for the measured baseline):

* ``hilbert``: default options on curves of degree <= 10, so the
  Hilbert-function Tjurina route (large rational ranks) dominates.
* ``generic``: random small-integer conics with ``--no-hilbert-tau``;
  almost every point is a node over a cubic or quartic field, so pair
  solving and local invariants over number fields dominate.
* ``contact``: pencils with 3- and 4-fold contact and base-point pencils,
  ``--no-hilbert-tau``; rational points with large local algebras, so the
  work is deep truncated local algebra over Q (many small ranks).
* ``sweep``: the ``verify a`` combinatorial sweep over two k ranges; it
  reaches no geometric layer.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

WORKLOADS = ("hilbert", "generic", "contact", "sweep")

#: k ranges of the sweep workload's items; k <= 16 checks 1,475,592
#: vectors in about 5 s, and k = 17 lengthens the pass to about 7 s
SWEEP_RANGES = ((2, 16), (17, 17))

#: member counts of the seed's random arrangements in one ``generic`` pass.
#: The cost of one random arrangement spreads by about +-25% between
#: seeds, so the pass sums many small ones; k = 5 takes 5-9 s and k = 6
#: about 22 s each, too long to draw at random in a 25 s run
GENERIC_KS = (3,) * 12 + (4,) * 2
GENERIC_COEFF = 3

#: a fixed k = 5 arrangement with generic pairs (eight quartic orbits, two
#: cubic orbits and two rational points, all nodes), drawn once; it is the
#: slowest item of every ``generic`` pass, so ``slowest_item_s`` times the
#: same answer on every seed
GENERIC_ANCHOR = (
    (1, 2, -1, 3, -3, 3),
    (1, 3, 2, 2, 1, 0),
    (0, -1, -1, -2, 1, -2),
    (0, 2, 2, 2, -3, 2),
    (2, -1, -3, -2, 2, -3),
)

_CONIC_X2_Y2_2Z2 = (1, 1, -2, 0, 0, 0)   # x^2 + y^2 - 2 z^2
_CONIC_X2_MINUS_Y2 = (1, -1, 0, 0, 0, 0)  # x^2 - y^2
_CONIC_YZ_MINUS_X2 = (-1, 0, 0, 0, 0, 1)  # -x^2 + y z
_XZ = (0, 0, 0, 0, 1, 0)
_Z2 = (0, 0, 1, 0, 0, 0)

FIVE_CIRCLES = (
    (1, 1, 0, 0, -6, -8),
    (1, 1, 0, 0, -8, -6),
    (1, 1, 0, 0, 6, -8),
    (1, 1, 0, 0, 8, -6),
    (1, 1, 0, 0, -10, 0),
)


@dataclass(frozen=True)
class Item:
    """One CLI invocation.  ``document`` is the arrangement file content
    (None for ``verify``); ``expected`` says whether ``expected/<item_id>.json``
    holds the answer (otherwise the gate checks identities)."""

    item_id: str
    argv_tail: tuple
    document: str | None = None
    expected: bool = False

    def argv(self, workdir: str) -> list:
        if self.document is None:
            return list(self.argv_tail)
        return ["analyze", "--json", self.input_path(workdir), *self.argv_tail]

    def input_path(self, workdir: str) -> str:
        return os.path.join(workdir, self.item_id + ".json")


def _document(conics) -> str:
    # same layout as qconic.arrangement_to_document, written without the
    # library so a document never depends on the code it measures
    doc = {"conics": [{"coeffs": [str(c) for c in coeffs]} for coeffs in conics]}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _pencil(g1, g2, params):
    return [tuple(a + t * b for a, b in zip(g1, g2)) for t in params]


def _analyze(item_id, conics, *flags) -> Item:
    return Item(item_id, tuple(flags), _document(conics), True)


def fixed_items(workload: str) -> list:
    """Items with a committed expected output, in canonical order."""
    base = lambda params: _pencil(_CONIC_X2_Y2_2Z2, _CONIC_X2_MINUS_Y2, params)
    if workload == "hilbert":
        return [
            _analyze("five_circles", FIVE_CIRCLES),
            _analyze("pencil5", base([0, 2, 3, 4, 5])),
            _analyze("generic_pair", [_CONIC_X2_Y2_2Z2, (1, 2, -3, 0, 0, 0)]),
            _analyze("tangent_pair", [(1, 1, -1, 0, 0, 0), (1, 2, -1, 0, 0, 0)]),
            _analyze("pencil3", base([0, 2, 3])),
            _analyze("pencil4", base([0, 2, 3, 4])),
        ]
    if workload == "contact":
        c3 = lambda k: _pencil(_CONIC_YZ_MINUS_X2, _XZ, range(k))
        c4 = lambda k: _pencil(_CONIC_YZ_MINUS_X2, _Z2, range(k))
        flag = "--no-hilbert-tau"
        return [
            _analyze("contact3_k3", c3(3), flag),
            _analyze("contact3_k4", c3(4), flag),
            _analyze("contact4_k3", c4(3), flag),
            _analyze("contact4_k4", c4(4), flag),
            _analyze("pencil6", base([0, 2, 3, 4, 5, 6]), flag),
            _analyze("pencil7", base([0, 2, 3, 4, 5, 6, 7]), flag),
        ]
    if workload == "generic":
        return [_analyze("generic_anchor_k5", GENERIC_ANCHOR, "--no-hilbert-tau")]
    if workload == "sweep":
        return [Item(f"verify_a_k{lo:02d}_{hi:02d}",
                     ("verify", "a", "--kmin", str(lo), "--kmax", str(hi), "--jobs", "1", "--json"),
                     None, True)
                for lo, hi in SWEEP_RANGES]
    raise ValueError(f"no fixed family for workload {workload!r}")


def contact4_k5_item() -> Item:
    """The 4-fold contact pencil with five members (one point with
    milnor 76, tjurina 73).  Too slow for a timed pass; the self-tests run it."""
    return _analyze("contact4_k5", _pencil(_CONIC_YZ_MINUS_X2, _Z2, range(5)),
                    "--no-hilbert-tau")


def _matrix(c):
    """Twice the symmetric matrix of a x^2 + b y^2 + c z^2 + d xy + e xz + f yz."""
    a, b, cc, d, e, f = c
    return ((2 * a, d, e), (d, 2 * b, f), (e, f, 2 * cc))


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _pencil_cubic(c1, c2):
    """Coefficients (t^0 .. t^3) of det(M1 + t M2), from its values at
    t = 0, 1, -1, 2."""
    m1, m2 = _matrix(c1), _matrix(c2)
    v = [_det3([[m1[i][j] + t * m2[i][j] for j in range(3)] for i in range(3)])
         for t in (0, 1, -1, 2)]
    d0 = v[0]
    # v1 = d0+d1+d2+d3, v-1 = d0-d1+d2-d3, v2 = d0+2d1+4d2+8d3
    d2 = (v[1] + v[2]) // 2 - d0
    odd = (v[1] - v[2]) // 2          # d1 + d3
    d3 = (v[3] - d0 - 4 * d2 - 2 * odd) // 6
    return d0, odd - d3, d2, d3


def _divisors(n: int):
    n = abs(n)
    return [q for q in range(1, n + 1) if n % q == 0]


def _generic_pair(c1, c2) -> bool:
    """True when the pencil cubic det(M1 + t M2) has nonzero discriminant
    (the conics meet transversally in four points) and no rational root
    (none of the three line pairs through the four points is defined over
    Q).  The points then form one quartic orbit, or a rational point and a
    cubic orbit."""
    d, c, b, a = _pencil_cubic(c1, c2)   # a t^3 + b t^2 + c t + d
    disc = b * b * c * c - 4 * a * c ** 3 - 4 * b ** 3 * d - 27 * a * a * d * d + 18 * a * b * c * d
    if disc == 0 or a == 0 or d == 0:
        return False
    for p in _divisors(d):
        for q in _divisors(a):
            for num in (p, -p):
                if a * num ** 3 + b * num ** 2 * q + c * num * q * q + d * q ** 3 == 0:
                    return False
    return True


def random_arrangement(rng: random.Random, k: int) -> list:
    """k smooth conics with integer coefficients in [-GENERIC_COEFF,
    GENERIC_COEFF], every pair meeting as :func:`_generic_pair` requires,
    drawn by rejection."""
    conics = []
    while len(conics) < k:
        c = tuple(rng.randint(-GENERIC_COEFF, GENERIC_COEFF) for _ in range(6))
        if _det3(_matrix(c)) and all(_generic_pair(o, c) for o in conics):
            conics.append(c)
    return conics


def generic_items(seed: int) -> list:
    """The fixed anchor, then the seed's random arrangements (no stored
    answer: the gate checks them by identities)."""
    rng = random.Random(f"qconic-generic-{seed}")
    randoms = [Item(f"generic_{n:02d}_k{k}", ("--no-hilbert-tau",),
                    _document(random_arrangement(rng, k)))
               for n, k in enumerate(GENERIC_KS)]
    return fixed_items("generic") + randoms


def items_for(workload: str, seed: int) -> list:
    """Items of one pass, in the seed's order."""
    items = generic_items(seed) if workload == "generic" else fixed_items(workload)
    random.Random(f"qconic-order-{workload}-{seed}").shuffle(items)
    return items


def write_inputs(items, workdir: str) -> None:
    os.makedirs(workdir, exist_ok=True)
    for item in items:
        if item.document is not None:
            with open(item.input_path(workdir), "w", encoding="utf-8") as fh:
                fh.write(item.document)
