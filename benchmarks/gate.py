"""Correctness gate: decides whether one item's CLI output is right.

Items with an answer committed under ``expected/`` compare with it: byte
for byte for ``analyze --json``, as parsed JSON minus ``elapsed_seconds``
for ``verify a``.  Random ``generic`` arrangements have no stored answer,
so their output is checked by exact identities that any correct report
satisfies.  The gate uses only the Python standard library and exact
``fractions.Fraction`` arithmetic, never the code it checks.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected")


def expected_path(name: str) -> str:
    return os.path.join(EXPECTED_DIR, name + ".json")


def load_expected(name: str) -> str:
    with open(expected_path(name), "r", encoding="utf-8") as fh:
        return fh.read()


def canonical_verify(text: str) -> str:
    """``verify a --json`` output without its wall-clock field."""
    payload = json.loads(text)
    payload.pop("elapsed_seconds", None)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def check(item, rc: int, out: str, expected: str | None = None) -> list:
    """Problems found in one item's result; empty means correct.

    ``expected`` overrides the committed expected output (the self-tests
    use it to feed the gate a perturbed answer)."""
    if rc != 0:
        return [f"exit code {rc}"]
    if not item.expected:
        try:
            return check_identities(item.document, out)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return [f"report is missing or mistypes a checked field: {exc!r}"]
    want = expected if expected is not None else load_expected(item.item_id)
    got = out
    if item.document is None:
        try:
            got = canonical_verify(out)
        except ValueError as exc:
            return [f"output is not JSON: {exc}"]
    if got != want:
        return ["output differs from the expected answer"]
    return []


# ------------------------------------------------------------ identities

def _q(text) -> Fraction:
    return Fraction(str(text))


def _form(terms: dict) -> dict:
    """Parse {"a,b,c": "p/q"} into {(a, b, c): Fraction}."""
    return {tuple(int(e) for e in mono.split(",")): _q(c) for mono, c in terms.items()}


def _mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _add(p: dict, q: dict) -> dict:
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def _derivative(p: dict, var: int) -> dict:
    out = {}
    for m, c in p.items():
        if m[var]:
            mm = list(m)
            mm[var] -= 1
            out[tuple(mm)] = c * m[var]
    return out


def _conic_form(coeffs) -> dict:
    a, b, c, d, e, f = (_q(v) for v in coeffs)
    terms = {(2, 0, 0): a, (0, 2, 0): b, (0, 0, 2): c,
             (1, 1, 0): d, (1, 0, 1): e, (0, 1, 1): f}
    return {m: v for m, v in terms.items() if v}


def check_identities(document: str, out: str) -> list:
    """Exact checks of an ``analyze --json --no-hilbert-tau`` report:

    * the arrangement echo matches the input document;
    * the mdr witness is nonzero, has the stated degree and satisfies
      a f_x + b f_y + c f_z = 0 for the product f of the input conics;
    * per-pair intersection multiplicities (times orbit size) sum to 4
      for every pair;
    * tau <= mu at every point, and the type counts match the points;
    * the local-sum tau is the reported total, equals
      n2 + 3 t2 + 4 n3 + 9 n4 when q_flag holds, and the du Plessis-Wall
      verdict follows from (d, mdr, tau).
    """
    try:
        report = json.loads(out)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    problems = []
    conics = [entry["coeffs"] for entry in json.loads(document)["conics"]]
    k = len(conics)
    echo = [[_q(c) for c in entry["coeffs"]] for entry in report["arrangement"]["conics"]]
    if echo != [[_q(c) for c in coeffs] for coeffs in conics]:
        problems.append("arrangement echo differs from the input")

    f = {(0, 0, 0): Fraction(1)}
    for coeffs in conics:
        f = _mul(f, _conic_form(coeffs))
    d = 2 * k
    fr = report["freeness"]
    witness = fr["witness"]
    r = witness["degree"]
    triple = [_form(g["terms"]) for g in witness["triple"]]
    if r != fr["mdr"] or any(g and sum(next(iter(g))) != r for g in triple):
        problems.append("witness degree differs from mdr")
    if not any(triple):
        problems.append("witness is zero")
    acc: dict = {}
    for g, var in zip(triple, range(3)):
        acc = _add(acc, _mul(g, _derivative(f, var)))
    if acc:
        problems.append("witness fails the syzygy identity")

    per_pair: dict = {}
    counts = {"node": 0, "tacnode": 0, "ordinary_triple": 0,
              "ordinary_quadruple": 0, "other": 0}
    local_sum = 0
    for p in report["singular_points"]:
        for pair, mult in p["pairwise_multiplicities"].items():
            per_pair[pair] = per_pair.get(pair, 0) + mult * p["orbit_size"]
        if p["tjurina"] > p["milnor"]:
            problems.append("tau > mu at a point")
        if p["quasi_homogeneous"] != (p["tjurina"] == p["milnor"]):
            problems.append("quasi_homogeneous flag differs from mu == tau")
        counts[p["type"]["name"]] += p["orbit_size"]
        local_sum += p["orbit_size"] * p["tjurina"]
    if len(per_pair) != k * (k - 1) // 2 or any(v != 4 for v in per_pair.values()):
        problems.append("pair multiplicities do not sum to 4")

    wc = report["weak_combinatorics"]
    if (wc["k"], wc["n2"], wc["t2"], wc["n3"], wc["n4"], wc["other"]) != (
            k, counts["node"], counts["tacnode"], counts["ordinary_triple"],
            counts["ordinary_quadruple"], counts["other"]):
        problems.append("weak combinatorics differ from the point types")
    q_flag = counts["other"] == 0
    tau = report["tjurina_total"]
    sources = report["tau_sources"]
    if report["q_flag"] != q_flag:
        problems.append("q_flag differs from the point types")
    if tau != local_sum or sources.get("local_sum") != local_sum or fr["tjurina_total"] != tau:
        problems.append("total tau differs from the local sum")
    if q_flag:
        combinatorial = counts["node"] + 3 * counts["tacnode"] + \
            4 * counts["ordinary_triple"] + 9 * counts["ordinary_quadruple"]
        if local_sum != combinatorial or sources.get("combinatorial") != combinatorial:
            problems.append("local-sum tau differs from the combinatorial tau")
    if "hilbert" in sources:
        problems.append("Hilbert route ran although it was switched off")

    value = r * r - r * (d - 1) + (d - 1) ** 2
    free = 2 * r <= d - 1 and value == tau
    if fr["degree"] != d or fr["dpw_value"] != value or fr["free"] != free:
        problems.append("freeness verdict does not follow from (d, mdr, tau)")
    return problems
