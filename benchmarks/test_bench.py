"""Self-tests of the benchmark (not of qconic itself).

    python3 -m pytest benchmarks -q

The contact4 k = 5 spot check runs one ~30 s item.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys

import pytest

import run
import gate
import hostspeed
import workloads

run.import_qconic()

from qconic import arrangement_from_document, cli, numberfield  # noqa: E402


def _item(workload, item_id, seed=0):
    return next(it for it in workloads.items_for(workload, seed) if it.item_id == item_id)


def _run(item, tmp_path):
    workloads.write_inputs([item], str(tmp_path))
    return run.run_item(item, str(tmp_path))


# ------------------------------------------------------------ generators

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    for seed in (0, 7):
        assert workloads.items_for(workload, seed) == workloads.items_for(workload, seed)


def test_generic_seed_changes_arrangements_and_all_validate():
    docs = {}
    for seed in range(4):
        items = workloads.generic_items(seed)
        assert [it.item_id for it in items][0] == "generic_anchor_k5"
        docs[seed] = [it.document for it in items[1:]]
        for item in items:
            conics = [tuple(int(c) for c in e["coeffs"])
                      for e in json.loads(item.document)["conics"]]
            assert arrangement_from_document(item.document).k == len(conics)
            for i in range(len(conics)):
                for j in range(i + 1, len(conics)):
                    assert workloads._generic_pair(conics[i], conics[j])
    assert all(docs[a] != docs[b] for a in docs for b in docs if a < b)


def test_pencil_cubic_matches_the_determinant():
    c1, c2 = (1, 2, -3, 1, 0, 2), (2, -1, 1, 0, 3, -1)
    coeffs = workloads._pencil_cubic(c1, c2)
    m1, m2 = workloads._matrix(c1), workloads._matrix(c2)
    for t in (3, -2, 5):
        direct = workloads._det3([[m1[i][j] + t * m2[i][j] for j in range(3)]
                                  for i in range(3)])
        assert sum(c * t ** e for e, c in enumerate(coeffs)) == direct
    # two members of one pencil through four rational points
    assert not workloads._generic_pair((1, 1, -2, 0, 0, 0), (1, -1, 0, 0, 0, 0))


# ------------------------------------------------------------------ gate

def test_gate_rejects_a_perturbed_expected_output():
    item = _item("hilbert", "five_circles")
    real = gate.load_expected("five_circles")
    assert gate.check(item, 0, real) == []
    perturbed = real.replace('"tjurina": 15', '"tjurina": 16', 1)
    assert perturbed != real
    assert gate.check(item, 0, real, expected=perturbed)
    assert gate.check(item, 3, real)

    sweep = _item("sweep", "verify_a_k02_16")
    text = json.loads(gate.load_expected("verify_a_k02_16"))
    text["elapsed_seconds"] = 0.123
    assert gate.check(sweep, 0, json.dumps(text)) == []
    text["vectors_checked"] += 1
    assert gate.check(sweep, 0, json.dumps(text))


def test_identity_gate_accepts_real_output_and_rejects_perturbed(tmp_path):
    item = workloads.generic_items(3)[1]
    elapsed, rc, out, problems = _run(item, tmp_path)
    assert rc == 0 and problems == []
    report = json.loads(out)

    def perturbed(edit):
        doc = json.loads(out)
        edit(doc)
        return gate.check_identities(item.document, json.dumps(doc))

    def witness(doc):
        terms = doc["freeness"]["witness"]["triple"][0]["terms"]
        mono = next(iter(terms))
        terms[mono] = str(int(terms[mono].split("/")[0]) + 1)

    def tau_above_mu(doc):
        doc["singular_points"][0]["tjurina"] = doc["singular_points"][0]["milnor"] + 1

    def pair_mult(doc):
        mults = doc["singular_points"][0]["pairwise_multiplicities"]
        mults[next(iter(mults))] += 1

    def tau_total(doc):
        doc["tjurina_total"] += 1

    assert report["q_flag"]
    for edit in (witness, tau_above_mu, pair_mult, tau_total):
        assert perturbed(edit), edit.__name__
    assert gate.check(item, 0, json.dumps({"arrangement": {}}))


# ----------------------------------------------------------- cold caches

def test_every_item_starts_with_an_empty_field_cache(tmp_path, monkeypatch):
    seen = []
    original = cli.main

    def probe(argv):
        seen.append(len(numberfield._FIELD_CACHE))
        return original(argv)

    monkeypatch.setattr(cli, "main", probe)
    numberfield._FIELD_CACHE[("sentinel",)] = []
    item = workloads.generic_items(1)[1]
    for _ in range(2):
        _elapsed, rc, _out, problems = _run(item, tmp_path)
        assert rc == 0 and problems == []
        assert numberfield._FIELD_CACHE  # the item filled it
    assert seen == [0, 0]


# ------------------------------------------------------- host speed

def test_speed_sampler_samples_during_an_item_and_restores_the_timer(tmp_path):
    previous = signal.getsignal(signal.SIGALRM)
    sampler = hostspeed.Sampler()
    item = _item("sweep", "verify_a_k17_17")
    workloads.write_inputs([item], str(tmp_path))
    elapsed, rc, _out, problems = run.run_item(item, str(tmp_path), sampler)
    assert rc == 0 and problems == []
    # one sample on each side, and one every PERIOD_S while the item ran
    assert len(sampler.samples) >= 2 + int(elapsed / hostspeed.PERIOD_S) // 2
    assert 0 < sampler.spent < elapsed
    assert sampler.speed_factor() == pytest.approx(
        hostspeed.NOMINAL_S / sorted(sampler.samples)[len(sampler.samples) // 2], rel=0.5)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_measure_keeps_every_item_and_corrects_each_time(tmp_path):
    items = [_item("hilbert", "tangent_pair"), _item("hilbert", "generic_pair")]
    workloads.write_inputs(items, str(tmp_path))
    runs = run.measure(items, str(tmp_path), 1)
    assert set(runs) == {"tangent_pair", "generic_pair"}
    for rs in runs.values():
        passes = [r["pass"] for r in rs]
        assert passes[0] == 0 and passes == sorted(set(passes))
        for r in rs:
            assert r["problems"] == []
            assert r["corrected_s"] == pytest.approx(r["wall_s"] * r["speed"])
    metrics = run.end_to_end(runs, [0.5])
    medians = run.item_medians(runs, "corrected_s")
    assert metrics["wall_s"] == pytest.approx(sum(medians.values()))
    assert metrics["slowest_item_s"] == max(medians.values())


# ---------------------------------------------------------------- trace

def test_traced_run_records_nested_spans_and_restores_functions(tmp_path):
    from spans import Recorder, PER_LAYER
    originals = (cli.analyze_arrangement, numberfield.FieldElement.__mul__)
    items = [_item("hilbert", "tangent_pair"), _item("generic", "generic_00_k3", seed=2),
             _item("sweep", "verify_a_k02_16")]
    workloads.write_inputs(items, str(tmp_path))
    rec = Recorder()
    rec.install()
    try:
        result = run.run_pass(items, str(tmp_path), 0, rec)
    finally:
        rec.uninstall()
    assert (cli.analyze_arrangement, numberfield.FieldElement.__mul__) == originals
    assert result["failures"] == {}
    metrics = rec.pass_metrics(0)
    assert set(metrics) == {name for name, _ in PER_LAYER} - {"trace.overhead_ratio"}
    assert metrics["freeness.hilbert_degrees"] > 0          # tangent_pair, degree 4
    assert metrics["freeness.hilbert_degrees"] == metrics["linalg.rank_calls.hilbert"]
    assert metrics["localalg.levels"] == metrics["linalg.rank_calls.quotient"]
    assert metrics["combinatorics.vectors"] == 1475592
    assert metrics["numberfield.mul_calls"] > 0
    assert metrics["singular.field_degree_sum"] >= metrics["singular.orbits"] > 0
    for name, start, end, parent, item, _pass in rec.spans:
        assert end >= start
        if parent >= 0:
            p = rec.spans[parent]
            assert p[1] <= start and end <= p[2] and p[4] == item
    assert metrics["singular.locate_self_s"] >= 0 and metrics["report.self_s"] >= 0


# ------------------------------------------------------- spot values

def test_spot_values_in_expected_outputs():
    five = json.loads(gate.load_expected("five_circles"))
    origin = [p for p in five["singular_points"]
              if len(p["incident_conics"]) == 5 and p["orbit_size"] == 1]
    assert [(p["milnor"], p["tjurina"]) for p in origin] == [(16, 15)]
    sweep = json.loads(gate.load_expected("verify_a_k02_16"))
    assert (sweep["vectors_checked"], sweep["counterexamples"]) == (1475592, [])
    c45 = json.loads(gate.load_expected("contact4_k5"))
    assert [(p["milnor"], p["tjurina"]) for p in c45["singular_points"]] == [(76, 73)]


def test_contact4_k5_matches_its_expected_output(tmp_path):
    _elapsed, rc, _out, problems = _run(workloads.contact4_k5_item(), tmp_path)
    assert rc == 0 and problems == []


@pytest.mark.parametrize("workload,item_id", [
    ("hilbert", "generic_pair"), ("hilbert", "tangent_pair"), ("hilbert", "pencil3"),
    ("contact", "contact3_k3"), ("contact", "contact4_k3"),
])
def test_small_fixed_items_pass_the_gate(workload, item_id, tmp_path):
    _elapsed, rc, _out, problems = _run(_item(workload, item_id), tmp_path)
    assert rc == 0 and problems == []


# ---------------------------------------------------- missing sources

def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns(".work", ".out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not os.path.exists(tmp_path / "benchmarks" / ".out")
