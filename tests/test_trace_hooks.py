"""The benchmark's span recorder (``benchmarks/spans.py``) wraps program
functions by name; installing and removing it here makes a rename of any
wrapped name fail the main suite, not only the benchmark's self-tests."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("qconic_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_recorder_install_and_uninstall():
    from qconic import numberfield, singular

    recorder = _load_spans().Recorder()
    try:
        recorder.install()  # AttributeError on a renamed wrapped name
        wrapped = list(recorder._restore)
        assert {(owner.__name__, attr) for owner, attr, _ in wrapped} >= {
            ("qconic.singular", "factor"),
            ("qconic.numberfield", "fields_for_polynomial"),
            ("qconic.singular", "local_milnor_number")}
        assert all(getattr(owner, attr) is not original
                   for owner, attr, original in wrapped)
    finally:
        recorder.uninstall()
    assert all(getattr(owner, attr) is original
               for owner, attr, original in wrapped)
    assert singular.factor.__module__ == "qconic.factorint"
    assert numberfield.fields_for_polynomial.__module__ == "qconic.numberfield"
