"""The in-process layer benchmark runs and records what it ran on."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

# CI runs the suite from outside the checkout, so the script is found
# next to this file rather than on the import path.
SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("layers", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_records_its_run(tmp_path, capsys):
    layers = load_layers()
    cases = ["E-8x8x8", "invariance-100-3x3"]
    doc = json.loads(json.dumps(layers.run(cases, 1)))
    for field in ("machine", "platform", "cpu", "cpu_count", "python", "numpy", "blas"):
        assert doc[field]
    assert "OPENBLAS_NUM_THREADS" in doc
    assert (doc["seed"], doc["rounds"]) == (layers.SEED, 1)
    assert list(doc["cases"]) == cases
    for case in doc["cases"].values():
        assert len(case["times_s"]) == 1
        assert case["best_s"] == case["times_s"][0] > 0
    # comparing a run with itself reports every case, unchanged
    out = tmp_path / "bench.json"
    out.write_text(json.dumps(doc))
    assert layers.main(["--compare", str(out), str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == layers.compare(doc, doc)
    assert [line.split()[0] for line in lines] == cases
    assert all(line.endswith("+0.0%") for line in lines)
