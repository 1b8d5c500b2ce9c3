"""Smoke test of the suite benchmark (outside ``tests/``: tier-1 is untouched).

``python -m pytest bench/test_smoke.py`` runs ``bench/run.py --smoke`` — all
four workloads, both metric sets, scale 0.5, one pass each — and checks
that what it emitted is exactly what ``BENCHMARK.json`` declares and that the
traced time decomposes.
"""

import json
import pathlib
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
SECTIONS = {"trace0": "end_to_end", "trace1": "per_layer"}


def test_smoke_suite_matches_manifest_and_sums_to_wall():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--seed", "42"],
        capture_output=True, text=True, timeout=300, check=False,
    )
    assert done.returncode == 0, done.stdout + done.stderr

    manifest = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    out = BENCH / "out"
    suite = json.loads((out / "suite-seed42-smoke.json").read_text())["results"]
    assert set(suite) == {w["name"] for w in manifest["workloads"]}
    for name, by_mode in suite.items():
        for mode, section in SECTIONS.items():
            result = by_mode[mode]
            assert result["correct"] and result["failed"] == 0, (name, mode)
            declared = {m["name"]: m["unit"] for m in manifest[section]}
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            assert emitted == declared, (name, mode)

        record = json.loads((out / f"{name}-seed42-trace1-smoke.json").read_text())
        traced = [p for p in record["passes"] if p["traced"]]
        assert traced, name
        for p in traced:
            # Layer self times + trace.unattributed_s = traced wall.
            assert abs(sum(p["layer_s"].values()) - p["wall_s"]) < 1e-6, name
        layers = record["result"]["metrics"]
        if name == "flat_spja":
            for quiet in ("classify.calls", "sentinels.record_s", "sentinels.check_s",
                          "controller.recoveries"):
                assert layers[quiet]["value"] == 0, quiet
        if name == "sharded2":
            assert layers["shards.fallbacks"]["value"] == 0
