"""Golden-artifact tests: the pinned numbers themselves, not path agreement.

Every entry of ``tests/golden/manifest.json`` (the registered presets at
``--scale tiny`` plus a per-point figure8, a ``workers=2`` figure6 and a
serial figure7) runs
into a fresh :class:`~repro.experiments.store.RunStore`.  Spec and point
fingerprints are asserted everywhere; payload sha256 digests are asserted
when this host matches the manifest's platform key (float rounding depends
on the CPU and the BLAS kernel).  Regenerate with ``tests/golden/regen.py``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_REGEN_PATH = Path(__file__).resolve().parent / "golden" / "regen.py"
_spec = importlib.util.spec_from_file_location("golden_regen", _REGEN_PATH)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

MANIFEST = json.loads(regen.MANIFEST.read_text())
ENTRIES = MANIFEST["entries"]


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    return {
        name: regen.run_entry(entry["preset"], entry["overrides"], root / name)
        for name, entry in ENTRIES.items()
    }


def test_manifest_covers_every_entry():
    assert set(ENTRIES) == set(regen.golden_entries())


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_fingerprints_pinned(outcomes, name):
    assert outcomes[name]["spec_fingerprint"] == ENTRIES[name]["spec_fingerprint"]
    assert outcomes[name]["point_fingerprints"] == ENTRIES[name]["point_fingerprints"]


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_payload_digest_pinned(outcomes, name):
    if regen.platform_key() != MANIFEST["platform"]:
        pytest.skip("payload digests were recorded on a different platform")
    assert outcomes[name]["payload_sha256"] == ENTRIES[name]["payload_sha256"]


@pytest.mark.parametrize(
    "variant, preset",
    [
        ("figure8@points", "figure8"),
        ("figure6@workers2", "figure6"),
        ("figure7@serial", "figure7"),
    ],
)
def test_engine_policy_matches_serial_payload(outcomes, variant, preset):
    assert outcomes[variant]["payload"] == outcomes[preset]["payload"]
