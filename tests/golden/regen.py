"""Regenerate the golden manifest: pinned fingerprints and payload digests.

usage: PYTHONPATH=src python tests/golden/regen.py

Runs every registered preset at ``--scale tiny``, plus two engine-policy
variants (figure8 with ``mode="points"``, the per-point path beside its
registered lockstep policy, and figure6 with ``workers=2``), each
into its own throwaway :class:`~repro.experiments.store.RunStore`, and writes
``manifest.json`` next to this file.  Per entry the manifest records:

* the spec fingerprint and the plan's point fingerprints — pure spec hashes,
  identical on every host;
* the sha256 of the canonical JSON result payload (sorted keys, no
  whitespace) — float rounding depends on the CPU and the BLAS kernel, so
  these digests are keyed by the same platform fields ``perfbench`` keys its
  digests by (machine, numpy version, CPU-feature hash, OpenBLAS core).

``tests/test_golden.py`` reruns every entry and asserts the fingerprints
always and the digests when the platform matches.  Changing a pinned number
means rerunning this script and saying why in ``CHANGES.md``.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, Tuple

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "manifest.json"
_SRC = HERE.parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.experiments import REGISTRY, RunStore, build_plan, execute_spec  # noqa: E402
from repro.utils.blas import openblas_symbol  # noqa: E402

#: Engine-policy variants pinned on top of the registered presets:
#: ``entry name -> (preset, overrides)``.
VARIANTS: Dict[str, Tuple[str, Dict[str, Any]]] = {
    "figure8@points": ("figure8", {"mode": "points"}),
    "figure6@workers2": ("figure6", {"workers": 2}),
}


def golden_entries() -> Dict[str, Tuple[str, Dict[str, Any]]]:
    """Every manifest entry: the registered presets, then the variants."""
    entries = {name: (name, {}) for name in REGISTRY.names()}
    entries.update(VARIANTS)
    return entries


def entry_spec(preset: str, overrides: Dict[str, Any]):
    return REGISTRY.get(preset, scale="tiny", **overrides)


def payload_digest(payload) -> str:
    """sha256 of the canonical JSON encoding of a result payload."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _blas_core() -> str:
    """The kernel OpenBLAS picked at load time, which decides float rounding."""
    corename = openblas_symbol("scipy_openblas_get_corename64_", "openblas_get_corename")
    if corename is None:
        return "unknown"
    corename.argtypes = []
    corename.restype = ctypes.c_char_p
    return corename().decode("ascii", "replace")


def platform_key() -> Dict[str, str]:
    """What decides whether a recorded payload digest applies on this host."""
    import numpy

    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    features = ",".join(sorted(k for k, on in __cpu_features__.items() if on))
    return {
        "machine": platform.machine(),
        "numpy": numpy.__version__,
        "cpu_features_sha256": hashlib.sha256(features.encode("utf-8")).hexdigest()[:16],
        "blas_core": _blas_core(),
    }


def run_entry(preset: str, overrides: Dict[str, Any], store_root: Path) -> Dict[str, Any]:
    """Run one entry into a fresh store; its fingerprints, digest and payload."""
    spec = entry_spec(preset, overrides)
    run = execute_spec(spec, store=RunStore(store_root))
    return {
        "spec_fingerprint": run.fingerprint,
        "point_fingerprints": [point.fingerprint for point in build_plan(spec).points],
        "payload_sha256": payload_digest(run.payload),
        "payload": run.payload,
    }


def build_manifest(workdir: Path) -> Dict[str, Any]:
    entries = {}
    for name, (preset, overrides) in golden_entries().items():
        outcome = run_entry(preset, overrides, workdir / name)
        outcome.pop("payload")
        entries[name] = {"preset": preset, "overrides": overrides, **outcome}
    return {"scale": "tiny", "platform": platform_key(), "entries": entries}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        manifest = build_manifest(Path(tmp))
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(manifest['entries'])} entries to {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
