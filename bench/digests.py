"""Artifact digests of the shipped case39 scenario, per seed offset.

`case39_digests.json` holds, for each seed offset o, the digest of every
artifact `acfdi scenario run` writes for the shipped config with the noise
and arbitrary-start seeds both shifted by o, as produced by the commit that
introduced the benchmark. The benchmark reports how many items match; it
does not fail on a mismatch.

Regenerate (from the repository root):

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 bench/digests.py 256
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "case39_digests.json")


def artifact_digest(out_dir: str) -> str:
    """sha256 over every file in out_dir, in name order, names included."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode("utf-8") + b"\0")
        with open(os.path.join(out_dir, name), "rb") as f:
            h.update(f.read())
        h.update(b"\0")
    return h.hexdigest()


def load_reference() -> dict[str, str]:
    """Offset -> digest; empty while the table is being regenerated."""
    if not os.path.exists(REFERENCE):
        return {}
    with open(REFERENCE, encoding="utf-8") as f:
        return json.load(f)["offsets"]


def _regenerate(count: int) -> None:
    import tempfile

    import workloads

    digests = {}
    with tempfile.TemporaryDirectory(dir=os.path.dirname(REFERENCE)) as tmp:
        wl = workloads.ScenarioWorkload(0, tmp, tiles=1)
        wl.prepare()
        for off in range(count):
            out = os.path.join(tmp, "out")
            cfg = os.path.join(tmp, "cfg.json")
            with open(cfg, "w", encoding="utf-8") as f:
                json.dump(wl.config(off), f)
            rc = workloads.acfdi.cli.main(["scenario", "run", cfg, "--out", out])
            if rc != 0:
                raise SystemExit(f"offset {off}: exit code {rc}")
            digests[str(off)] = artifact_digest(out)
            for name in os.listdir(out):
                os.remove(os.path.join(out, name))
    with open(REFERENCE, "w", encoding="utf-8") as f:
        json.dump({"offsets": digests}, f, indent=0, sort_keys=False)
        f.write("\n")


if __name__ == "__main__":
    _regenerate(int(sys.argv[1]))
