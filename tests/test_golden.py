"""Golden report manifest: the CLI's reports must not change by accident.

``tests/golden/reports.json`` maps each command below to its exit code and
the SHA-256 of what it writes: its stdout, or for ``emit-smt`` each file it
writes.  Commands run in-process through ``cli.main``.  A change that alters
a report on purpose records the manifest again with

    PYTHONPATH=src python tests/test_golden.py

which prints the key of each entry it added, removed or changed; a change
says in its description which entries changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "golden" / "reports.json"
ANNOTATED = ("tests/programs/semaphore_pair_annotated.cwl",
             "tests/programs/semaphore_pair_inverted.cwl")
SCENARIOS = ("tests/programs/ifc_scenario_low_reads_high.json",
             "tests/programs/ifc_scenario_relabel_then_read.json",
             "tests/programs/ifc_scenario_concurrent_ni.json")


def commands() -> list[list[str]]:
    programs = sorted(str(p.relative_to(ROOT))
                      for p in (ROOT / "tests" / "programs").rglob("*.cwl"))
    out: list[list[str]] = []
    for path in programs:
        out.append(["leakscan", path, "--format", "json"])
        out.append(["leakscan", path, "--timing-blind", "--format", "json"])
        out.append(["leakscan", path])
        out.append(["leakscan", path, "--timing-blind"])
        out.append(["leakscan", path, "--stats"])
        out.append(["dl", path, "--synthesize", "--format", "json"])
    for path in ANNOTATED:
        out.append(["ogcheck", path, "--format", "json"])
        out.append(["ogcheck", path, "--format", "json", "--snapshot-bound", "32"])
        out.append(["emit-smt", path, "--out-dir", "OUT"])
    for path in SCENARIOS:
        out.append(["ifc", path, "--format", "json"])
    return out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(argv: list[str]) -> dict:
    """Exit code and hashes of one command, run from the repository root."""
    from leaklab import cli

    argv = [str(ROOT / a) if a.startswith("tests/") else a for a in argv]
    stdout = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = [tmp if a == "OUT" else a for a in argv]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if argv[0] == "emit-smt":
            files = {p.name: _sha(p.read_text(encoding="utf-8"))
                     for p in sorted(Path(tmp).iterdir())}
            return {"exit": code, "files": files}
    return {"exit": code, "stdout_sha256": _sha(stdout.getvalue())}


def key(argv: list[str]) -> str:
    return " ".join(argv)


def reproduce(argv: list[str]) -> str:
    argv = ["smt-out" if a == "OUT" else a for a in argv]
    cmd = "PYTHONPATH=src python -m leaklab.cli " + shlex.join(argv)
    if argv[0] == "emit-smt":
        return cmd + " && sha256sum smt-out/*"
    return cmd + " | sha256sum; echo exit ${PIPESTATUS[0]}"


@pytest.fixture(autouse=True)
def _no_config(monkeypatch):
    monkeypatch.delenv("LEAKLAB_CONFIG", raising=False)


@pytest.mark.parametrize("argv", commands(), ids=key)
def test_report_matches_manifest(argv):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert key(argv) in manifest, f"no golden entry; record: {reproduce(argv)}"
    got = run(argv)
    assert got == manifest[key(argv)], (
        f"report changed; reproduce from the repository root with:\n  {reproduce(argv)}")


def test_manifest_lists_only_current_commands():
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert sorted(manifest) == sorted(key(argv) for argv in commands())


if __name__ == "__main__":
    os.environ.pop("LEAKLAB_CONFIG", None)
    entries = {key(argv): run(argv) for argv in commands()}
    old = json.loads(MANIFEST.read_text(encoding="utf-8")) if MANIFEST.exists() else {}
    for k in sorted(entries.keys() | old.keys()):
        if k not in old:
            print(f"added: {k}")
        elif k not in entries:
            print(f"removed: {k}")
        elif entries[k] != old[k]:
            print(f"changed: {k}")
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"recorded {len(entries)} entries in {MANIFEST.relative_to(ROOT)}")
