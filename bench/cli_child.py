"""Run one leaklab command with its layers traced; used by the traced run
of the cli-corpus workload in place of ``python -m leaklab.cli``.

Usage: python3 bench/cli_child.py STATS_FILE {timed|blind} ARGS...

The command's exit code, stdout and stderr are leaklab's own; the per-layer
figures go to STATS_FILE as JSON.
"""

import json
import sys
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import tracer  # noqa: E402
from leaklab import assertions, cli, dl, explorer, ifc, lang, proofs, semantics  # noqa: E402


def main() -> int:
    stats, mode, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    lk = types.SimpleNamespace(assertions=assertions, dl=dl, explorer=explorer, ifc=ifc,
                               lang=lang, proofs=proofs, semantics=semantics)
    tr = tracer.Tracer()
    tr.install(lk)
    tr.begin_op(" ".join(args), clock_in_state=mode != "blind")
    try:
        code = cli.main(args)
    finally:
        tr.end_op()
        tr.uninstall()
        Path(stats).write_text(json.dumps(tr.export()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
