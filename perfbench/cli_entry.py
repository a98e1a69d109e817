"""Run voxprop's command line from this checkout's ``src``.

Same as the ``voxprop`` console script. When ``PERFBENCH_SPANS`` names a
file, the run is traced: the import is recorded as ``cli.import`` from the
spawn time the parent passed in ``PERFBENCH_SPAWN``, voxprop's calls are
recorded as spans, and the spans are written to that file at exit.
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv) -> int:
    spans_file = os.environ.get("PERFBENCH_SPANS")
    if not spans_file:
        from voxprop.cli import main as cli_main

        return cli_main(argv)

    import spans

    rec = spans.Recorder()
    from voxprop import cli

    rec.add("cli.import", float(os.environ["PERFBENCH_SPAWN"]), spans.now())
    try:
        with spans.installed(rec), rec.span("cli.main"):
            return cli.main(argv)
    finally:
        rec.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
