#!/usr/bin/env python3
"""Start the knotgate CLI with the benchmark's span wrappers installed.

    python3 perfbench/launcher.py [--spans FILE] -- serve --config CFG

With --spans the wrappers of perfbench/spans.py go in before
`knotgate.cli.main` runs, and every span is written to FILE when it
returns (after SIGTERM for `serve`).  Without it the CLI runs untouched.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--spans", type=Path)
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    from knotgate import cli

    tracer = None
    if args.spans is not None:
        import spans

        tracer = spans.Tracer()
        tracer.set_phase("measure")
        tracer.install()
    try:
        return cli.main(argv)
    finally:
        if tracer is not None:
            tracer.uninstall()
            spans.dump(tracer.spans, args.spans)


if __name__ == "__main__":
    sys.exit(main())
