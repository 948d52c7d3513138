"""Run one latentwalk CLI call with the tracer installed.

    python3 perfbench/traced_cli.py SUMMARY.json <latentwalk argv...>

Installs the wrappers, calls `latentwalk.cli.main(argv)`, and writes the
span summary to SUMMARY.json when the call ends, whatever its outcome.  The
package is imported from `PYTHONPATH`, as for an untraced call.
"""

import json
import sys

from tracer import Tracer, install


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    from latentwalk import cli
    try:
        return cli.main(argv)
    finally:
        with open(summary_path, "w") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    sys.exit(main())
