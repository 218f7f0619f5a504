"""Times one set-up in a fresh interpreter: from start until the initial net is ready.

Usage: python3 perfbench/setup_probe.py SRC_DIR FILE

Set-up is what every CLI call pays before it can act: importing `kdb.cli`,
parsing, type checking and canonicalizing the program. Interpreter start-up
itself is not counted. Prints the seconds taken and, measured after them in
the same process, the reference times that calibrate them (calibrate.py).
"""

import json
import os
import sys
import time

from calibrate import reference_seconds


def main(src: str, path: str) -> dict:
    start = time.perf_counter()
    sys.path.insert(0, src)
    import kdb.cli  # noqa: F401
    from kdb import net, parser, typesys

    if os.path.dirname(os.path.dirname(os.path.abspath(parser.__file__))) != src:
        sys.exit(f"setup_probe: imported kdb from {parser.__file__}, not from {src}")
    with open(path, encoding="utf-8") as fh:
        system = parser.parse_system(fh.read())
    typesys.check_system(system)
    net.canonicalize(system.main_net)
    setup = time.perf_counter() - start
    return {"setup_s": setup, "reference_s": reference_seconds(5)}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], sys.argv[2])))
