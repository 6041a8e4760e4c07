"""Run one vrpplan command in a fresh, traced interpreter.

    python3 bench/traced_cli.py OUT.json COMMAND [ARGS...]
        runs ``vrpplan.cli.main([COMMAND, ARGS...])`` with every public
        function of the package wrapped by the tracer, writes the tracer's
        aggregates and spans to OUT.json and exits with the command's code.
    python3 bench/traced_cli.py --probe
        prints how long ``import vrpplan`` takes, how many modules it adds
        and how many of them belong to scipy.

``PYTHONPATH`` must point at the ``src`` directory of the checkout.
"""

import sys
import time

before = set(sys.modules)
start = time.perf_counter()
import vrpplan  # noqa: E402  (the import itself is what is measured)

import_s = time.perf_counter() - start
added = set(sys.modules) - before

import json  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    if sys.argv[1] == "--probe":
        scipy = [m for m in added if m == "scipy" or m.startswith("scipy.")]
        print(json.dumps({"import_s": import_s, "modules": len(added), "scipy_modules": len(scipy)}))
        return 0
    import tracer

    out, argv = Path(sys.argv[1]), sys.argv[2:]
    tr = tracer.Tracer(span_cap=20_000)
    tr.install(vrpplan)
    try:
        code = vrpplan.cli.main(argv)
    finally:
        tr.uninstall()
    out.write_text(json.dumps({"import_s": import_s, "aggregates": tr.aggregates(), "spans": tr.spans()}))
    return code


if __name__ == "__main__":
    sys.exit(main())
