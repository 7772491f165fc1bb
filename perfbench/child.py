"""One cold holoq process, spawned by run.py.

    python3 child.py SIDECAR probe
    python3 child.py SIDECAR plain|traced -- HOLOQ_ARGS...

Imports holoq.cli from the package on PYTHONPATH, notes the clock when it is
ready to parse arguments, and writes that time to SIDECAR as JSON. `probe`
stops there. `plain` then calls ``holoq.cli.main(HOLOQ_ARGS)``, the entry
point of the console script; `traced` first wraps holoq's functions (see
tracer.py) and also writes the spans next to SIDECAR. The exit code is the
one holoq returns.
"""

import json
import os
import sys
import time

import holoq.cli

ready = time.perf_counter()


def main(argv):
    sidecar, mode = argv[0], argv[1]
    info = {"ready": ready, "holoq": os.path.dirname(holoq.cli.__file__),
            "numpy": sys.modules["numpy"].__version__}
    if mode == "probe":
        rc = 0
    else:
        holoq_args = argv[argv.index("--") + 1:]
        if mode == "traced":
            from tracer import Tracer, install

            tracer = Tracer()
            install(tracer)
        rc = holoq.cli.main(holoq_args)
        if mode == "traced":
            tracer.dump(sidecar + ".trace")
    with open(sidecar, "w") as fh:
        json.dump(info, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
