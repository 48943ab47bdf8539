"""``python -m phasekit`` and the installed ``phasekit`` command: ``main`` freezes
what the imports left (it all lives until exit, so no later collection, the one
at exit included, walks it again), then runs ``cli.main``, the in-process call."""

import gc

from . import cli


def main() -> int:
    gc.freeze()
    return cli.main()


if __name__ == "__main__":
    raise SystemExit(main())
