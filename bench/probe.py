"""Fresh-interpreter probes the benchmark times from outside.

    probe.py setup CASE   import acfdi.cli, load CASE ('case39' or a case
                          JSON path) and build its admittance model
    probe.py wls          print the wall time in ms of one wls_estimate on
                          case39 after a warm-up call, under whatever BLAS
                          thread setting the environment gives
"""

from __future__ import annotations

import sys
import time


def setup(case_arg: str) -> None:
    import acfdi.cli  # noqa: F401  (the import is what is measured)
    from acfdi import build_admittance, load_bundled_case39, load_case

    case = load_bundled_case39() if case_arg == "case39" else load_case(case_arg)
    build_admittance(case)


def wls() -> None:
    from acfdi import (
        build_admittance,
        generate_measurements,
        load_bundled_case39,
        newton_power_flow,
        wls_estimate,
    )

    case = load_bundled_case39()
    adm = build_admittance(case)
    ms = generate_measurements(case, newton_power_flow(case, adm).state, seed=0, adm=adm)
    wls_estimate(ms, case, adm)
    t0 = time.perf_counter()
    wls_estimate(ms, case, adm)
    print(1e3 * (time.perf_counter() - t0))


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2])
    elif sys.argv[1] == "wls":
        wls()
    else:
        raise SystemExit(f"unknown probe {sys.argv[1]!r}")
