"""Time one cold set-up of a workload in a fresh interpreter.

Usage: python3 bench/setup_probe.py <src-dir> <workload> [arg ...]

Set-up is everything before the first step: importing pwsint (and numpy
with it), parsing the configuration, building the system and resolving
both schemes.  The clock starts before the first import; interpreter
start-up is not included.  Afterwards the host-speed kernel runs in this
same process.  Prints the set-up seconds and the kernel seconds.

It does not import ``workloads.py``, which imports pwsint and numpy
before the clock could start; the workload's arguments come from the
runner instead.
"""

import sys
import time


def main(argv: list[str]) -> None:
    t0 = time.perf_counter()
    sys.path.insert(0, argv[0])
    workload, args = argv[1], argv[2:]
    if workload in ("integrate-csv", "sweep-elliptic"):
        from pwsint import cli

        kv = dict(a.split("=", 1) for a in args)
        cli.build_config(kv)  # builds the system and resolves both schemes
    elif workload == "ensemble-coarse":
        import pwsint

        sys_ = pwsint.make_system("harmonic", omega2_minus=float(args[0]),
                                  omega2_plus=float(args[1]))
        pwsint.resolve_scheme("dmm-midpoint", sys_, pwsint.RegionSide.MINUS)
        pwsint.resolve_scheme("dmm-midpoint", sys_, pwsint.RegionSide.PLUS)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    elapsed = time.perf_counter() - t0

    import hostspeed

    hostspeed.kernel()  # first run warms the interpreter's caches
    print(repr(elapsed), repr(hostspeed.kernel_seconds(10)))


if __name__ == "__main__":
    main(sys.argv[1:])
