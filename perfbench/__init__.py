"""End-to-end benchmark of the simulator.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload from the repository root and prints every metric by
name with its unit; the last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``). See
``perfbench/README.md`` for the workloads, the metrics and the map from
each layer metric to the end-to-end metric it should move.

The benchmark drives the program only through public entry points and
default constructors: it passes no implementation-selection argument,
flips no module default and touches no private name, so later changes
may delete such knobs without breaking it.
"""
