"""Print the count and sha256 of Monte Carlo tallies and coverage fractions.

It prints two lines, ``sessions <count> <sha256>`` and ``coverage
<count> <sha256>``:

* sessions: the ``format_tally`` dump of every session of presets
  fig2b, fig3e and fig6a x 0, 50 and 100 km x seeds 1-5, at 1e7 pulses;
* coverage: the ``repr`` of every ``coverage_experiment`` fraction at
  the benchmark's coverage inputs: fig2f with either bound and fig2c
  with the Hoeffding bound, at 0 km, 5e4 and 2e5 pulses and 100 trials,
  seeds 1-5.  Each runs at the benchmark's eps_pe = 0.01, where every
  fraction is 1.0, and at eps_pe = 0.9, where intervals miss and the
  fraction moves with every draw and width.

Each line hashes its items (the fractions one per line) joined.  Two
trees that print the same sessions line draw the same tallies, and two
that print the same coverage line count the same coverage, so the
script checks a Monte Carlo refactor that should move no count and
shows which half a change to the sampler moved.

Run from the repository root (takes under a second)::

    PYTHONPATH=src python tools/mc_digest.py
"""
from __future__ import annotations

import hashlib

from hdqkd.montecarlo import coverage_experiment, format_tally, simulate_session
from hdqkd.scenario import parse_config

SEEDS = range(1, 6)
SESSIONS = ("fig2b", "fig3e", "fig6a")
LENGTHS_KM = (0.0, 50.0, 100.0)
COVERAGE = (("fig2f", "hoeffding"), ("fig2f", "chernoff"), ("fig2c", "hoeffding"))
COVERAGE_PULSES = (5 * 10**4, 2 * 10**5)
COVERAGE_EPS = (0.01, 0.9)


def digest(name: str, items: list[str]) -> None:
    text = "".join(items)
    print(name, len(items), hashlib.sha256(text.encode()).hexdigest())


def main() -> None:
    sessions = []
    for name in SESSIONS:
        scenario = parse_config("", preset=name)
        for length in LENGTHS_KM:
            for seed in SEEDS:
                config = scenario.sim_config(length, seed, n_pulses=10**7)
                sessions.append(format_tally(simulate_session(config)))
    digest("sessions", sessions)
    fractions = []
    for name, method in COVERAGE:
        scenario = parse_config("", preset=name)
        for n_pulses in COVERAGE_PULSES:
            for seed in SEEDS:
                config = scenario.sim_config(0.0, seed, n_pulses=n_pulses)
                for eps_pe in COVERAGE_EPS:
                    fraction = coverage_experiment(config, eps_pe, method, 100)
                    fractions.append(f"{fraction!r}\n")
    digest("coverage", fractions)


if __name__ == "__main__":
    main()
