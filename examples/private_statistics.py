"""Private statistics over many contributors' data — a YOSO-scale workload.

Each of several parties contributes one private measurement; an analyst
learns only the sum S and the scaled second moment Q = n·Σx², from which
they post-process mean and variance in the clear.  No party's individual
value is revealed — and the computation is executed by anonymous
speak-once committees, so there is no long-lived party to compromise.

The circuit and the run/decode logic live in
:mod:`repro.circuits.workloads` (shared with the ``repro serve``
statistics workload); this script only supplies the demo measurements.

Run:  python examples/private_statistics.py
"""

from repro.circuits import run_private_statistics


def main() -> None:
    measurements = [23, 29, 31, 37, 41]  # each held by a different party
    n_parties = len(measurements)

    outcome = run_private_statistics(measurements, n=6, epsilon=0.2, seed=7)
    true_mean = sum(measurements) / n_parties
    true_var = sum((x - true_mean) ** 2 for x in measurements) / n_parties

    print(f"parties:       {n_parties}")
    print(f"S  (sum):      {outcome.s}")
    print(f"Q  (n·Σx²):    {outcome.q}")
    print(f"mean:          {outcome.mean}   (true: {true_mean})")
    print(f"variance:      {outcome.variance}   (true: {true_var})")
    assert outcome.mean == true_mean and abs(outcome.variance - true_var) < 1e-9

    meter = outcome.result.meter
    print("\nper-phase communication:")
    for phase, n_bytes in sorted(meter.by_phase().items()):
        print(
            f"  {phase:<8} {n_bytes:>10,} bytes in "
            f"{meter.total_messages(phase)} messages"
        )


if __name__ == "__main__":
    main()
