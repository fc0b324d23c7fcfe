"""Latency sweep: what delivery delay does to a distributed tracker.

The paper's model delivers every site-to-coordinator message instantly; the
``repro.asynchrony`` subsystem asks what happens when it doesn't.  This
example distributes one biased random walk over ``k`` sites, then tracks it
with the Section 3.3 deterministic counter over the asynchronous transport at
increasing latency scales — the same stream, the same seeds, only the
network slows down.  The report shows the three effects latency has:

* **accuracy** — the time-averaged relative error and the fraction of steps
  violating the ``eps`` guarantee grow with the latency scale (the guarantee
  is proved for instant delivery only);
* **staleness** — the mean age of delivered messages tracks the latency
  scale, and the in-flight high-water mark shows how much of the protocol is
  airborne at once;
* **cost** — message counts *rise* with latency, because sites keep
  reporting against stale block levels the coordinator has already moved past.

The scale-0 row runs the identical zero-latency configuration that is
bit-for-bit equivalent to the synchronous engine, anchoring the sweep to the
paper's semantics.  A final FIFO-versus-reordering comparison shows what
adversarial delivery order adds on top of delay.

Run with::

    python examples/latency_sweep.py
"""

from __future__ import annotations

from repro import variability
from repro.analysis import format_table, time_averaged_relative_error
from repro.api import RunSpec, SourceSpec, Sweep, TrackerSpec, TransportSpec

EPSILON = 0.1
NUM_SITES = 8
LENGTH = 20_000
SCALES = [0.0, 1.0, 4.0, 16.0, 64.0]

#: One biased walk (drift 0.5, seed 3) spread round robin over the sites,
#: tracked over uniform-jitter asynchronous links; the sweeps below vary
#: only the transport.
BASE = RunSpec(
    source=SourceSpec(stream="biased_walk", length=LENGTH, seed=3, sites=NUM_SITES),
    tracker=TrackerSpec(name="deterministic", epsilon=EPSILON),
    transport=TransportSpec(mode="async", latency="uniform", seed=0),
    record_every=25,
)


def main() -> None:
    v = variability(BASE.source.build_stream().deltas)

    print("Latency sweep: deterministic tracker over the asynchronous transport")
    print(f"  stream           : biased walk, n={LENGTH}, v(n)={v:.1f}")
    print(f"  sites k          : {NUM_SITES}, epsilon: {EPSILON}")
    print(f"  latency model    : uniform jitter on [scale/2, 3*scale/2], seed 0")
    print(f"  scale 0          : zero latency == the paper's synchronous model")
    print()

    results = [point.result for point in Sweep(BASE, {"transport.scale": SCALES}).run()]
    rows = [
        [
            scale,
            result.total_messages,
            round(time_averaged_relative_error(result.records), 4),
            round(result.violation_fraction(EPSILON), 3),
            round(result.staleness.mean_age, 2),
            round(result.staleness.p95_age, 2),
            result.staleness.inflight_highwater,
        ]
        for scale, result in zip(SCALES, results)
    ]
    print(
        format_table(
            [
                "latency scale",
                "messages",
                "time-avg err",
                "violation frac",
                "mean age",
                "p95 age",
                "in-flight hwm",
            ],
            rows,
        )
    )

    baseline, worst = results[0], results[-1]
    print()
    print(
        f"  scale {SCALES[-1]:.0f} vs synchronous: "
        f"{worst.total_messages / max(baseline.total_messages, 1):.2f}x messages, "
        f"time-avg error {time_averaged_relative_error(baseline.records):.4f} -> "
        f"{time_averaged_relative_error(worst.records):.4f}"
    )

    fifo, reordered = (
        point.result
        for point in Sweep(
            BASE.with_overrides({"transport.scale": 8.0}),
            {"transport.preserve_order": [True, False]},
        ).run()
    )
    print()
    print("FIFO links versus adversarial reordering at scale 8:")
    print(
        format_table(
            ["ordering", "messages", "time-avg err", "violation frac", "reordered"],
            [
                [
                    label,
                    result.total_messages,
                    round(time_averaged_relative_error(result.records), 4),
                    round(result.violation_fraction(EPSILON), 3),
                    result.staleness.reordered,
                ]
                for label, result in (("per-link fifo", fifo), ("reordering", reordered))
            ],
        )
    )


if __name__ == "__main__":
    main()
