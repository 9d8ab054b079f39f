"""Benchmark sweep: reproduce the paper's evaluation tables from the command line.

Run with::

    python examples/benchmark_sweep.py [quick|paper] [low|medium|high] [--jobs N]

Synthesises the ISCAS85-, EPFL- and ISCAS89-class benchmark circuits with
the xSFQ flow and the clocked-RSFQ baselines through the parallel
experiment engine (:func:`repro.run_experiment`), then prints
Table-3/4/5/6 style reports plus the headline average JJ reduction.

With ``--jobs N`` the per-circuit synthesis jobs run on N supervised
worker processes, and completed jobs are memoised in the on-disk result cache
(``REPRO_CACHE_DIR``, default ``~/.cache/repro-xsfq``) — so re-running
the sweep, or following it with ``repro run table4 --effort low`` (the
cache key includes the effort, so it must match the sweep's), performs
zero re-synthesis.  The same sweep is available as ``repro run all``.

Expected output (quick scale; measured values vary from the paper's —
the shape is what matters)::

    Running the evaluation sweep (scale=quick, effort=low, jobs=4)

    [Table 3] Duplication penalty after polarity optimisation
    Circuit  Dupl. (measured)  Dupl. (paper)
    ...10 EPFL control circuits, all below 100%...

    [Table 4] Combinational circuits vs PBMap-like RSFQ baseline
    ...11 circuits, JJ savings between ~1.1x and ~9x...
    average savings: 3.0x / 3.9x  (paper: 4.5x / 5.9x)

    [Table 5] Pipelining the c6288-class multiplier
    ...JJ grows, depth shrinks, clock frequency rises with stages...

    [Table 6] Sequential circuits vs qSeq-like RSFQ baseline
    ...16 ISCAS89-class circuits, xSFQ always wins...

    [Headline] Abstract claim: >80% average JJ reduction
    ...measured average reduction next to the paper's numbers...
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scale", nargs="?", default="quick", choices=("quick", "paper"))
    parser.add_argument("effort", nargs="?", default="low",
                        choices=("none", "low", "medium", "high"))
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="synthesis worker processes (default: 1)")
    args = parser.parse_args()
    scale, effort, jobs = args.scale, args.effort, args.jobs
    print(f"Running the evaluation sweep (scale={scale}, effort={effort}, jobs={jobs})\n")

    def run(name):
        return repro.run_experiment(name, scale=scale, effort=effort, jobs=jobs)

    table3 = run("table3").result
    print("[Table 3] Duplication penalty after polarity optimisation")
    print(table3.text + "\n")

    table4 = run("table4").result
    print("[Table 4] Combinational circuits vs PBMap-like RSFQ baseline")
    print(table4.text)
    print(
        f"average savings: {table4.summary['mean_savings']:.1f}x / "
        f"{table4.summary['mean_savings_with_clock']:.1f}x  "
        f"(paper: {table4.summary['paper_mean_savings']}x / {table4.summary['paper_mean_savings_with_clock']}x)\n"
    )

    table5 = run("table5").result
    print("[Table 5] Pipelining the c6288-class multiplier")
    print(table5.text + "\n")

    table6 = run("table6").result
    print("[Table 6] Sequential circuits vs qSeq-like RSFQ baseline")
    print(table6.text)
    print(f"average savings: {table6.summary['mean_savings']:.1f}x  "
          f"(paper: {table6.summary['paper_mean_savings']}x)\n")

    headline = run("headline").result
    print("[Headline] Abstract claim: >80% average JJ reduction")
    print(headline.text)


if __name__ == "__main__":
    main()
