"""Generate EXPERIMENTS.md from the committed small-scale sweep.

Usage:  python results/make_experiments_md.py
Equivalent to `repro-harness experiments-md --results results/small_sweep.csv
--scale small --out EXPERIMENTS.md` plus the extension-experiment section.
"""

from pathlib import Path

from repro.harness import ResultSet, experiments_markdown

EXTRA = """\
## Extension experiments (beyond the paper's figures)

These cover the paper's §2 motivation and §5 future work; re-run them with
`PYTHONPATH=src python -m pytest benchmarks/test_*.py -q` (tiny scale):

| experiment | claim | where |
|---|---|---|
| C/R vs in-memory | disk checkpoint/restart loses clearly to in-memory redistribution on identical machines/data (the paper's §2 motivation, measured) | `benchmarks/test_ablation_cr_vs_inmemory.py` |
| RMA redistribution | one-sided puts (no size exchange, no target progress requirement) are competitive with Algorithm 1 | `benchmarks/test_ablation_extensions.py` |
| movement-minimising plans | letting persisting Merge ranks keep their rows moves fewer bytes and never slows the reconfiguration | `benchmarks/test_ablation_extensions.py` |
| makespan study | malleability cuts workload makespan and raises utilisation under a simulated RMS, paying full reconfiguration costs | `benchmarks/test_ablation_makespan.py`, `examples/makespan_study.py` |

## Known deviations

See DESIGN.md §8. In brief:

* absolute seconds are uncalibrated by design (simulated substrate);
* the *overall* peak speedups land on extreme shrink cells (e.g. 32 -> 2)
  and exceed the paper's 1.14x/1.21x: with a 16x group-size ratio, every
  iteration overlapped on the big group saves 16 small-group iterations —
  the effect the paper itself describes in par. 4.5 ("when shrinking, it is
  preferable to perform as many iterations as possible before
  reconfiguring"), amplified here because the reduced scale makes the
  reconfiguration long relative to the run.  The like-for-like expansion
  peaks (checked above) belong to the paper's Merge-async champions;
* preferred-method grids keep the paper's family structure (sync-Merge wins
  reconfiguration time, async-Merge holds the application-time plurality,
  Baseline-async takes extreme-shrink cells) but individual cells may pick
  the P2P flavour where the paper shows COL — the paper itself calls the
  two statistically tied for Merge;
* the Ethernet-threads vs Infiniband-non-blocking nuance of Figure 9
  weakens at reduced scale: Infiniband's winners do lean on A, but
  Ethernet's lean on A too (`fig9.winners-lean-on-t.ethernet`), though the
  alpha ordering alpha(T) > alpha(A) on Ethernet does reproduce;
* Merge wins every synchronous comparison in aggregate, but not at every
  point: expanding 8 -> 32 on Ethernet, Merge COLS takes 1.089x Baseline
  COLS (`fig2.merge-within-5pct-per-point.ethernet`).

## Paper-scale feasibility

The full `paper` scale (8x20 cores, ladder 2..160, 1000 iterations) runs
~2 minutes per 160-rank job on one CPU core (measured:
`merge-col-s 160->120` on Infiniband, reconfig 0.288 s, app 54.40 s
simulated, 131 s wall, one `run_one` on a shared 2-core Intel Xeon host
under Python 3.11; smaller cells take seconds). The figures' slices alone
(12 pairs x 12 configs x 2 fabrics) are several core-hours per repetition,
and the complete 42-pair x 5-rep sweep is an embarrassingly parallel batch
of tens of core-hours. The committed record therefore uses the `small`
scale, which preserves every mechanism (oversubscription, spawn-cost gap,
protocol stalls, serialized collectives) at 1/8 data scale.
"""

if __name__ == "__main__":
    rs = ResultSet.from_csv(Path("results/small_sweep.csv"))
    text = experiments_markdown(rs, "small", extra_sections=EXTRA)
    Path("EXPERIMENTS.md").write_text(text)
    print(f"wrote EXPERIMENTS.md from {len(rs)} results")
