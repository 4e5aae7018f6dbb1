"""The one registry of the reproduction's claims, and EXPERIMENTS.md.

Each claim is one row: a stable id (fabric included), its source (a paper
figure or the RMA follow-up paper), the configurations it ranges over, its
text and a check.  Paper rows range over the 12 two-sided
:data:`~repro.malleability.config.PAPER_CONFIGS`: the figures they read are
rebuilt with the spec's ``config_keys`` cut to that set, so the RMA series
the figures also plot never decide a paper claim.  :func:`evaluate_claims`
checks every row whose configurations the sweep covers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Optional

import numpy as np

from ..analysis.metrics import median
from ..malleability.config import ALL_CONFIGS, PAPER_CONFIGS, ReconfigConfig
from ..malleability.config import SpawnMethod
from ..redistribution.api import Strategy
from ..synthetic.presets import SCALES
from .experiments import EXPERIMENTS, pairs_for
from .report import build_figure
from .runner import ResultSet

__all__ = ["Claim", "CLAIMS", "evaluate_claims", "experiments_markdown",
           "headline_speedups"]

PAPER = tuple(c.key for c in PAPER_CONFIGS)
_SYNC_FIG = {"ethernet": "fig2", "infiniband": "fig3"}
_ALPHA_FIG = {"ethernet": "fig4", "infiniband": "fig5"}
_SPEEDUP_FIG = {"ethernet": "fig7", "infiniband": "fig8"}
_GRID = {"ethernet": "fig9", "infiniband": "fig9"}
_PAPER_PEAK = {"ethernet": 1.14, "infiniband": 1.21}
#: upper edge of the paper's median-alpha band (the lower is 0.7)
_ALPHA_BAND = {"ethernet": 1.6, "infiniband": 2.0}
_MERGE_ASYNC = ("Merge COLA", "Merge P2PA", "Merge COLT", "Merge P2PT")


@dataclass(frozen=True)
class Claim:
    """One registry row; :func:`evaluate_claims` fills ``measured``/``holds``."""

    id: str
    source: str
    paper: str
    configs: tuple[str, ...]
    measured: str = ""
    holds: bool = False

    @property
    def verdict(self) -> str:
        return "PASS" if self.holds else "DEVIATION"


class _View:
    """The figures of one sweep, cut to one claim's configurations."""

    def __init__(self, rs: ResultSet, scale: str, configs, cache: dict):
        self.rs, self.scale, self.configs, self._cache = rs, scale, configs, cache

    def figure(self, exp_id: str, fabric: str, direction: str):
        key = (exp_id, fabric, direction, self.configs)
        if key not in self._cache:
            spec = EXPERIMENTS[exp_id]
            spec = replace(spec, config_keys=tuple(
                k for k in spec.config_keys if k in self.configs))
            self._cache[key] = build_figure(spec, self.rs, self.scale, fabric,
                                            direction)
        return self._cache[key]

    def series(self, exp_id: str, fabric: str) -> dict[str, list[float]]:
        """Both slices (shrink, then expand), reference-time series dropped."""
        out: dict[str, list[float]] = {}
        for direction in ("shrink", "expand"):
            for name, vals in self.figure(exp_id, fabric, direction).series.items():
                if not name.endswith("(s)"):
                    out.setdefault(name, []).extend(vals)
        return out

    def winners(self, exp_id: str, fabric: str) -> list[ReconfigConfig]:
        grid = self.figure(exp_id, fabric, "grid").preferred
        return [ReconfigConfig.parse(v) for v in grid.values()]

    def peak(self, fabric: str, directions=("shrink", "expand")):
        """(legend, value) of the largest app-time speedup."""
        best, value = "", 0.0
        for direction in directions:
            fig = self.figure("fig7", fabric, direction)
            for name, vals in fig.series.items():
                if not name.endswith("(s)") and max(vals) > value:
                    best, value = name, max(vals)
        return best, value


_REGISTRY: list = []  # (Claim, check(view) -> (measured, holds))


def _claim(claim_id: str, paper: str, figs: dict, source: str = "",
           configs: tuple[str, ...] = PAPER):
    """Register ``check(view, fabric, fig) -> (measured, holds)`` as one row
    per ``fabric: fig`` of ``figs``; ``{fig}``, ``{fabric}`` and ``{peak}``
    fill in the id and the text."""

    def register(check):
        for fabric, fig in figs.items():
            fill = dict(fig=fig, fabric=fabric, peak=_PAPER_PEAK.get(fabric))
            claim = Claim(claim_id.format(**fill),
                          source or EXPERIMENTS[fig].paper_ref,
                          paper.format(**fill), configs)
            _REGISTRY.append((claim, partial(check, fabric=fabric, fig=fig)))
        return check

    return register


def _flat(series: dict) -> list[float]:
    return [v for vals in series.values() for v in vals]


def _dominates(winners, label, wins):
    """A grid is dominated when ``wins`` holds in >= 70 % of its cells."""
    n = sum(map(wins, winners))
    return f"{label} wins {n}/{len(winners)} cells", n >= 0.7 * len(winners)


# ------------------------------------------------------------- Figures 2/3

@_claim("{fig}.merge-beats-baseline.{fabric}",
        "Merge reconfigurations outperform Baseline ({fabric})", _SYNC_FIG)
def _merge_beats_baseline(view, fabric, fig):
    s = view.series(fig, fabric)
    merge = np.mean(s["Merge COLS"] + s["Merge P2PS"])
    base = np.mean(s["Baseline COLS"] + s["Baseline P2PS"])
    return (f"mean sync reconfig: Merge {merge:.3f}s vs Baseline {base:.3f}s",
            merge < base)


@_claim("{fig}.baseline-cols-slowest.{fabric}",
        "Baseline COLS is the slowest synchronous method ({fabric})", _SYNC_FIG)
def _baseline_cols_slowest(view, fabric, fig):
    s = view.series(fig, fabric)
    worst = max(s, key=lambda k: float(np.mean(s[k])))
    return f"slowest on aggregate: {worst}", worst == "Baseline COLS"


@_claim("{fig}.merge-within-5pct-per-point.{fabric}",
        "Merge never loses to Baseline by more than noise at any point "
        "(Merge COLS/P2PS < 1.05x Baseline; {fabric})", _SYNC_FIG)
def _merge_within_noise(view, fabric, fig):
    s, pairs = view.series(fig, fabric), pairs_for(EXPERIMENTS[fig], view.scale)
    ratio, (ns, nt), m = max(
        (s[f"Merge {m}"][i] / s[f"Baseline {m}"][i], pair, m)
        for m in ("COLS", "P2PS") for i, pair in enumerate(pairs)
    )
    return f"worst Merge/Baseline {m} {ratio:.3f}x at {ns}->{nt}", ratio < 1.05


@_claim("fig2.merge-advantage-grows-with-nt.ethernet",
        "Merge advantage grows with target count when shrinking (ethernet)",
        {"ethernet": "fig2"})
def _merge_advantage_grows(view, fabric, fig):
    panel = view.figure(fig, fabric, "shrink")
    s, x = panel.series, panel.x_values
    gap = (np.add(s["Baseline COLS"], s["Baseline P2PS"])
           - np.add(s["Merge COLS"], s["Merge P2PS"])) / 2
    return (f"Baseline-Merge gap {gap[0]:.3f}s at NT={x[0]} vs "
            f"{gap[-1]:.3f}s at NT={x[-1]}", gap[-1] > gap[0])


@_claim("fig3.merge-variants-close.infiniband",
        "both Merge variants close together: COLS and P2PS differ less than "
        "Merge and Baseline do (infiniband)", {"infiniband": "fig3"})
def _merge_variants_close(view, fabric, fig):
    s = view.series(fig, fabric)
    col, p2p = np.mean(s["Merge COLS"]), np.mean(s["Merge P2PS"])
    gap = np.mean(s["Baseline COLS"] + s["Baseline P2PS"]) - (col + p2p) / 2
    return (f"Merge COLS {col:.3f}s vs P2PS {p2p:.3f}s; Baseline-Merge gap "
            f"{gap:.3f}s", abs(col - p2p) < abs(gap))


@_claim("fig3.infiniband-faster-than-ethernet",
        "Infiniband reconfigures faster than Ethernet across the board",
        {None: "fig3"})
def _infiniband_faster(view, fabric, fig):
    eth, ib = (np.mean(_flat(view.series(g, f))) for f, g in _SYNC_FIG.items())
    return f"mean sync reconfig: IB {ib:.3f}s vs Eth {eth:.3f}s", ib < eth


# ------------------------------------------------------------- Figures 4/5

def _alphas(view, fabric):
    return _flat(view.series(_ALPHA_FIG[fabric], fabric))


@_claim("{fig}.alpha-at-or-above-1.{fabric}",
        "alpha clusters at/above 1: overlap slows the reconfiguration itself "
        "({fabric})", _ALPHA_FIG)
def _alpha_above_one(view, fabric, fig):
    vals = _alphas(view, fabric)
    return (f"mean alpha {np.mean(vals):.3f}, "
            f"range [{min(vals):.2f}, {max(vals):.2f}]", np.mean(vals) > 1.0)


@_claim("{fig}.median-alpha-in-band.{fabric}",
        "the bulk of alpha sits in the paper's band: 0.7 < median alpha < 1.6 "
        "on Ethernet, < 2.0 on Infiniband ({fabric})", _ALPHA_FIG)
def _alpha_band(view, fabric, fig):
    med = float(np.median(_alphas(view, fabric)))
    return f"median alpha {med:.3f}", 0.7 < med < _ALPHA_BAND[fabric]


@_claim("fig4.threads-pay-more-alpha.ethernet",
        "thread strategies (T) pay more alpha than non-blocking (A) on Ethernet",
        {"ethernet": "fig4"})
def _threads_pay_more(view, fabric, fig):
    s = view.series(fig, fabric)
    a = np.mean([v for k, vals in s.items() if k.endswith("A") for v in vals])
    t = np.mean([v for k, vals in s.items() if k.endswith("T") for v in vals])
    return f"mean alpha: T {t:.3f} vs A {a:.3f}", t > a


@_claim("fig4.baseline-cola-below-1.ethernet",
        "Baseline COLA can fall below 1 (pairwise-exchange sync baseline; "
        "ethernet)", {"ethernet": "fig4"})
def _baseline_cola_below_one(view, fabric, fig):
    low = min(view.series(fig, fabric)["Baseline COLA"])
    return f"min Baseline COLA alpha {low:.3f}", low < 1.0


@_claim("fig4-5.alpha-below-1-somewhere",
        "some alpha values fall below 1 (slow blocking Alltoallv baselines)",
        {None: "fig4"}, source="Figures 4/5")
def _alpha_below_one(view, fabric, fig):
    low = min(min(_alphas(view, f)) for f in _ALPHA_FIG)
    return f"min alpha observed: {low:.3f}", low < 1.0


@_claim("fig5.alpha-higher-than-ethernet",
        "alpha generally higher than on Ethernet (faster network has less "
        "slack for overlap)", {None: "fig5"})
def _alpha_higher_on_ib(view, fabric, fig):
    eth, ib = (np.mean(_alphas(view, f)) for f in _ALPHA_FIG)
    return f"mean alpha: IB {ib:.3f} vs Eth {eth:.3f}", ib > eth


# --------------------------------------------------------------- Figure 6

@_claim("fig6.merge-sync-dominates.{fabric}",
        "synchronous Merge dominates the reconfiguration-time grid ({fabric}); "
        "paper: Merge COLS everywhere", {"ethernet": "fig6", "infiniband": "fig6"})
def _merge_sync_dominates(view, fabric, fig):
    return _dominates(view.winners(fig, fabric), "Merge-sync", lambda w: (
        w.spawn is SpawnMethod.MERGE and w.strategy is Strategy.SYNC))


# ------------------------------------------------------------- Figures 7/8

@_claim("{fig}.peak-speedup-is-async.{fabric}",
        "asynchronous configurations speed the application up vs Baseline COLS "
        "({fabric}; paper peak {peak}x)", _SPEEDUP_FIG)
def _peak_is_async(view, fabric, fig):
    name, value = view.peak(fabric)
    return (f"peak speedup {value:.2f}x by {name}",
            value > 1.0 and name.endswith(("A", "T")))


@_claim("{fig}.expansion-peak-is-merge-async.{fabric}",
        "the expansion-side peak belongs to an asynchronous Merge configuration "
        "({fabric}; the paper's champions)", _SPEEDUP_FIG)
def _expansion_peak(view, fabric, fig):
    # The like-for-like check is the *expansion* slice: its shrink peaks
    # ride the extra-iterations-on-the-big-group effect of the paper's §4.5.
    name, value = view.peak(fabric, ("expand",))
    return (f"expansion peak {value:.2f}x by {name}",
            name.startswith("Merge") and name.endswith(("A", "T")))


@_claim("{fig}.headline-in-range.{fabric}",
        "the peak speedup is in the paper's neighbourhood: 1.05x < peak < 4.0x "
        "({fabric}; paper {peak}x)", _SPEEDUP_FIG)
def _headline_in_range(view, fabric, fig):
    name, value = view.peak(fabric)
    return f"peak speedup {value:.2f}x by {name}", 1.05 < value < 4.0


def _lowest_median_speedup(view, fabric, fig, names):
    s = view.series(fig, fabric)
    low, name = min((float(np.median(s[n])), n) for n in names)
    return f"lowest median speedup {low:.3f}x ({name})", low > 1.0


_claim("{fig}.merge-async-median-speedup.{fabric}",
       "every asynchronous Merge configuration speeds the application up "
       "(median speedup > 1; {fabric})", _SPEEDUP_FIG,
       )(partial(_lowest_median_speedup, names=_MERGE_ASYNC))
_claim("fig7.merge-and-baseline-p2ps-beat-cols.ethernet",
       "Merge configurations and Baseline P2PS beat Baseline COLS "
       "(median speedup > 1; ethernet)", {"ethernet": "fig7"},
       )(partial(_lowest_median_speedup, names=(
           "Merge COLS", "Merge P2PS", *_MERGE_ASYNC, "Baseline P2PS")))


@_claim("{fig}.async-not-slower-than-sync.{fabric}",
        "asynchronous strategies keep up with their synchronous counterpart in "
        "application time (median speedup > 0.95x sync's; {fabric})",
        _SPEEDUP_FIG)
def _async_keeps_up(view, fabric, fig):
    s = view.series(fig, fabric)
    # Baseline COLS is the reference, so its own speedup is 1.
    sync = {n: float(np.median(s.get(f"{n}S", [1.0])))
            for n in ("Merge COL", "Merge P2P", "Baseline COL", "Baseline P2P")}
    ratio, name = min((float(np.median(s[f"{n}{st}"])) / sync[n], f"{n}{st}")
                      for n in sync for st in "AT")
    return f"worst async/sync median speedup {ratio:.3f} ({name})", ratio > 0.95


# --------------------------------------------------------------- Figure 9

@_claim("fig9.async-dominates.{fabric}",
        "asynchronous configurations dominate the application-time grid "
        "({fabric})", _GRID)
def _async_dominates(view, fabric, fig):
    return _dominates(view.winners(fig, fabric), "async",
                      lambda w: w.strategy is not Strategy.SYNC)


@_claim("fig9.merge-async-beats-baseline-async.{fabric}",
        "Merge-async holds more app-time cells than Baseline-async ({fabric}; "
        "paper: 29/42 resp. 36/42 for Merge)", _GRID)
def _merge_async_cells(view, fabric, fig):
    winners = view.winners(fig, fabric)
    spawns = [w.spawn for w in winners if w.strategy is not Strategy.SYNC]
    merge, base = spawns.count(SpawnMethod.MERGE), spawns.count(SpawnMethod.BASELINE)
    return (f"Merge-async {merge} vs Baseline-async {base} of "
            f"{len(winners)} cells", merge >= base)


@_claim("fig9.merge-holds-half",
        "Merge holds at least half of all application-time cells (both "
        "fabrics)", {None: "fig9"})
def _merge_holds_half(view, fabric, fig):
    winners = [w for f in _GRID for w in view.winners(fig, f)]
    n = sum(w.spawn is SpawnMethod.MERGE for w in winners)
    return f"Merge wins {n}/{len(winners)} cells", n >= len(winners) / 2


@_claim("fig9.winners-lean-on-a.infiniband",
        "Infiniband's app-time winners lean on non-blocking (A) over threads (T)",
        {"infiniband": "fig9"})
@_claim("fig9.winners-lean-on-t.ethernet",
        "Ethernet's app-time winners lean on threads (T) over non-blocking (A)",
        {"ethernet": "fig9"})
def _winners_lean(view, fabric, fig):
    winners = view.winners(fig, fabric)
    t = sum(w.strategy is Strategy.ASYNC_THREAD for w in winners)
    a = sum(w.strategy is Strategy.ASYNC_NONBLOCKING for w in winners)
    return (f"T wins {t} vs A {a} of {len(winners)} cells",
            t > a if fabric == "ethernet" else a > t)


# ------------------------------------------------------ RMA follow-up paper

@_claim("rma.beats-baseline-cols.ethernet",
        "an RMA configuration reconfigures faster than Baseline COLS somewhere "
        "on Ethernet (synchronous; Baseline or Merge layout)",
        {"ethernet": None}, source="RMA follow-up",
        configs=tuple(c.key for c in ALL_CONFIGS))
def _rma_beats_cols(view, fabric, fig):
    def time(key, ns, nt):
        return median(view.rs.times("reconfig_time", ns, nt, key, fabric))

    ratios = [(time("baseline-col-s", ns, nt) / time(key, ns, nt), key, ns, nt)
              for ns, nt in view.rs.pairs()
              for key in ("baseline-rma-s", "merge-rma-s")]
    best, key, ns, nt = max(ratios)
    same = max(r for r, k, *_ in ratios if k == "baseline-rma-s")
    return (f"best Baseline COLS/RMA reconfig time {best:.2f}x by "
            f"{ReconfigConfig.parse(key).name} at {ns}->{nt} (same layout "
            f"{same:.2f}x)", best > 1.0)


#: every registered claim, in record order (``measured``/``holds`` unset).
CLAIMS: tuple[Claim, ...] = tuple(claim for claim, _ in _REGISTRY)


def _covered(rs: ResultSet, configs) -> bool:
    return set(configs) <= set(rs.config_keys())


def evaluate_claims(rs: ResultSet, scale: str) -> list[Claim]:
    """Check every registered claim whose configurations the sweep covers."""
    cache: dict = {}
    out = []
    for claim, check in _REGISTRY:
        if _covered(rs, claim.configs):
            measured, holds = check(_View(rs, scale, claim.configs, cache))
            out.append(replace(claim, measured=measured, holds=bool(holds)))
    return out


def headline_speedups(rs: ResultSet, scale: str) -> dict[str, tuple[str, float]]:
    """The abstract's numbers: best app-time speedup vs Baseline COLS per
    fabric over the paper's configurations — the paper reports 1.14x
    (Ethernet) and 1.21x (Infiniband)."""
    view = _View(rs, scale, PAPER, {})
    return {fabric: view.peak(fabric) for fabric in rs.fabrics()}


def experiments_markdown(
    rs: ResultSet,
    scale: str,
    extra_sections: Optional[str] = None,
) -> str:
    """The full EXPERIMENTS.md body."""
    preset = SCALES[scale]
    claims = evaluate_claims(rs, scale)
    skipped = [c.id for c in CLAIMS if not _covered(rs, c.configs)]
    n_pass = sum(c.holds for c in claims)

    lines = [
        "# EXPERIMENTS — paper vs reproduction",
        "",
        "Every figure of *Efficient data redistribution for malleable "
        "applications* (SC-W 2023), regenerated on the simulated substrate "
        "and checked against the paper's claims.",
        "",
        f"* sweep scale: **{scale}** — {preset.n_nodes} nodes x "
        f"{preset.cores_per_node} cores, ladder {list(preset.ladder)}, "
        f"{preset.iterations} iterations (reconfiguration at "
        f"{preset.reconfigure_at}), CG-emulation workload",
        f"* results: {len(rs)} simulated jobs "
        f"({len(rs.pairs())} (NS,NT) pairs x {len(rs.config_keys())} "
        f"configurations x {len(rs.fabrics())} fabrics)",
        "* absolute seconds are not comparable to the authors' testbed; "
        "the verdicts below check the *shape* of each result (orderings, "
        "ranges, dominance), per DESIGN.md.",
        "",
        f"**Claims reproduced: {n_pass}/{len(claims)}**",
        "",
        "| id | source | paper claim | measured | verdict |",
        "|---|---|---|---|---|",
    ]
    lines += [f"| `{c.id}` | {c.source} | {c.paper} | {c.measured} | {c.verdict} |"
              for c in claims]
    if skipped:
        lines += ["", "Not covered by this sweep's configurations: "
                  + ", ".join(f"`{i}`" for i in skipped) + "."]
    if _covered(rs, PAPER):
        lines += ["", "## Headline numbers", "",
                  "| metric | paper | reproduction |", "|---|---|---|"]
        champion = {"ethernet": "Merge P2PT", "infiniband": "Merge P2PA"}
        for fabric, (name, value) in headline_speedups(rs, scale).items():
            lines.append(f"| best app speedup vs Baseline COLS, {fabric.capitalize()} "
                         f"| {_PAPER_PEAK[fabric]}x ({champion[fabric]}) "
                         f"| {value:.2f}x ({name}) |")
    lines += [
        "",
        "Regenerate everything: `repro-harness run --scale "
        f"{scale} --figures all --out sweep.csv` then `repro-harness report "
        "--results sweep.csv --scale " + scale + " --headline`.",
    ]
    if extra_sections:
        lines += ["", extra_sections]
    return "\n".join(lines) + "\n"
