"""The experiment index E1-E18: one function per experiment, one harness.

E15 and E17 are retired and their numbers stay unused.

Each ``eN_*`` function takes its grid as plain arguments, runs seeded
simulations and returns a :class:`Section`: the paper's claim, the
deterministic rows that bear on it, and named boolean *checks* (fitted
exponent bounds, ratios, agreement, key invariance) stated beside the
rows that show them.  :func:`run_experiments` calls all sixteen at
EXPERIMENTS.md size; ``tests/analysis/test_experiments.py`` calls the
same functions at CI size inside the tier-1 suite and asserts every
check; ``python -m repro.analysis.experiments`` renders
:func:`run_experiments` to EXPERIMENTS.md and exits non-zero on a failed
check.  ``repro sweep`` / ``drill`` / ``compare`` are E6 / E8 / E7 on the
user's grid.

Every column is a deterministic function of the code, so CI regenerates
the file and diffs it.  Wall clock is not one: it has one owner,
``python3 -m perf.run`` (``BENCHMARK.json``, ``perf/README.md``).  A row
from the TCP transport carries only what does not depend on socket
timing.
"""

from __future__ import annotations

import dataclasses
import random
import statistics
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from repro import run_adkg
from repro.analysis.complexity import PowerLawFit, fit_power_law
from repro.analysis.stats import wilson_interval
from repro.analysis.tables import render_table
from repro.baselines.kms_adkg import ACSBasedADKG
from repro.broadcast.validated import make_broadcast
from repro.core.adkg import ADKG, ADKGShare
from repro.core.gather import Gather
from repro.core.nwh import NWH
from repro.core.proposal_election import ProposalElection
from repro.crypto import threshold_vrf as tvrf
from repro.crypto.keys import TrustedSetup
from repro.net import codec
from repro.net.adversary import (
    CrashBehavior,
    DropBehavior,
    MutateBehavior,
    RandomLagScheduler,
    Scheduler,
    SilentBehavior,
)
from repro.net.chaos import ChaosSpec, DelayWindow
from repro.net.delays import FixedDelay
from repro.net.metrics import counter_delta
from repro.net.protocol import Protocol
from repro.net.runtime import Simulation
from repro.service import run_beacon, run_churn
from repro.storage.recovery import run_crash_recovery

#: Theorems 7-10 say Õ(n³): a fitted exponent around 3, the log factor
#: pushing it above, clearly under the baseline's 4.
CUBIC = (2.5, 3.9)


@dataclass(frozen=True)
class Section:
    """One experiment's outcome: what the paper says, what was measured."""

    id: str
    title: str
    claim: str
    columns: tuple[str, ...]
    rows: list[dict]
    #: Derived numbers (fits, ratios) in prose, printed under the table.
    findings: tuple[str, ...]
    #: ``statement -> held``; a false one fails the test and the entry point.
    checks: dict[str, bool]

    def render(self) -> str:
        parts = [f"## {self.id} — {self.title}", self.claim]
        if self.rows:
            parts.append(render_table(self.rows, columns=self.columns))
        parts.extend(self.findings)
        if self.checks:
            parts.append(
                "\n".join(
                    f"- [{'x' if held else ' '}] {statement}"
                    for statement, held in self.checks.items()
                )
            )
        return "\n\n".join(parts)


def failed_checks(sections: Sequence[Section]) -> list[str]:
    return [
        f"{section.id}: {statement}"
        for section in sections
        for statement, held in section.checks.items()
        if not held
    ]


# -- shared measurement helpers --------------------------------------------------------


class _BroadcastRoot(Protocol):
    """Root protocol hosting a single broadcast instance."""

    def __init__(self, kind: str, dealer: int, value: Any) -> None:
        super().__init__()
        self.kind = kind
        self.dealer = dealer
        self.value = value

    def on_start(self):
        mine = self.value if self.me == self.dealer else None
        self.spawn("rbc", make_broadcast(self.kind, self.dealer, value=mine))

    def on_sub_output(self, name, value):
        self.output(value)


def _simulate(
    n: int,
    factory: Callable,
    seed: int,
    behaviors=None,
    scheduler: Optional[Scheduler] = None,
    to_quiescence: bool = True,
    chaos: Optional[ChaosSpec] = None,
) -> Simulation:
    sim = Simulation(
        TrustedSetup.generate(n, seed=seed),
        seed=seed,
        behaviors=behaviors,
        scheduler=scheduler,
        delay_model=FixedDelay(1.0),
        chaos=chaos,
    )
    sim.start(factory)
    sim.run(stop=None if to_quiescence else Simulation.all_honest_output)
    return sim


def _lag_links(n: int, targets: set, factor: float, horizon: float) -> ChaosSpec:
    """×``factor`` on links touching ``targets`` for sends before ``horizon``:
    under unit delays, a hold of ``factor - 1`` on arrival before ``horizon + 1``."""
    pairs = {(s, r) for s in range(n) for r in range(n) if s in targets or r in targets}
    return ChaosSpec(delays=(DelayWindow(factor - 1, end=horizon + 1, pairs=pairs),))


def _totals(sim: Simulation, **labels) -> dict:
    return {
        **labels,
        "words": sim.metrics.words_total,
        "messages": sim.metrics.messages_total,
        "rounds": sim.completion_time(),
    }


def _broadcast_row(kind: str, n: int, m: int, **labels) -> dict:
    sim = _simulate(n, lambda p: _BroadcastRoot(kind, 0, (1,) * m), seed=1)
    return _totals(sim, **labels, kind=kind, n=n, m=m)


def _fit(rows: Sequence[dict], x: str, y: str) -> PowerLawFit:
    return fit_power_law([row[x] for row in rows], [row[y] for row in rows])


def _within(value: float, bounds: tuple[float, float]) -> bool:
    return bounds[0] < value < bounds[1]


def _spread(values: Sequence[float]) -> float:
    return max(values) / min(values)


def _increasing(values: Sequence[float]) -> bool:
    return all(a < b for a, b in zip(values, values[1:]))


def _agreed_and_valid(setup: TrustedSetup, outputs: list) -> tuple[bool, bool]:
    agreed = bool(outputs) and all(o == outputs[0] for o in outputs)
    return agreed, agreed and tvrf.DKGVerify(setup.directory, outputs[0])


def _adkg_rows(ns: Sequence[int], seeds: Sequence[int], kind: str) -> list[dict]:
    """Full A-DKG to quiescence, per n averaged over ``seeds`` (E6, E9)."""
    rows = []
    for n in ns:
        words, rounds, views, agreements = [], [], [], 0
        for seed in seeds:
            sim = _simulate(n, lambda p: ADKG(broadcast_kind=kind), seed=seed)
            words.append(sim.metrics.words_total)
            rounds.append(sim.completion_time())
            views.append(
                max(sim.parties[i].instance(("nwh",)).views_entered for i in sim.honest)
            )
            agreements += _agreed_and_valid(sim.setup, list(sim.honest_results().values()))[0]
        rows.append(
            {
                "kind": kind,
                "n": n,
                "runs": len(words),
                "mean_words": statistics.mean(words),
                "mean_rounds": statistics.mean(rounds),
                "mean_views": statistics.mean(views),
                "agreement_rate": agreements / len(words),
            }
        )
    return rows


# -- E1-E6: the paper's theorems -------------------------------------------------------


def e1_broadcast(
    n_fixed: int, ms: Sequence[int], ns: Sequence[int], m_small: int, m_big: int
) -> Section:
    by_m = [
        _broadcast_row(kind, n_fixed, m, series="words vs m")
        for m in ms
        for kind in ("ct", "bracha")
    ]
    by_n = [_broadcast_row("ct", n, m_small, series="words vs n") for n in ns]
    big = [
        _broadcast_row(kind, n, m_big, series="large message")
        for n in ns
        for kind in ("ct", "bracha")
    ]
    slopes_m = {
        kind: _fit([r for r in by_m if r["kind"] == kind], "m", "words").exponent
        for kind in ("ct", "bracha")
    }
    fit_n = _fit(by_n, "n", "words")
    ratios = [b["words"] / c["words"] for c, b in zip(big[::2], big[1::2])]
    ct_top, bracha_top = by_m[-2:]
    rounds = [row["rounds"] for row in by_n]
    return Section(
        "E1",
        "Reliable broadcast (Theorem 6)",
        "**Paper**: CT broadcast of an m-word message costs `O(n²·(c+p) + m·n)`\n"
        "words (`c` = 1-word commitment, `p` = log n-word Merkle proof); plain\n"
        "Bracha costs `O(n²·m)`.",
        ("series", "kind", "n", "m", "words", "messages", "rounds"),
        by_m + by_n + big,
        (
            f"Words vs m at n = {n_fixed}: exponent {slopes_m['ct']:.2f} (CT), "
            f"{slopes_m['bracha']:.2f} (Bracha).  Words vs n at m = {m_small} (CT): "
            f"**{fit_n.exponent:.2f}** (paper: ≈ 2 + log slack; R² = {fit_n.r_squared:.3f}).",
            f"Bracha/CT word ratio at m = {m_big}: "
            + ", ".join(f"n={n}: {ratio:.2f}×" for n, ratio in zip(ns, ratios))
            + ".",
        ),
        {
            "both broadcasts are linear in m (exponent in 0.5–1.3)": all(
                _within(slope, (0.5, 1.3)) for slope in slopes_m.values()
            ),
            f"Bracha costs more than 2× CT at m = {ms[-1]}": (
                2 * ct_top["words"] < bracha_top["words"]
            ),
            "CT words-vs-n exponent in 1.7–2.8 (n² log n)": _within(
                fit_n.exponent, (1.7, 2.8)
            ),
            "the CT advantage grows with n": ratios[-1] > ratios[0],
            "three message hops at every n": max(rounds) <= 4 and max(rounds) - min(rounds) <= 1,
        },
    )


def e2_gather(ns: Sequence[int], n_fixed: int, ms: Sequence[int]) -> Section:
    def row(n: int, m: int, series: str) -> dict:
        sim = _simulate(n, lambda p: Gather(my_value=(1,) * m + (p.index,)), seed=1)
        outputs = [set(sim.parties[i].result) for i in sim.honest]
        return _totals(
            sim, series=series, n=n, m=m, core_size=len(set.intersection(*outputs))
        )

    by_n = [row(n, 1, "words vs n") for n in ns]
    by_m = [row(n_fixed, m, "words vs m") for m in ms]
    fit = _fit(by_n, "n", "words")
    per_word = (by_m[-1]["words"] - by_m[0]["words"]) / (ms[-1] - ms[0])
    rounds = [r["rounds"] for r in by_n]
    return Section(
        "E2",
        "Verifiable Gather (Theorem 7)",
        "**Paper**: Gather costs `O(n·b(m))` = `Õ(n³ + m·n²)` words, in a constant\n"
        "number of rounds, with a common core of ≥ n-f parties.",
        ("series", "n", "m", "words", "messages", "rounds", "core_size"),
        by_n + by_m,
        (
            f"Fitted words-vs-n exponent: **{fit.exponent:.2f}** (paper: 3 + log slack; "
            f"R² = {fit.r_squared:.3f}).  Each extra input word costs {per_word:.0f} words "
            f"at n = {n_fixed} (n² = {n_fixed**2}).",
        ),
        {
            "words-vs-n exponent in 2.5–3.9": _within(fit.exponent, CUBIC),
            "R² > 0.98": fit.r_squared > 0.98,
            "linear in m, under 3n² words per input word": per_word < 3 * n_fixed**2,
            "rounds flat in n": max(rounds) - min(rounds) <= 2,
            "common core ≥ n-f everywhere": all(
                r["core_size"] >= r["n"] - (r["n"] - 1) // 3 for r in by_n + by_m
            ),
        },
    )


def e3_proposal_election(ns: Sequence[int]) -> Section:
    rows = []
    for n in ns:
        sim = _simulate(n, lambda p: ProposalElection(proposal=(1, p.index)), seed=1)
        metrics = sim.metrics
        rows.append(
            _totals(
                sim,
                n=n,
                gather_words=metrics.words_by_layer.get("gather", 0),
                dkg_words=metrics.words_by_type.get("PEDkgShare", 0),
                eval_words=metrics.words_by_type.get("PEEvalShare", 0),
                idx_words=metrics.words_by_layer.get("idx", 0),
            )
        )
    parts = ("gather_words", "dkg_words", "eval_words", "idx_words")
    fit = _fit(rows, "n", "words")
    dkg_fit = _fit(rows, "n", "dkg_words")
    rounds = [r["rounds"] for r in rows]
    return Section(
        "E3",
        "Proposal Election words (Theorem 8)",
        "**Paper**: PE costs `O(n³·es + n²·ds + g(m+d) + b(n))` = `Õ(n³)` words.",
        ("n", "words", *parts, "rounds"),
        rows,
        (
            f"Fitted total-words exponent: **{fit.exponent:.2f}**; the n² DKG share "
            f"transfers of O(n) words each fit {dkg_fit.exponent:.2f}.  The breakdown "
            "matches the theorem's terms: Gather dominates (`g(m+d)`), then the index "
            "broadcasts (`b(n)`), the n³ evaluation shares and the DKG shares.",
        ),
        {
            "total-words exponent in 2.5–3.9": _within(fit.exponent, CUBIC),
            "DKG-share exponent in 2.4–3.4": _within(dkg_fit.exponent, (2.4, 3.4)),
            "every term is present and the four cover 70–101 % of the total": all(
                min(r[p] for p in parts) > 0
                and 0.7 * r["words"] <= sum(r[p] for p in parts) <= 1.01 * r["words"]
                for r in rows
            ),
            "rounds flat in n": max(rounds) - min(rounds) <= 2,
        },
    )


#: The worst VRF-blind lag schedule ``scripts/search_binding.py`` found
#: per committee size, as ``(extra, path, recipient)`` windows: each holds
#: the instance ``path`` of a PE run on every link into ``recipient``.
#: E4's "searched lag" rows replay it on seeds the search never scored.
SEARCHED_LAG: dict[int, tuple] = {
    4: (
        (19.0, ("gather", ("vrb", 1)), 0),
        (4.0, ("gather", ("vrb", 1)), 3),
        (4.0, ("gather", ("rb3", 0)), 2),
    ),
    7: (
        (99.0, ("gather", ("vrb", 3)), 0),
        (99.0, ("gather", ("vrb", 2)), 6),
        (4.0, ("gather", ("vrb", 4)), 0),
    ),
}
#: The search that found them, and that ``scripts/search_binding.py --n``
#: reruns: (random schedules, hill-climb steps, seeds scored per schedule).
SEARCH_BUDGET = {4: (30, 90, 40), 7: (20, 40, 20)}
#: The first replayed seed; the search scores seeds from 0.
SEARCHED_LAG_SEED0 = 1000


def lag_schedule(n: int, schedule: tuple) -> ChaosSpec:
    """A :data:`SEARCHED_LAG`-shaped schedule as the chaos plane's windows."""
    return ChaosSpec(
        delays=tuple(
            DelayWindow(extra, path=path, pairs={(s, recipient) for s in range(n)})
            for extra, path, recipient in schedule
        )
    )


def pe_outcome(n: int, seed: int, silent: Sequence[int] = (), **options) -> tuple[bool, bool]:
    """``(terminated, bound)`` of one PE run: every honest party output,
    and all output one common honest input (Theorem 3's α event)."""
    sim = _simulate(
        n,
        lambda p: ProposalElection(proposal=("prop", p.index)),
        seed=seed,
        behaviors={i: SilentBehavior() for i in silent},
        **options,
    )
    outputs = [sim.parties[i].result[0] for i in sim.honest if sim.parties[i].has_result]
    bound = (
        bool(outputs)
        and len(set(outputs)) == 1
        and outputs[0] in {("prop", i) for i in sim.honest}
    )
    return len(outputs) == len(sim.honest), bound


def e4_pe_binding(
    benign_runs: int, silent_runs: int, lag_runs: int, n7_runs: int, searched_runs: dict
) -> Section:
    def lag(seed: int) -> dict:
        if seed % 2 == 0:
            return {"scheduler": RandomLagScheduler(factor=25.0, rate=0.4)}
        return {"chaos": _lag_links(4, {seed % 4}, 15.0, horizon=60.0)}

    settings = [
        ("benign", 4, range(benign_runs), (), None),
        ("f silent", 4, range(silent_runs), (3,), None),
        ("adversarial lag", 4, range(lag_runs), (), lag),
        ("2 silent", 7, range(n7_runs), (5, 6), None),
    ]
    settings += [
        (
            "searched lag", n, range(SEARCHED_LAG_SEED0, SEARCHED_LAG_SEED0 + runs), (),
            lambda seed, spec=lag_schedule(n, SEARCHED_LAG[n]): {"chaos": spec},
        )
        for n, runs in searched_runs.items()
    ]  # fmt: skip
    rows, findings = [], []
    for setting, n, seeds, silent, options in settings:
        terminated = bound = 0
        for seed in seeds:
            ended, binds = pe_outcome(n, seed, silent, **(options(seed) if options else {}))
            terminated += ended
            bound += binds
        runs = len(seeds)
        rows.append(
            {
                "setting": setting,
                "n": n,
                "runs": runs,
                "termination_rate": terminated / runs,
                "binding_rate": bound / runs,
            }
        )
        if setting == "searched lag":
            low, high = wilson_interval(bound, runs)
            f = (n - 1) // 3
            randoms, steps, scored = SEARCH_BUDGET[n]
            findings.append(
                f"Searched lag at n = {n}: α̂ = {bound / runs:.2f} (Wilson 95 % "
                f"{low:.2f}–{high:.2f}) on seeds {seeds[0]}–{seeds[-1]}; the search "
                f"scored {randoms + steps} schedules × {scored} seeds × n = {n}.  The "
                f"VRF-blind ceiling on splits is about f/n = {f}/{n}: α near "
                f"1 − f/n = {1 - f / n:.2f}."
            )
    if findings:
        findings.append(
            "A schedule that never sees an evaluation splits PE only when the "
            "largest one falls outside the common core of ≥ n − f tuples, so it "
            "cannot push α down to the paper's 1/3 (DESIGN §6)."
        )
    return Section(
        "E4",
        "PE α-binding quality (Theorem 3)",
        "**Paper**: with probability α ≥ 1/3 the election binds to a common\n"
        "honest input (and then nothing else verifies).  The paper's bound is\n"
        "against a worst-case adversary; measured rates sit far above it.",
        ("setting", "n", "runs", "termination_rate", "binding_rate"),
        rows,
        tuple(findings),
        {
            "every run terminates (Termination of Output)": all(
                r["termination_rate"] == 1.0 for r in rows
            ),
            "binding rate ≥ 1/3 in every setting": all(
                r["binding_rate"] >= 1 / 3 for r in rows
            ),
        },
    )


def _path_lags(n: int, seed: int) -> ChaosSpec:
    """1–6 drawn lags, each on one Gather broadcast of PE view 1 or 2 to
    one recipient: the adversary sees paths and endpoints, never a VRF."""
    rng = random.Random(f"e5-path-lags-{seed}")
    windows = []
    for _ in range(rng.randint(1, 6)):
        view = rng.choice((1, 2))
        stage = rng.choice(("vrb", "rb2", "rb3"))
        dealer, recipient = rng.randrange(n), rng.randrange(n)
        windows.append(
            DelayWindow(
                extra=rng.choice((4.0, 19.0, 99.0)),
                path=(("pe", view), "gather", (stage, dealer)),
                pairs={(sender, recipient) for sender in range(n)},
            )
        )
    return ChaosSpec(delays=tuple(windows))


def e5_nwh(
    view_runs: int, ns: Sequence[int], seeds: Sequence[int], lag_runs: int
) -> Section:
    def row(n: int, run_seeds: Sequence[int], lagged: bool = False) -> dict:
        views, words, rounds, agreed = [], [], [], []
        for seed in run_seeds:
            sim = _simulate(
                n,
                lambda p: NWH(my_value=(1, p.index)),
                seed=seed,
                chaos=_path_lags(n, seed) if lagged else None,
            )
            views.append(max(sim.parties[i].instance(()).views_entered for i in sim.honest))
            words.append(sim.metrics.words_total)
            rounds.append(sim.completion_time())
            outputs = list(sim.honest_results().values())
            agreed.append(len(outputs) == len(sim.honest) and len(set(outputs)) == 1)
        return {
            "n": n,
            "runs": len(views),
            "mean_views": statistics.mean(views),
            "max_views": max(views),
            "words_per_view": statistics.mean(w / v for w, v in zip(words, views)),
            "mean_rounds": statistics.mean(rounds),
            "left_view_1": sum(v > 1 for v in views),
            "agreed": all(agreed),
        }

    many = row(ns[0], range(view_runs))
    scale = [row(n, seeds) for n in ns]
    lagged = row(ns[0], range(lag_runs), lagged=True)
    rows = [many, *scale, lagged]
    fit = _fit(scale, "n", "words_per_view")
    return Section(
        "E5",
        "NWH views and per-view cost (Theorem 9)",
        "**Paper**: number of views is geometric with success ≥ α (expected ≤ 3),\n"
        "each view costs `O(s·n³ + m·n² + p(m))` words and O(1) rounds.",
        ("n", "runs", "mean_views", "max_views", "words_per_view", "mean_rounds"),
        rows,
        (
            f"Words-per-view exponent: **{fit.exponent:.2f}** (paper: ≈ 3); benign "
            "elections almost always bind in view 1.",
            f"The last row draws 1–6 path lags per run, each holding one Gather "
            f"broadcast of PE view 1 or 2 to one recipient for +4, +19 or +99 "
            f"rounds (`DelayWindow(path=...)`): {lagged['left_view_1']} of "
            f"{lag_runs} runs left view 1, up to view {lagged['max_views']}.",
        ),
        {
            "mean views ≤ 3 at every n, never more than 8": all(
                r["mean_views"] <= 3.0 and r["max_views"] <= 8 for r in rows
            ),
            "words-per-view exponent in 2.5–3.9": _within(fit.exponent, CUBIC),
            "rounds flat in n (max/min ≤ 1.5)": _spread([r["mean_rounds"] for r in scale]) <= 1.5,
            "every run agrees, path-lagged ones included": all(r["agreed"] for r in rows),
        },
    )


def e6_adkg(ns: Sequence[int], seeds: Sequence[int]) -> Section:
    rows = _adkg_rows(ns, seeds, "ct")
    findings: tuple[str, ...] = ()
    checks = {
        "rounds constant in n (max/min ≤ 1.5)": _spread([r["mean_rounds"] for r in rows]) <= 1.5,
        "every run agrees": all(r["agreement_rate"] == 1.0 for r in rows),
        "mean views ≤ 2": all(r["mean_views"] <= 2.0 for r in rows),
    }
    if len(rows) >= 3:
        fit = _fit(rows, "n", "mean_words")
        findings = (
            f"Fitted words exponent: **{fit.exponent:.2f}** (R² = {fit.r_squared:.3f}).",
        )
        checks = {
            "words exponent in 2.5–3.9": _within(fit.exponent, CUBIC),
            "R² > 0.98": fit.r_squared > 0.98,
            **checks,
        }
    return Section(
        "E6",
        "Full A-DKG (Theorem 10)",
        "**Paper**: expected `O(λ n³ log n)` words, O(1) expected rounds.",
        ("n", "runs", "mean_words", "mean_rounds", "mean_views", "agreement_rate"),
        rows,
        findings,
        checks,
    )


# -- E7-E10: comparison, faults, ablations ---------------------------------------------


def _crossover(rows: Sequence[dict]) -> str:
    """Where the baseline starts to cost more words than ours: the least
    measured n from which every measured ratio is above 1."""
    since = None
    for row in rows:
        since = (since or row["n"]) if row["word_ratio"] > 1.0 else None
    if since is None:
        return f"no crossover up to n = {rows[-1]['n']}"
    return f"the baseline costs more from n = {since}"


def e7_baseline(ns: Sequence[int], seed: int) -> Section:
    rows = []
    for n in ns:
        ours = _simulate(n, lambda p: ADKG(), seed=seed, to_quiescence=False)
        base = _simulate(n, lambda p: ACSBasedADKG(), seed=seed, to_quiescence=False)
        rows.append(
            {
                "n": n,
                "ours_words": ours.metrics.words_total,
                "baseline_words": base.metrics.words_total,
                "word_ratio": base.metrics.words_total / ours.metrics.words_total,
                "ours_rounds": ours.completion_time(),
                "baseline_rounds": base.completion_time(),
            }
        )
    ratios = [r["word_ratio"] for r in rows]
    findings = (f"In absolute words, {_crossover(rows)}.",)
    checks = {
        "the baseline/ours word ratio grows with n": _increasing(ratios),
        "our rounds constant in n (max/min ≤ 1.5)": _spread([r["ours_rounds"] for r in rows]) <= 1.5,
    }
    if len(rows) >= 3:
        ours_fit = _fit(rows, "n", "ours_words")
        base_fit = _fit(rows, "n", "baseline_words")
        findings = (
            f"Scaling exponents: ours **{ours_fit.exponent:.2f}** vs baseline "
            f"**{base_fit.exponent:.2f}**.  The paper's protocol pays bigger constants "
            "(n² PVSS deals per election) and wins only beyond small committees.",
            *findings,
        )
        checks["baseline exponent above 3.5, ours below, gap > 0.3"] = (
            base_fit.exponent > 3.5 > ours_fit.exponent
            and base_fit.exponent > ours_fit.exponent + 0.3
        )
    if ns[-1] >= 16:
        checks[f"the baseline costs more in absolute words by n = {ns[-1]}"] = ratios[-1] > 1.0
    return Section(
        "E7",
        "Comparison with the Ω(n⁴) baseline (Section 1)",
        "**Paper**: prior leaderless A-DKG (Kokoris-Kogias et al.) needs `Ω(n⁴)`\n"
        "expected words and `Ω(n)` rounds; this work needs `Õ(n³)` and O(1).\n"
        "Baseline here: the structurally analogous ACS construction (un-aggregated\n"
        "Bracha broadcasts + n binary ABAs) — see DESIGN.md §2.",
        ("n", "ours_words", "baseline_words", "word_ratio", "ours_rounds", "baseline_rounds"),
        rows,
        findings,
        checks,
    )


def _bad_share_mutator(payload, recipient, rng):
    if not isinstance(payload, ADKGShare):
        return payload
    contribution = payload.contribution
    commitments = (contribution.commitments[0],) * len(contribution.commitments)
    return ADKGShare(dataclasses.replace(contribution, commitments=commitments))


def _crash_then_new_session(n: int, seed: int) -> dict:
    """Abandon a stalled session for a fresh one on the same live network.

    Session 0 is crippled twice over: party ``n-1`` crashes after a
    handful of sends, and the scheduler lags every session-0 message by a
    huge (finite) delay.  A fresh session is injected; the row reports
    on it, and on the stalled one still completing afterwards (eventual
    delivery keeps termination intact, merely late).  E14 is the
    complement: there the crashed *party* rejoins the same session.
    """
    setup = TrustedSetup.generate(n, seed=seed)
    crash = CrashBehavior(after_sends=5)
    sim = Simulation(
        setup,
        seed=seed,
        behaviors={n - 1: crash},
        delay_model=FixedDelay(1.0),
        chaos=ChaosSpec(delays=(DelayWindow(9_999.0, session=0),)),
    )
    sim.start(lambda p: ADKG(), session=0)
    sim.start(lambda p: ADKG(), session=1)
    sim.block_on(sim.wait_session(1))
    stalled_still_running = crash.crashed and not sim.all_honest_output(0)
    outputs = list(sim.honest_results(session=1).values())
    agreed, valid = _agreed_and_valid(setup, outputs)
    fresh_rounds = sim.completion_time(session=1)
    sim.block_on(sim.wait_session(0))
    return {
        "n": n,
        "fault": "crash-then-new-session",
        "honest_outputs": len(outputs),
        "agreement": agreed,
        "valid": valid,
        "rounds": fresh_rounds,
        "fresh_lands_first": stalled_still_running
        and fresh_rounds < sim.completion_time(session=0),
    }


def e8_fault_matrix(cases: Sequence[tuple[int, int]]) -> Section:
    rows = []
    for n, seed in cases:
        last = n - 1
        faults = {
            "none": {},
            "silent": {"behaviors": {last: SilentBehavior()}},
            "crash": {"behaviors": {last: CrashBehavior(after_sends=30)}},
            "drop-half": {"behaviors": {last: DropBehavior(rate=0.5)}},
            "bad-shares": {"behaviors": {last: MutateBehavior(_bad_share_mutator)}},
            "lag-target": {"chaos": _lag_links(n, {0}, 12.0, horizon=50.0)},
            "lag-random": {"scheduler": RandomLagScheduler(factor=20.0, rate=0.3)},
        }
        for fault, adversary in faults.items():
            sim = _simulate(
                n, lambda p: ADKG(), seed=seed, to_quiescence=False, **adversary
            )
            outputs = list(sim.honest_results().values())
            agreed, valid = _agreed_and_valid(sim.setup, outputs)
            rows.append(
                {
                    "n": n,
                    "fault": fault,
                    "honest_outputs": len(outputs),
                    "agreement": agreed,
                    "valid": valid,
                    "rounds": sim.completion_time(),
                }
            )
        rows.append(_crash_then_new_session(n, seed))
    return Section(
        "E8",
        "Fault matrix (Theorems 1, 3, 4, 5)",
        "**Paper**: agreement, external validity and almost-sure termination for\n"
        "any f < n/3 Byzantine parties under any asynchronous schedule.",
        ("n", "fault", "honest_outputs", "agreement", "valid", "rounds"),
        rows,
        (
            "Adversarial scheduling stretches rounds (no timeouts are ever relied on) "
            "but never safety.",
        ),
        {
            "every case agrees on one verifying transcript": all(
                r["agreement"] and r["valid"] for r in rows
            ),
            "every honest party outputs (all n under lag, n-1 beside a faulty one)": all(
                r["honest_outputs"]
                == r["n"] - (r["fault"] != "none" and not r["fault"].startswith("lag"))
                for r in rows
            ),
            "a fresh session lands while the stalled one is still in flight": all(
                r["fresh_lands_first"] for r in rows if "fresh_lands_first" in r
            ),
        },
    )


def e9_rbc_ablation(ns: Sequence[int], seeds: Sequence[int]) -> Section:
    ct = _adkg_rows(ns, seeds, "ct")
    bracha = _adkg_rows(ns, seeds, "bracha")
    ratios = [b["mean_words"] / c["mean_words"] for c, b in zip(ct, bracha)]
    findings = (
        "Bracha/CT word ratio: "
        + ", ".join(f"n={n}: {ratio:.2f}×" for n, ratio in zip(ns, ratios))
        + ".",
    )
    checks = {
        "the ablated (Bracha) stack gets relatively worse as n grows": ratios[-1] > ratios[0],
        "every run agrees": all(r["agreement_rate"] == 1.0 for r in ct + bracha),
    }
    if len(ns) >= 3:
        ct_fit, bracha_fit = _fit(ct, "n", "mean_words"), _fit(bracha, "n", "mean_words")
        findings += (
            f"Fitted exponents: CT stack **{ct_fit.exponent:.2f}**, Bracha stack "
            f"**{bracha_fit.exponent:.2f}** — the ablated stack loses most of the "
            "paper's asymptotic improvement.",
        )
        checks["the Bracha stack's exponent is the larger"] = (
            bracha_fit.exponent > ct_fit.exponent
        )
    return Section(
        "E9",
        "Ablation: the erasure-coded broadcast (Section 7.1)",
        "**Paper (design choice)**: instantiating every broadcast with the CT\n"
        "erasure-coded protocol is what keeps the stack at `Õ(n³)`; with plain\n"
        "Bracha underneath, the O(n)-word payloads push it toward `Ω(n⁴)`.",
        ("kind", "n", "mean_words", "mean_rounds", "agreement_rate"),
        ct + bracha,
        findings,
        checks,
    )


def e10_vc_ablation(ns: Sequence[int], m: int) -> Section:
    merkle = [_broadcast_row("ct", n, m) for n in ns]
    kzg = [_broadcast_row("ct-kzg", n, m) for n in ns]
    savings = [(a["words"] - b["words"]) / a["words"] for a, b in zip(merkle, kzg)]
    return Section(
        "E10",
        "Extension: constant-size openings (Section 7.1 remark)",
        "**Paper**: Merkle openings cost `O(log n)` words; SNARK-style\n"
        'commitments would cut that to `O(1)` "at the cost of a trusted setup\n'
        'and concretely high proving time".  Implemented here as a KZG vector\n'
        'commitment over the simulated pairing (`vc_kind="kzg"`).',
        ("kind", "n", "m", "words", "messages", "rounds"),
        merkle + kzg,
        (
            "Word savings from constant openings: "
            + ", ".join(f"n={n}: {100 * s:.0f}%" for n, s in zip(ns, savings))
            + ".",
        ),
        {
            "constant openings save words at every n": all(s > 0 for s in savings),
            "the saving grows with n (log n vs 1 in the n² term)": _increasing(savings),
            "rounds unchanged (three hops)": {r["rounds"] for r in merkle + kzg} == {3.0},
        },
    )


# -- E11-E18: the systems around the protocol ------------------------------------------


def e11_transports(ns: Sequence[int], seed: int) -> Section:
    rows = []
    for n in ns:
        for transport in ("sim", "tcp"):
            result = run_adkg(n=n, seed=seed, transport=transport, measure_bytes=True)
            row = {
                "transport": transport,
                "n": n,
                "agreed": result.agreed,
                "words": result.words_total,
                "messages": result.messages_total,
            }
            if transport == "sim":
                # TCP's depth stamps follow the socket schedule and a
                # depth is a varint, so only the simulator's bytes repeat.
                row["bytes"] = result.bytes_total
                row["bytes_per_word"] = result.bytes_total / result.words_total
            rows.append(row)
    per_word = [r["bytes_per_word"] for r in rows if r["transport"] == "sim"]
    return Section(
        "E11",
        "Extension: one protocol, two transports",
        "The same sans-io protocol objects run unchanged over the deterministic\n"
        "simulator and real TCP loopback sockets with the byte codec (DESIGN.md\n"
        "section 3); every byte on the TCP wire is a codec frame, no pickle\n"
        "anywhere.  Bytes are shown where they repeat run to run (the\n"
        "simulator).",
        ("transport", "n", "agreed", "words", "messages", "bytes", "bytes_per_word"),
        rows,
        (),
        {
            "every transport reaches agreement": all(r["agreed"] for r in rows),
            "words and messages are identical across transports": all(
                len({(r["words"], r["messages"]) for r in rows if r["n"] == n}) == 1
                for n in ns
            ),
            "bytes per word stay bounded as n grows (max/min < 2)": _spread(per_word) < 2.0,
        },
    )


def e12_hotpath(ns: Sequence[int], seed: int) -> Section:
    rows = []
    for n in ns:
        # Encodes and pairings are process-wide: bracketed around the run.
        setup = TrustedSetup.generate(n, seed=seed)
        group = setup.directory.pair_group
        pair_calls, encodes = group.pair_calls, Counter(codec.encode_stats)
        result = run_adkg(seed=seed, setup=setup, measure_bytes=True)
        encode = counter_delta(codec.encode_stats, encodes)
        counters = result.metrics_summary["counters"]
        verify = counters["verify"]
        rows.append(
            {
                "n": n,
                "agreed": result.agreed,
                "transcript_checks": verify["pvss-transcript.calls"],
                "transcripts_verified": verify["pvss-transcript.misses"],
                "verify_calls": sum(v for k, v in verify.items() if k.endswith(".calls")),
                "retired": counters["pending"].get("retired", 0),
                "verified": sum(v for k, v in verify.items() if k.endswith(".misses")),
                "payload_sends": encode["payload.calls"],
                "payloads_encoded": encode["payload.misses"],
                "pairings": group.pair_calls - pair_calls,
            }
        )
    return Section(
        "E12",
        "Extension: hot-path amortization counters",
        "Content-addressed verification memoization and encode-once fan-out\n"
        "(DESIGN.md section 4): a transcript arriving on every RBC echo path is\n"
        "verified once per *distinct* aggregate, a multicast payload is encoded\n"
        "once and the buffer reused for the other recipients.  `retired` counts\n"
        "deliveries dropped unhandled because their CT-RBC instance had output,\n"
        "echoed and sent READY (DESIGN.md section 8).  `tests/net/\n"
        "totals_golden.json` pins the per-domain verify counts to the digit.",
        tuple(rows[0]),
        rows,
        (),
        {
            "every run agrees": all(r["agreed"] for r in rows),
            "transcripts verified ≤ 2n (own aggregate + one per elected view)": all(
                0 < r["transcripts_verified"] <= 2 * r["n"] for r in rows
            ),
            "more transcript checks are served from cache than verified": all(
                r["transcript_checks"] > 2 * r["transcripts_verified"] for r in rows
            ),
            "more payload sends reuse an encoding than make one": all(
                r["payload_sends"] > 2 * r["payloads_encoded"] for r in rows
            ),
        },
    )


def e13_pipelining(n: int, epochs: int, depths: Sequence[int]) -> Section:
    rows = []
    for depth in depths:
        report = run_beacon(
            n=n, epochs=epochs, pipeline_depth=depth, rounds_per_epoch=1, seed=1
        )
        rows.append(
            {
                "n": n,
                "depth": depth,
                "epochs": epochs,
                "end_to_end_rounds": report.end_to_end,
                "mean_epoch_latency": report.mean_epoch_latency,
                "epochs_per_100_rounds": 100.0 * epochs / report.end_to_end,
                "words": report.words_total,
                "verified": report.all_verified,
            }
        )
    sequential, pipelined = rows[0], rows[1]
    return Section(
        "E13",
        "Extension: session multiplexing & epoch pipelining",
        "The session-multiplexed engine runs repeated ADKG epochs as\n"
        "concurrent sessions over one network (DESIGN.md section 7); with\n"
        "pipeline depth `D`, epoch `e+D`'s dealing overlaps epoch `e`'s\n"
        "agreement tail.  End-to-end time is *simulated rounds* — the\n"
        "schedule-level latency pipelining shrinks — not wall clock.",
        tuple(rows[0]),
        rows,
        (
            f"Depth {pipelined['depth']} finishes "
            f"{sequential['end_to_end_rounds'] / pipelined['end_to_end_rounds']:.1f}× sooner "
            "in rounds than sequential at identical word cost.",
        ),
        {
            "every epoch's beacon stream verifies against its rotated key": all(
                r["verified"] for r in rows
            ),
            f"depth {pipelined['depth']} ends in fewer rounds than depth "
            f"{sequential['depth']}": (
                pipelined["end_to_end_rounds"] < sequential["end_to_end_rounds"]
            ),
            "scheduling overlap, not extra traffic: words identical at every depth": (
                len({r["words"] for r in rows}) == 1
            ),
        },
    )


def e14_crash_recovery(
    n: int, seed: int, cadences: Sequence[int], delays: Sequence[float]
) -> Section:
    f = max(1, (n - 1) // 3)
    roles = (
        ("dealer", [0], None),
        ("leader-candidate", [n // 2], None),
        ("f-parties", list(range(n - f, n)), None),
        ("dealer+byz-schedule", [0], RandomLagScheduler(factor=15.0, rate=0.3)),
    )
    rows = []
    for fault, indices, scheduler in roles:
        for cadence in cadences:
            for delay in delays:
                report = run_crash_recovery(
                    n=n,
                    seed=seed,
                    crash_indices=indices,
                    crash_after=30,
                    recovery_delay=delay,
                    cadence=cadence,
                    scheduler=scheduler,
                )
                replay = report["replay"].values()
                rows.append(
                    {
                        "fault": fault,
                        "crashed": len(indices),
                        "cadence": cadence,
                        "recovery_delay": delay,
                        "honest_outputs": report["honest_outputs"],
                        "agreement": report["agreement"],
                        "valid": report["valid"],
                        "recovery_latency": report["recovery_latency"],
                        "wal_records": sum(s["wal_records"] for s in replay),
                        "suppressed_sends": sum(s["suppressed_sends"] for s in replay),
                    }
                )

    def replayed(cadence: int) -> list[int]:
        return [r["wal_records"] for r in rows if r["cadence"] == cadence]

    return Section(
        "E14",
        "Extension: in-session crash–recovery (durable state machines)",
        "Every protocol is a serializable state machine; a party crashed\n"
        "mid-ADKG (losing its memory) rehydrates from its `SnapshotStore`\n"
        "snapshot plus write-ahead-log replay through the normal `deliver()`\n"
        "path, rejoins the *same* session, and the run reaches agreement on one\n"
        "verifying transcript (DESIGN.md section 9).  The snapshot cadence\n"
        "trades checkpoint work against WAL length.",
        tuple(rows[0]),
        rows,
        (
            "The suppressed duplicate sends are the WAL replay regenerating exactly "
            "the traffic the pre-crash process already emitted.",
        ),
        {
            "every cell recovers to agreement on a verifying transcript, all n output": all(
                r["agreement"] and r["valid"] and r["honest_outputs"] == n for r in rows
            ),
            "a sparser snapshot cadence leaves at least as many WAL records to replay": all(
                sparse >= dense
                for dense, sparse in zip(replayed(min(cadences)), replayed(max(cadences)))
            ),
        },
    )


def e16_chaos(n: int, seed: int, realtime: Sequence[str]) -> Section:
    f = max(1, (n - 1) // 3)

    def side(indices) -> str:
        return ",".join(str(i) for i in indices)

    alone = f"0|{side(range(1, n))}"
    halves = f"{side(range(n // 2))}|{side(range(n // 2, n))}"
    crashers = lambda: {  # noqa: E731 — fresh stateful behaviors per run
        n - 1: CrashBehavior(after_sends=10, recover_after_drops=5)
    }
    cases = {
        "clean": (None, None),
        "partition-heal": (f"partition:{alone}@2-20", None),
        "regional-split": (f"partition:{halves}@2-15", None),
        "oneway-cut": (f"partition-oneway:{alone}@1-15", None),
        "lossy-link": ("drop:0.08;reorder:0.1", None),
        "dup+corrupt": ("dup:0.05;corrupt:0.03", None),
        "partition+lossy": (f"partition:{alone}@2-12;drop:0.05", None),
        "lossy+crash-recover": ("drop:0.05;reorder:0.05", crashers),
    }

    def run(spec, behaviors=None):
        return run_adkg(
            n=n,
            seed=seed,
            measure_bytes=True,
            chaos=spec,
            behaviors=behaviors() if behaviors else None,
        )

    def totals(result) -> tuple:
        return result.words_total, result.bytes_total, result.public_key

    def injected(result) -> int:
        counts = result.metrics_summary["counters"].get("chaos", {})
        # corrupt_* keys are verdicts on a corrupted frame, not faults.
        return sum(v for k, v in counts.items() if not k.startswith("corrupt_"))

    results = {name: run(spec, behaviors) for name, (spec, behaviors) in cases.items()}
    rows = [
        {
            "case": name,
            "transport": "sim",
            "agreement": result.agreed,
            "words": result.words_total,
            "bytes": result.bytes_total,
            "faults_injected": injected(result),
            "rounds": result.rounds,
        }
        for name, result in results.items()
    ]
    checks = {
        "an attached-but-idle plane leaves words, bytes and group key untouched": (
            totals(run(ChaosSpec())) == totals(results["clean"])
        ),
        "same seed + same spec reproduces words, bytes and group key": (
            totals(run(cases["partition-heal"][0])) == totals(results["partition-heal"])
        ),
        "every faulty case injected faults": all(
            r["faults_injected"] > 0 for r in rows if r["case"] != "clean"
        ),
    }
    for transport in realtime:
        # f parties cut off over a live transport, healed after 0.8 s of
        # wall clock: what is injected and sent depends on socket timing,
        # the outcome does not.
        healed = run_adkg(
            n=n,
            seed=seed,
            transport=transport,
            chaos=f"partition:{side(range(f))}|{side(range(f, n))}@0-0.8",
            timeout=60.0,
        )
        rows.append(
            {"case": "partition-heal-f", "transport": transport, "agreement": healed.agreed}
        )
    checks["every case reaches agreement"] = all(r["agreement"] for r in rows)
    return Section(
        "E16",
        "Extension: chaos matrix (link faults on sim and TCP)",
        "The chaos plane (DESIGN.md section 11) injects partitions that heal,\n"
        "lossy/duplicating/reordering links, byte corruption and extra delay\n"
        "into the shared delivery pipeline from one seeded stream; every\n"
        "schedule preserves eventual delivery by construction, so each row is\n"
        "a legal asynchronous adversary and must reach agreement.  The TCP row\n"
        "partitions f parties over real sockets and heals mid-run: the cut\n"
        "holds envelopes in the shared pipeline and closes no socket.  Killed\n"
        "connections and their reconnects are gated by\n"
        "tests/net/test_tcp_healing.py.",
        ("case", "transport", "agreement", "words", "bytes", "faults_injected", "rounds"),
        rows,
        (),
        checks,
    )


def e18_churn(seed: int, rotation_epochs: int, realtime: Sequence[str]) -> Section:
    handoff = dict(universe_n=8, epochs=4, churn="join:7@1;leave:0@3", base_f=1)
    # One member swapped per epoch; a departed party rejoins three epochs on.
    rotation = ";".join(
        f"join:{(6 + e) % 10}@{e};leave:{(e - 1) % 10}@{e}" for e in range(1, rotation_epochs)
    )
    cases = [
        ("proactive-refresh", "sim", dict(universe_n=7, epochs=3)),
        (
            "churn-matrix",
            "sim",
            dict(
                universe_n=10,
                epochs=5,
                churn="join:8@1;join:9@2;leave:0@2;leave:1@3;threshold:1@3",
            ),
        ),
        (
            "crash-handoff",
            "sim",
            dict(handoff, crash={1: {"indices": (2,), "after": 12, "delay": 4.0}}),
        ),
        (
            "partition-handoff",
            "sim",
            dict(handoff, chaos={2: "partition:0,1|2,3,4,5,6,7@3-9"}),
        ),
        (
            "sustained-rotation",
            "sim",
            dict(
                universe_n=10,
                epochs=rotation_epochs,
                churn=rotation,
                base_members=range(7),
                base_f=1,
            ),
        ),
    ]
    cases += [
        (
            f"churn-{transport}",
            transport,
            dict(universe_n=7, epochs=3, churn="join:6@1;leave:0@2", base_f=1),
        )
        for transport in realtime
    ]
    rows = []
    for name, transport, kwargs in cases:
        report = run_churn(transport=transport, seed=seed, **kwargs)
        membership = report.membership
        sizes = [len(result.committee) for result in membership.results]
        events = kwargs.get("churn", "")
        rows.append(
            {
                "case": name,
                "transport": transport,
                "epochs": len(membership.results),
                "handoffs": membership.handoffs,
                "joins": events.count("join:"),
                "leaves": events.count("leave:"),
                "committee_n": f"{min(sizes)}..{max(sizes)}",
                "key_invariant": membership.key_invariant,
                "chain_verified": report.all_verified,
            }
        )
    return Section(
        "E18",
        "Extension: dynamic membership (proactive resharing)",
        "One group key outlives every committee (DESIGN.md section 13): epoch 0\n"
        "establishes the key with a fresh ADKG; each later epoch hands it to a\n"
        "possibly different committee by proactive resharing — every old holder\n"
        "re-deals its exponent share under a zero-anchored delta polynomial, the\n"
        "new committee agrees (NWH, certificate-gated) on a bundle of f_old + 1\n"
        "verified dealings and interpolates deterministically.  The rows include\n"
        "a crash-recover handoff (WAL replay into the reshare epoch), a\n"
        "healing-partition handoff and a one-swap-per-epoch rotation.",
        tuple(rows[0]),
        rows,
        (),
        {
            "every epoch's group key encodes to the bytes of epoch 0's": all(
                r["key_invariant"] for r in rows
            ),
            "the genesis-rooted beacon chain verifies across every handoff": all(
                r["chain_verified"] for r in rows
            ),
            "every scheduled handoff happened": all(
                r["handoffs"] == r["epochs"] - 1 for r in rows
            ),
        },
    )


# -- the harness -----------------------------------------------------------------------


def run_experiments() -> list[Section]:
    """All sixteen at EXPERIMENTS.md size (``test_run_experiments`` runs
    the same functions at CI size)."""
    return [
        e1_broadcast(n_fixed=7, ms=(16, 64, 256, 1024), ns=(4, 7, 13, 25), m_small=4, m_big=512),
        e2_gather(ns=(4, 7, 10, 13), n_fixed=7, ms=(1, 64, 512)),
        e3_proposal_election(ns=(4, 7, 10, 13)),
        e4_pe_binding(
            benign_runs=40, silent_runs=25, lag_runs=25, n7_runs=15,
            searched_runs={4: 200, 7: 100},
        ),  # fmt: skip
        e5_nwh(view_runs=20, ns=(4, 7, 10, 13), seeds=(1, 2), lag_runs=200),
        e6_adkg(ns=(4, 7, 10, 13), seeds=(1, 2, 3)),
        e7_baseline(ns=(4, 7, 10, 13, 16, 19), seed=1),
        e8_fault_matrix(cases=((4, 1), (7, 2))),
        e9_rbc_ablation(ns=(4, 7, 10, 13), seeds=(1,)),
        e10_vc_ablation(ns=(4, 7, 13, 25), m=8),
        e11_transports(ns=(4, 7, 10), seed=1),
        e12_hotpath(ns=(4, 10, 16, 25), seed=1),
        e13_pipelining(n=7, epochs=4, depths=(1, 2, 3)),
        e14_crash_recovery(n=4, seed=1, cadences=(8, 64), delays=(3.0, 12.0)),
        e16_chaos(n=4, seed=1, realtime=("tcp",)),
        e18_churn(seed=2, rotation_epochs=8, realtime=("tcp",)),
    ]


HEADER = """\
# EXPERIMENTS — paper vs measured

Regenerated by `python -m repro.analysis.experiments`
(`run_experiments()`); the tier-1 suite runs the same sixteen functions at
CI size (`tests/analysis/test_experiments.py`) and CI diffs this file
against a fresh run.  All runs are seeded and every column is a
deterministic function of the code; wall clock lives in `python3 -m
perf.run` (`BENCHMARK.json`), not here.  A *word* is the paper's unit (a
constant number of values/signatures); *rounds* are causal message-chain
length (time under unit delays); fits are least squares in log-log space.
Expectations are shape-level (exponents, ratios, crossovers), not
absolute numbers — the substrate is a simulator, not the authors'
testbed.  Each section ends with its checks; a failed one fails the suite
and this generator."""


def render(sections: Sequence[Section]) -> str:
    return "\n\n".join([HEADER, *(section.render() for section in sections)]) + "\n"


def main() -> int:
    sections = run_experiments()
    output = Path(__file__).resolve().parents[3] / "EXPERIMENTS.md"
    output.write_text(render(sections), encoding="utf-8")
    failed = failed_checks(sections)
    for line in failed:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"wrote {output}: {len(sections)} sections, {len(failed)} failed checks", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
