"""lut_sweep: the GQA cells of Table 3 at the paper budget, from cold.

A closed loop over rounds.  Each round builds the 20 GQA cells
(gelu/hswish/exp/div/rsqrt x {8, 16} entries x {gqa-rm, gqa-wo-rm}) for
one GA seed derived from the workload seed, one cell at a time through an
in-process ``SweepEngine`` with a durable ``run_dir``, and scores each cell
with the Table 3 statistic.  A fresh engine then re-reads the round from
the store, so the store is read as well as written.  One operation is one
cell; one throughput window is one round.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from common import geometric_mean
from harness import Context, Outcome, clock

OPERATORS = ("gelu", "hswish", "exp", "div", "rsqrt")
METHODS = ("gqa-rm", "gqa-wo-rm")
ENTRIES = (8, 16)


def ga_seed(seed: int, round_index: int) -> int:
    return int(np.random.SeedSequence([seed, round_index]).generate_state(1)[0] % 2**31)


def instrument(tracer, ga_results: list) -> None:
    from repro.core import evaluation, fitness, genetic, search
    from repro.experiments import artifacts, queue

    tracer.wrap(genetic.GeneticSearch, "run", "core.genetic.search_ms",
                lambda args, result: ga_results.append(result))
    tracer.wrap(fitness.GridMSEFitness, "batch_call", "core.fitness.batch_ms")
    tracer.wrap(search, "fit_pwl", "core.pwl.fit_ms")
    tracer.wrap(fitness, "fit_pwl_batch", "core.pwl.fit_ms")
    tracer.wrap(evaluation.QuantizedPWLEvaluator, "mse_at_scale", "core.evaluation.mse_ms")
    for method in ("enqueue", "lease", "complete"):
        tracer.wrap(queue.DurableQueue, method, "experiments.queue.journal_ms")
    tracer.wrap(artifacts.ArtifactStore, "save", "experiments.artifacts.save_ms")
    tracer.wrap(artifacts.ArtifactStore, "load", "experiments.artifacts.load_ms")


def same_pwl(a, b) -> bool:
    return all(np.array_equal(getattr(a, f), getattr(b, f))
               for f in ("breakpoints", "slopes", "intercepts"))


def run(ctx: Context) -> Outcome:
    from repro.core import engine_config
    from repro.core.search import GQALUT
    from repro.experiments.artifacts import ArtifactCache, ArtifactStore
    from repro.experiments.jobs import ApproximationJob, SweepEngine
    from repro.experiments.methods import ApproximationBudget
    from repro.experiments.protocol import average_mse

    ctx.imports_done()
    if ctx.tiny:
        base_budget = ApproximationBudget(generations=20, population_size=12)
        quality_rounds = 2
    else:
        base_budget = ApproximationBudget.paper()
        quality_rounds = 4
    ga_results: list = []
    if ctx.tracer is not None:
        instrument(ctx.tracer, ga_results)
        ctx.tracer.recording = True

    def round_jobs(round_index: int):
        budget = dataclasses.replace(base_budget, seed=ga_seed(ctx.seed, round_index))
        return [ApproximationJob(op, method, entries, budget)
                for entries in ENTRIES for method in METHODS for op in OPERATORS]

    def build_store():
        # The cold store and its journal, opened by an empty durable run.
        work = ctx.workdir()
        engine = SweepEngine(cache=ArtifactCache(store=ArtifactStore(work / "store")),
                             workers=0, run_dir=work / "run")
        engine.run_manifest([])
        return engine

    with engine_config.use(ga_engine="batch", sweep_workers=0):
        engine = ctx.repeat_setup(build_store, reps=5)
        store_dir = engine.cache.store.directory

        rounds = []
        attempted = failed = 0
        start = clock()
        index = 0
        while index < quality_rounds or clock() - start < ctx.seconds:
            recorded = ctx.segment_recorded(index)
            jobs = round_jobs(index)
            cold, scores, stats = [], [], []
            round_start = clock()
            for job in jobs:
                ctx.tick()
                op_start = clock()
                manifest = engine.run_manifest([job])
                attempted += 1
                if not manifest.ok:
                    failed += 1
                    cold.append(None)
                    continue
                pwl = manifest.results[job.key]
                scores.append(average_mse(job.operator, pwl))
                ctx.op(op_start, clock(), recorded)
                cold.append(pwl)
                stats.append(manifest.stats)
            rereader = SweepEngine(cache=ArtifactCache(store=ArtifactStore(store_dir)),
                                   workers=0)
            warm = rereader.run_manifest(jobs)
            ctx.window(round_start, clock(), len(jobs), recorded)
            rounds.append((jobs, cold, scores, stats, warm))
            index += 1
        ctx.end_timed_phase()
        engine.close()

        # Reference checks, outside the timed phase.
        quality = rounds[:quality_rounds]
        warm_ok = all(
            warm.ok and warm.stats.builds == 0
            and all(c is not None and same_pwl(c, warm.results[j.key])
                    for j, c in zip(jobs, cold))
            for jobs, cold, _, _, warm in rounds
        )
        pick = np.random.default_rng(ctx.seed).integers(len(quality[0][0]))
        sample, sample_pwl = quality[0][0][pick], quality[0][1][pick]
        oracle = GQALUT.for_operator(
            sample.operator, num_entries=sample.num_entries,
            use_rm=(sample.method == "gqa-rm"),
        ).search(generations=sample.budget.generations,
                 population_size=sample.budget.population_size,
                 seed=sample.budget.seed, engine="legacy").pwl_fxp
        checks = {
            "legacy_oracle_cell": sample_pwl is not None and same_pwl(sample_pwl, oracle),
            "warm_reread_identical_zero_builds": warm_ok,
        }

    counters = {
        "experiments.jobs.builds": sum(s.builds for r in quality for s in r[3]),
        "experiments.jobs.deduped": sum(s.deduped for r in quality for s in r[3]),
        "experiments.jobs.cache_hits": sum(r[4].stats.cache_hits for r in quality),
    }
    if ctx.traced:
        cells = len(quality) * len(quality[0][0])
        quality_results = ga_results[:cells]
        counters["core.fitness.rows"] = sum(r.fitness_calls for r in quality_results)
        counters["core.genetic.cache_hit_ratio"] = (
            sum(r.cache_hits for r in quality_results)
            / sum(r.evaluations for r in quality_results)
        )
    return Outcome(
        op_unit="cell",
        attempted=attempted,
        failed=failed,
        approx_mse=geometric_mean([s for r in quality for s in r[2]]),
        checks=checks,
        counters=counters,
        detail={
            "rounds": len(rounds),
            "quality_rounds": quality_rounds,
            "ga_seeds": [r[0][0].budget.seed for r in rounds],
            "oracle_cell": "%s/%s/%d" % (sample.operator, sample.method, sample.num_entries),
            "generator_lateness": "closed loop (none)",
        },
    )
