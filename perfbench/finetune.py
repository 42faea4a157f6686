"""finetune: compiled quantization-aware ``Trainer.fit`` of MiniEfficientViT.

MiniEfficientViT (linear attention, HSWISH and DIV on fixed 8-entry LUTs,
INT8 LSQ Linears) is fine-tuned on the synthetic segmentation set with
``train_engine="compiled"``; the fit's evaluations run the compiled
inference engine.  Each fit starts from the same freshly built model, so
every fit in a run must produce the same losses.  ``Trainer.fit`` owns its
``CompiledTrainStep``, so each fit traces its joint forward + backward +
optimizer plan on its first step and replays it afterwards; that first
step is an operation like any other.  One operation is one training step;
one throughput window is one fit, evaluations included.
"""

from __future__ import annotations

import gc

import numpy as np

from common import fixed_luts, lut_quality
from harness import Context, Outcome, clock

OPERATORS = ("hswish", "div")


class Prepared:
    """The dataset and a freshly built, quantized model."""

    def __init__(self, seed: int, tiny: bool) -> None:
        from repro.data.synthetic_segmentation import (
            SyntheticSegmentationConfig,
            SyntheticSegmentationDataset,
        )

        self.seed, self.tiny = seed, tiny
        self.image_size = 16 if tiny else 32
        self.data = SyntheticSegmentationDataset(SyntheticSegmentationConfig(
            image_size=self.image_size, num_classes=5,
            num_train=32 if tiny else 128, num_val=16 if tiny else 32, seed=seed,
        ))
        self.model = self.build_model()

    def build_model(self):
        from repro.nn.approx import PWLSuite
        from repro.nn.models import MiniEfficientViT, ModelConfig
        from repro.nn.training import prepare_quantized_model

        suite = PWLSuite(approximations=fixed_luts(OPERATORS),
                         replace=set(OPERATORS), engine="dense")
        config = ModelConfig(image_size=self.image_size, num_classes=5,
                             embed_dim=16 if self.tiny else 32,
                             depth=1 if self.tiny else 2, seed=self.seed)
        model = MiniEfficientViT(config, suite=suite)
        prepare_quantized_model(model)
        return model

    def fit(self, model, engine: str):
        from repro.core import engine_config
        from repro.nn.training import Trainer, TrainingConfig

        trainer = Trainer(model, TrainingConfig(
            epochs=2 if self.tiny else 3, batch_size=8, learning_rate=5e-4, seed=self.seed,
        ))
        data = self.data
        with engine_config.use(infer_engine="compiled", train_engine=engine):
            return trainer.fit(data.train_images, data.train_labels,
                               data.val_images, data.val_labels,
                               num_classes=data.num_classes, train_engine=engine)


def run(ctx: Context) -> Outcome:
    from repro.graph import executor
    from repro.nn import training

    ctx.imports_done()
    pass_nodes: dict = {}
    if ctx.tracer is not None:
        from common import instrument_graph, pass_counters

        ctx.tracer.wrap(executor.CompiledTrainStep, "step", "graph.executor.train_step_ms")
        ctx.tracer.wrap(training.Trainer, "evaluate", "nn.training.evaluate_ms")
        instrument_graph(ctx.tracer, pass_nodes)
        ctx.tracer.recording = True
    prepared = ctx.repeat_setup(lambda: Prepared(ctx.seed, ctx.tiny), reps=3)

    # The operation clock: every compiled step's start and end.
    steps, stepper = [], []
    step = vars(executor.CompiledTrainStep)["step"]

    def timed_step(self, *args, **kwargs):
        ctx.tick()
        begin = clock()
        loss = step(self, *args, **kwargs)
        steps.append((begin, clock()))
        stepper[:] = [self]
        return loss

    executor.CompiledTrainStep.step = timed_step
    try:
        results = []
        model = prepared.model
        start = clock()
        index = 0
        while index < 2 or clock() - start < ctx.seconds:
            recorded = ctx.segment_recorded(index)
            del steps[:]
            fit_start = clock()
            results.append(prepared.fit(model, "compiled"))
            ctx.window(fit_start, clock(), len(results[-1].losses) * 8, recorded)
            for begin, end in steps:
                ctx.op(begin, end, recorded)
            index += 1
            model = prepared.build_model()
            # The discarded model is cyclic garbage: free it now, not at
            # whichever fit the collector's own schedule lands on, so peak
            # memory is one fit's and not a function of the run's length.
            gc.collect()
        ctx.end_timed_phase()
    finally:
        executor.CompiledTrainStep.step = step

    counters = {}
    if ctx.tracer is not None:
        counters = pass_counters(pass_nodes)
        plans = list(stepper[0].stats()["signatures"].values())
        counters["graph.executor.train_plan_nodes"] = float(np.mean([p["nodes"] for p in plans]))
        counters["graph.executor.train_peak_live"] = float(np.mean([p["peak_live"] for p in plans]))
        chunk = prepared.data.val_images[:8]
        counters["graph.executor.plan_nodes"] = float(
            stepper[0].model.compiled().graph_for(chunk).num_steps)

    # Reference: an eager fit from the same start gives the same losses.
    eager = prepared.fit(prepared.build_model(), "eager")
    first = results[0]
    return Outcome(
        op_unit="training step of 8 images",
        attempted=sum(len(r.losses) for r in results),
        failed=0,
        approx_mse=lut_quality(fixed_luts(OPERATORS)),
        checks={
            "losses_equal_eager_fit": eager.losses == first.losses,
            "val_miou_equal_eager_fit": eager.val_miou == first.val_miou,
            "every_fit_identical": all(r.losses == first.losses and r.val_miou == first.val_miou
                                       for r in results),
        },
        counters=counters,
        detail={
            "fits": len(results),
            "steps_per_fit": len(first.losses),
            "val_miou": first.val_miou,
            "final_loss": first.losses[-1],
            "generator_lateness": "closed loop (none)",
        },
    )
