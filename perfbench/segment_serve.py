"""segment_serve: MiniSegformer behind ``BatchingServer``, one client thread.

The run alternates two phases until time is up.  The open-loop phase
submits single images at Poisson arrival times of 200 req/s, well below
saturation, for 2 s; each request is timed from the moment it was due, so
a stalled generator shows up as latency, and the generator's own lateness
is reported.  Latency percentiles are taken per open-loop phase (about 400
requests) and the median over phases is reported.  The closed-loop phase
submits bursts of ``max_batch`` images and waits for each burst; its
images per second is the throughput.  The server runs the compiled engine
with its default batching settings.
"""

from __future__ import annotations

import bisect
import hashlib
import time

import numpy as np

from common import fixed_luts, lut_quality
from harness import Context, Outcome, clock, percentile

OPERATORS = ("exp", "gelu", "div", "rsqrt")
RATE = 200.0          # requests per second in the open-loop phase
OPEN_SECONDS = 2.0    # scheduled arrivals per open-loop phase
BURSTS = 20           # closed-loop bursts per phase
POOL = 64             # distinct images per run


class Deployment:
    """A built, quantized model behind a running server."""

    def __init__(self, seed: int, image_size: int) -> None:
        from repro.nn.approx import PWLSuite
        from repro.nn.models import MiniSegformer, ModelConfig
        from repro.nn.training import prepare_quantized_model
        from repro.serve import BatchingServer

        suite = PWLSuite(approximations=fixed_luts(OPERATORS),
                         replace=set(OPERATORS), engine="dense")
        self.model = MiniSegformer(ModelConfig(image_size=image_size, seed=seed), suite=suite)
        prepare_quantized_model(self.model)
        self.model.eval()
        self.server = BatchingServer(self.model, engine="compiled")
        rng = np.random.default_rng([seed, 1])
        self.images = [rng.normal(size=(image_size, image_size, 3)) for _ in range(POOL)]
        # Trace and compile every padding bucket the run can hit.  Back-to-
        # back submissions land in one batch unless the worker happens to
        # start a batch between them, so retry a few times.
        sizes = {1, 2, 4, self.server.max_batch}
        for _ in range(20):
            for size in sorted(sizes):
                for future in [self.server.submit(image) for image in self.images[:size]]:
                    future.result(timeout=60)
            buckets = {int(key) for key in self.server.health()["bucket_latency_ms"]}
            if sizes <= buckets:
                break

    def close(self) -> None:
        self.server.close()


def instrument(tracer, served: list) -> None:
    from repro.graph import executor
    from repro.serve import engine

    tracer.wrap(engine.BatchingServer, "submit", "serve.engine.submit_ms")
    tracer.wrap(executor.CompiledModel, "predict",
                lambda args: "graph.executor.predict_ms.b%d" % len(args[1]),
                lambda args, result: served.append(args[0]))


def run(ctx: Context) -> Outcome:
    from repro.core import engine_config
    from repro.reliability import DeadlineExceededError, QueueFullError

    ctx.imports_done()
    served: list = []
    pass_nodes: dict = {}
    if ctx.tracer is not None:
        from common import instrument_graph, pass_counters

        instrument(ctx.tracer, served)
        instrument_graph(ctx.tracer, pass_nodes)
        ctx.tracer.recording = True
    image_size = 16 if ctx.tiny else 32
    with engine_config.use(infer_engine="compiled", serve_queue_limit=0, serve_deadline_ms=0):
        deploy = ctx.repeat_setup(lambda: Deployment(ctx.seed, image_size), reps=5)
    server, images = deploy.server, deploy.images
    rng = np.random.default_rng([ctx.seed, 2])
    # Only what the checks and metrics need is kept, so finished requests
    # do not pile up as objects the garbage collector has to walk.
    responses = []       # (image index, digest of the prediction)
    answered = []        # (submitted, finished, recorded) per open-loop request
    failures = []
    lateness = []
    shed = 0
    batch_sizes = []

    def settle(pending: list, phase: int = 0) -> None:
        for index, future, finished, due, submitted, recorded in pending:
            error = future.exception(timeout=60)
            if error is not None:
                failures.append(error)
                continue
            responses.append((index, digest(future.result())))
            if due is not None:
                while not finished:      # the done-callback runs just after
                    time.sleep(0.0001)
                # Mostly the batch window and the arrival schedule: not scaled.
                ctx.op(due, finished[0], recorded, scaled=False, group=phase)
                answered.append((submitted, finished[0], recorded))

    start = clock()
    phase = 0
    while phase < 2 or clock() - start < ctx.seconds:
        recorded = ctx.segment_recorded(phase // 2)
        ctx.tick(force=True)
        before = server.stats()
        if phase % 2 == 0:
            # Open loop: Poisson arrivals, timed from their due time.
            pending = []
            origin = clock()
            due = origin
            while True:
                due += rng.exponential(1.0 / RATE)
                if due - origin > OPEN_SECONDS:
                    break
                delay = due - clock()
                if delay > 0:
                    time.sleep(delay)
                index = int(rng.integers(POOL))
                submitted = clock()
                lateness.append((submitted - due) * 1e3)
                try:
                    future = server.submit(images[index])
                except QueueFullError:
                    shed += 1
                    continue
                finished = []
                future.add_done_callback(lambda _, finished=finished: finished.append(clock()))
                pending.append((index, future, finished, due, submitted, recorded))
            settle(pending, phase)
            after = server.stats()
            if after.batches > before.batches:
                batch_sizes.append((after.completed - before.completed)
                                   / (after.batches - before.batches))
        else:
            # Closed loop: bursts of max_batch images.
            for _ in range(BURSTS):
                ctx.tick()
                burst_start = clock()
                burst = []
                for _ in range(server.max_batch):
                    index = int(rng.integers(POOL))
                    try:
                        burst.append((index, server.submit(images[index]), None, None, None, recorded))
                    except QueueFullError:
                        shed += 1
                for _, future, *_ in burst:
                    future.exception(timeout=60)
                ctx.window(burst_start, clock(), len(burst), recorded)
                settle(burst)
        phase += 1
    ctx.end_timed_phase()

    counters, waits = {}, []
    if ctx.tracer is not None:
        counters.update(pass_counters(pass_nodes))
        compiled = served[-1]
        counters["graph.executor.plan_nodes"] = float(np.mean([
            compiled.graph_for(np.zeros((size, image_size, image_size, 3))).num_steps
            for size in (1, 2, 4, server.max_batch)
        ]))
        counters["serve.engine.batch_size"] = float(np.mean(batch_sizes))
        counters["serve.client.lateness_p90_ms"] = percentile(lateness, 90)
        waits = _queue_waits(ctx.tracer, answered)
        if waits:
            counters["serve.engine.queue_wait_ms"] = float(np.median(waits))

    # Reference: every response equals the eager prediction of its image.
    deploy.close()
    reference = [digest(deploy.model.predict(image[None], engine="eager")[0]) for image in images]
    return Outcome(
        op_unit="image",
        attempted=len(responses) + len(failures) + shed,
        failed=len(failures) + shed,
        approx_mse=lut_quality(fixed_luts(OPERATORS)),
        checks={"responses_equal_eager_predict":
                all(found == reference[index] for index, found in responses)},
        counters=counters,
        detail={
            "offered_rps": RATE,
            "open_loop_requests": len(answered),
            "bursts": len(ctx.windows),
            "shed": shed,
            "expired": sum(isinstance(error, DeadlineExceededError) for error in failures),
            "generator_lateness_ms": {
                "p50": percentile(lateness, 50),
                "p90": percentile(lateness, 90),
                "max": max(lateness),
            },
            "queue_wait_samples": len(waits),
        },
    )


def digest(prediction) -> bytes:
    return hashlib.sha256(np.ascontiguousarray(prediction).tobytes()).digest()


def _queue_waits(tracer, answered: list) -> list:
    """Per recorded open-loop request: latency minus its batch's predict span.

    The worker answers a batch right after its predict returns, so a
    request belongs to the last predict span that ended before it was
    answered.
    """
    spans = sorted((end, start) for _, name, start, end, _ in tracer.spans
                   if name.startswith("graph.executor.predict_ms"))
    ends = [end for end, _ in spans]
    waits = []
    for submitted, finished, recorded in answered:
        if not recorded:
            continue
        position = bisect.bisect_right(ends, finished) - 1
        if position < 0:
            continue
        end, begin = spans[position]
        if begin < submitted:
            continue
        waits.append(((finished - submitted) - (end - begin)) * 1e3)
    return waits
