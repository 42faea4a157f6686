"""decode_stream: compiled KV-cached greedy decode on MiniDecoder.

One stream at a time, in a closed loop: each stream is a seeded prompt and
output length whose total crosses several power-of-two cache buckets, run
through ``greedy_generate(cache=True, engine="compiled")``.  Set-up
calibrates the quantizers and compiles the plan of every cache bucket, so
the timed streams only replay.  One operation is one token step (prompt
tokens are consumed one step at a time too): its latency runs from one
step's entry to the next, so the per-token work outside the plan
(``step_inputs``, ``KVCache`` growth and update, the argmax) is included.
One throughput window is one stream.

The reference check follows the program's two-tier decode contract: the
cached compiled stream must equal cached eager decode exactly, and its
logits must match uncached eager decode, teacher-forced along the same
stream, to within ``LOGIT_ATOL``.  The uncached forward sums attention in
a different order, so its logits differ in the last few bits (up to about
3e-15 on seeds tried), and the INT8 quantized logits often tie: at a tie
greedy argmax may pick a different token than uncached decode would.  A
token is therefore accepted if uncached decode ranks it within
``LOGIT_ATOL`` of its best; the detail record counts those tie flips.
"""

from __future__ import annotations

import numpy as np

from common import fixed_luts, lut_quality
from harness import Context, Outcome, clock

OPERATORS = ("exp", "gelu", "div", "rsqrt")
LOGIT_ATOL = 1e-12


def streams(seed: int, max_seq: int, vocab: int):
    """Endless seeded (prompt, num_new) pairs; totals reach up to ``max_seq``."""
    rng = np.random.default_rng([seed, 3])
    while True:
        prompt_len = int(rng.integers(4, 17))
        total = int(rng.integers(max(prompt_len + 1, max_seq // 3), max_seq + 1))
        prompt = [int(t) for t in rng.integers(0, vocab, size=prompt_len)]
        yield prompt, total - prompt_len


class Decoder:
    """A built, quantized, calibrated decoder with every bucket compiled."""

    def __init__(self, seed: int, max_seq: int) -> None:
        from repro.nn.approx import PWLSuite
        from repro.nn.training import prepare_quantized_model
        from repro.nn.transformer import DecoderConfig, MiniDecoder, greedy_generate

        suite = PWLSuite(approximations=fixed_luts(OPERATORS),
                         replace=set(OPERATORS), engine="dense")
        self.model = MiniDecoder(DecoderConfig(max_seq=max_seq, seed=seed), suite=suite)
        prepare_quantized_model(self.model)
        self.model.eval()
        rng = np.random.default_rng([seed, 4])
        prompt = [int(t) for t in rng.integers(0, self.model.config.vocab_size, size=8)]
        # Calibrates from this prompt, then traces one plan per bucket.
        greedy_generate(self.model, prompt, max_seq - len(prompt), cache=True, engine="compiled")


def run(ctx: Context) -> Outcome:
    from repro.graph import executor
    from repro.nn import transformer

    ctx.imports_done()
    pass_nodes: dict = {}
    if ctx.tracer is not None:
        from common import instrument_graph, pass_counters

        tracer = ctx.tracer
        tracer.wrap(executor.CompiledDecodeStep, "step", "graph.executor.decode_step_ms")
        tracer.wrap(transformer, "step_inputs", "nn.transformer.step_inputs_ms")
        tracer.wrap(transformer.KVCache, "ensure", "nn.transformer.kv_cache_ms")
        tracer.wrap(transformer.KVCache, "update", "nn.transformer.kv_cache_ms")
        instrument_graph(tracer, pass_nodes)
        tracer.recording = True
    max_seq = 32 if ctx.tiny else 128
    decoder = ctx.repeat_setup(lambda: Decoder(ctx.seed, max_seq), reps=5)
    model = decoder.model
    compiles_at_setup = model.compiled_step().compile_count

    # The operation clock: a timestamp at every step's entry.
    stamps: list = []
    step = vars(executor.CompiledDecodeStep)["step"]

    def stamped(self, *args, **kwargs):
        stamps.append(clock())
        return step(self, *args, **kwargs)

    executor.CompiledDecodeStep.step = stamped
    try:
        outputs = []
        source = streams(ctx.seed, max_seq, model.config.vocab_size)
        start = clock()
        index = 0
        while index < 8 or clock() - start < ctx.seconds:
            recorded = ctx.segment_recorded(index)
            prompt, num_new = next(source)
            ctx.tick()
            del stamps[:]
            stream_start = clock()
            generated = transformer.greedy_generate(model, prompt, num_new, cache=True,
                                                    engine="compiled")
            stream_end = clock()
            bounds = stamps + [stream_end]
            for begin, end in zip(bounds, bounds[1:]):
                ctx.op(begin, end, recorded)
            ctx.window(stream_start, stream_end, len(stamps), recorded)
            outputs.append((prompt, num_new, generated))
            index += 1
        ctx.end_timed_phase()
    finally:
        executor.CompiledDecodeStep.step = step

    stats = model.compiled_step().stats()
    counters = {}
    if ctx.tracer is not None:
        counters = pass_counters(pass_nodes)
        counters["graph.executor.decode_compiles"] = stats["compile_count"]
        counters["graph.executor.decode_plan_nodes"] = float(np.mean(
            [plan["nodes"] for plan in stats["signatures"].values()]))

    # Reference: a seeded sample stream, replayed with its logits captured.
    pick = int(np.random.default_rng([ctx.seed, 5]).integers(8))
    prompt, num_new, generated = outputs[pick]
    cached_logits: list = []

    def capturing(self, *args, **kwargs):
        logits, new_cache = step(self, *args, **kwargs)
        cached_logits.append(np.array(logits[0]))
        return logits, new_cache

    executor.CompiledDecodeStep.step = capturing
    try:
        replayed = transformer.greedy_generate(model, prompt, num_new, cache=True,
                                               engine="compiled")
    finally:
        executor.CompiledDecodeStep.step = step
    cached_eager = transformer.greedy_generate(model, prompt, num_new, cache=True, engine="eager")
    uncached = uncached_logits(model, prompt, generated)
    cached = cached_logits[len(prompt) - 1:]
    max_diff = max(float(np.max(np.abs(u - c))) for u, c in zip(uncached, cached))
    return Outcome(
        op_unit="token",
        attempted=sum(len(p) + n - 1 for p, n, _ in outputs),
        failed=sum(len(p) + n - 1 for p, n, g in outputs if len(g) != n),
        approx_mse=lut_quality(fixed_luts(OPERATORS)),
        checks={
            "sample_stream_repeats": replayed == generated,
            "sample_stream_equals_cached_eager": cached_eager == generated,
            "sample_logits_match_uncached_eager": len(cached) == num_new and max_diff <= LOGIT_ATOL,
            "sample_stream_greedy_under_uncached_eager": all(
                u[token] >= u.max() - LOGIT_ATOL for u, token in zip(uncached, generated)),
            "no_retrace_after_setup": stats["compile_count"] == compiles_at_setup,
        },
        counters=counters,
        detail={
            "streams": len(outputs),
            "reference_stream": pick,
            "max_logit_diff_vs_uncached": max_diff,
            "tie_flips_vs_uncached": sum(
                int(np.argmax(u)) != token for u, token in zip(uncached, generated)),
            "compiled_plans": stats["specializations"],
            "generator_lateness": "closed loop (none)",
        },
    )


def uncached_logits(model, prompt, generated) -> list:
    """Last-position logits of uncached eager decode at each generated token,
    fed the given stream: the full causal forward over the prefix, as
    ``greedy_generate(cache=False, engine="eager")`` runs it."""
    from repro.nn.tensor import Tensor, no_grad
    from repro.nn.transformer import encode_tokens

    tokens = list(prompt)
    out = []
    for token in generated:
        with no_grad():
            logits = model(Tensor(encode_tokens(tokens, model.config.vocab_size)[None])).data
        out.append(logits[0, -1])
        tokens.append(token)
    return out
