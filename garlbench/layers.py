"""The layer table: which public call of the program each layer metric times.

:func:`install` wraps those calls (see the README's layer table) with
:func:`tracing.timed`; :func:`train_metrics` and :func:`serve_metrics`
turn the recorded spans into the per-layer metrics.  Layer times are
totals per unit of work — per training iteration for the train
workloads, per engine request for serve-http — unless the name says
``_s`` (seconds per call) or the README marks the metric per call.
A layer a workload never enters reports 0.
"""

from __future__ import annotations

import bisect
import statistics
import time

from .tracing import Patcher, SpanRecorder, root_of, rollup, timed

__all__ = ["PER_LAYER", "install", "train_metrics", "serve_metrics"]

#: Every per-layer metric with its unit, in report order.
PER_LAYER = {
    "runner.build_agent_s": "s",
    "maps.build_campus_s": "s",
    "maps.build_stop_graph_s": "s",
    "ippo.collect_ms": "ms",
    "ippo.collect_self_ms": "ms",
    "env.step_calls": "count",
    "env.step_ms": "ms",
    "buffer.gae_ms": "ms",
    "ippo.update_ugv_ms": "ms",
    "ippo.update_ugv_self_ms": "ms",
    "ippo.update_uav_ms": "ms",
    "policies.ugv_forward_rollout_ms": "ms",
    "policies.ugv_forward_update_ms": "ms",
    "policies.ugv_rows_per_call": "rows",
    "policies.uav_forward_ms": "ms",
    "policies.uav_rows_per_call": "rows",
    "mc_gcn.forward_calls": "count",
    "mc_gcn.forward_ms": "ms",
    "ecomm.forward_calls": "count",
    "ecomm.forward_ms": "ms",
    "nn.backward_calls": "count",
    "nn.backward_ms": "ms",
    "nn.adam_step_ms": "ms",
    "nn.clip_grad_ms": "ms",
    "nn.ops_per_iter": "count",
    "nn.elems_per_op": "count",
    "ippo.ugv_samples": "count",
    "ippo.uav_samples": "count",
    "ippo.minibatches": "count",
    "rollout.actionable_share": "ratio",
    "artifact.load_s": "s",
    "artifact.warmup_s": "s",
    "engine.latency_ms": "ms",
    "engine.queue_wait_ms": "ms",
    "engine.batches": "count",
    "engine.requests_per_batch": "count",
    "engine.solo_batch_share": "ratio",
    "artifact.ugv_forward_ms": "ms",
    "artifact.ugv_rows_per_call": "rows",
    "artifact.uav_forward_ms": "ms",
    "artifact.uav_padded_row_share": "ratio",
    "service.http_self_ms": "ms",
    "loadgen.client_ms": "ms",
    "trace.overhead_share": "ratio",
}


def _rows(arg_index: int, size):
    return lambda args, kwargs, result: {"rows": int(size(args[arg_index]))}


def _samples(kind: str):
    return lambda args, kwargs, result: {"kind": kind, "samples": len(result)}


def _uav_rows(args, kwargs, result):
    policy, grids = args[0], args[1]
    n = int(len(grids))
    return {"rows": n, "padded": int(policy._uav_bucket(n))}


def install(recorder: SpanRecorder, patcher: Patcher,
            engines: list | None = None) -> None:
    """Wrap every layer's public calls; ``patcher.restore()`` undoes it.

    ``engines`` (when given) collects each :class:`InferenceEngine` that
    receives a request, so its own counters can be read at exit.
    """
    from repro.core import ecomm, ippo, mc_gcn, policies
    from repro.core.buffer import (UAVRollout, UGVRollout, VecUAVRollout,
                                   VecUGVRollout)
    from repro.env.airground import AirGroundEnv
    from repro.env.vector import VecAirGroundEnv
    from repro.experiments import runner
    from repro.nn.optim import Adam
    from repro.nn.tensor import Tensor
    from repro.serve import artifact, engine, service

    def t(name, attrs=None):
        return lambda fn: timed(recorder, name, fn, attrs)

    w = patcher.wrap
    w(runner, "build_agent", t("runner.build_agent"))
    w(artifact, "build_agent", t("runner.build_agent"))
    w(runner, "build_campus", t("maps.build_campus"))
    w(runner, "build_stop_graph", t("maps.build_stop_graph"))
    Trainer = ippo.IPPOTrainer
    w(Trainer, "collect", t("ippo.collect"))
    w(Trainer, "collect_vec", t("ippo.collect"))
    w(Trainer, "update_ugv", t("ippo.update_ugv"))
    w(Trainer, "update_ugv_vec", t("ippo.update_ugv"))
    w(Trainer, "update_uav", t("ippo.update_uav"))
    w(Trainer, "update_uav_vec", t("ippo.update_uav"))
    w(AirGroundEnv, "step", t("env.step"))
    w(VecAirGroundEnv, "step", t("env.step"))
    w(UGVRollout, "build_samples", t("buffer.gae", _samples("ugv")))
    w(VecUGVRollout, "flat_samples", t("buffer.gae", _samples("ugv")))
    w(UAVRollout, "build_samples", t("buffer.gae", _samples("uav")))
    w(VecUAVRollout, "flat_samples", t("buffer.gae", _samples("uav")))
    w(policies.UGVPolicy, "forward", t("policies.ugv_forward",
                                       _rows(1, lambda obs: 1)))
    w(policies.UGVPolicy, "forward_batched", t(
        "policies.ugv_forward", _rows(1, lambda obs: obs.stop_features.shape[0])))
    w(policies.UAVPolicy, "forward", t("policies.uav_forward", _rows(1, len)))
    w(policies.UAVPolicy, "forward_arrays", t("policies.uav_forward",
                                              _rows(1, len)))
    w(mc_gcn.MCGCN, "forward", t("mc_gcn.forward"))
    w(mc_gcn.MCGCN, "forward_batch", t("mc_gcn.forward"))
    w(ecomm.EComm, "forward", t("ecomm.forward"))
    w(ecomm.EComm, "forward_batch", t("ecomm.forward"))
    w(Tensor, "backward", t("nn.backward"))
    w(Adam, "step", t("nn.adam_step"))
    w(ippo, "clip_grad_norm", t("nn.clip_grad"))
    w(service, "load_artifact", t("artifact.load"))
    w(artifact.FrozenPolicy, "warmup", t("artifact.warmup"))
    w(artifact.FrozenPolicy, "ugv_forward", t(
        "artifact.ugv_forward", _rows(1, lambda obs: obs.stop_features.shape[0])))
    w(artifact.FrozenPolicy, "uav_forward", t("artifact.uav_forward", _uav_rows))
    w(engine.InferenceEngine, "submit",
      lambda fn: _traced_submit(recorder, fn, engines))

    def count_tensors(init):
        def __init__(self, *args, **kwargs):
            init(self, *args, **kwargs)
            recorder.count(self.data.size)
        return __init__
    w(Tensor, "__init__", count_tensors)


def _traced_submit(recorder: SpanRecorder, submit, engines):
    """Record each engine request from submit to its future's completion.

    The request id is ``"<session seed>:<n>"``, the n-th request on that
    session's rng — the same id the load generator gives its request, so
    client and engine spans of one request can be joined.
    """
    per_session: dict[int, int] = {}

    def wrapper(self, *args, **kwargs):
        if engines is not None and not any(e is self for e in engines):
            engines.append(self)
        kind = args[0] if args else kwargs["kind"]
        rng = kwargs.get("rng")
        start = time.perf_counter()
        future = submit(self, *args, **kwargs)
        rid = None
        if rng is not None:
            n = per_session.get(id(rng), 0)
            per_session[id(rng)] = n + 1
            rid = f"{rng.bit_generator.seed_seq.entropy}:{n}"

        def done(fut) -> None:
            end = time.perf_counter()
            attrs = {"kind": kind}
            if fut.cancelled() or fut.exception() is not None:
                attrs["failed"] = True
            else:
                attrs["batch_size"] = int(fut.result().batch_size)
            recorder.add("engine.request", start, end, rid=rid, attrs=attrs)

        future.add_done_callback(done)
        return future
    return wrapper


# ----------------------------------------------------------------------
# Metrics from spans
# ----------------------------------------------------------------------

def _has_ancestor(span, by_id, name: str) -> bool:
    p = span.parent
    while p is not None and p in by_id:
        if by_id[p].name == name:
            return True
        p = by_id[p].parent
    return False


def _outermost(spans, name: str, by_id):
    return [s for s in spans if s.name == name
            and not _has_ancestor(s, by_id, name)]


def _mean(values) -> float:
    values = list(values)
    return float(statistics.fmean(values)) if values else 0.0


def _zeros() -> dict[str, float]:
    return {name: 0.0 for name in PER_LAYER}


def train_metrics(spans, counts: dict, iterations: int,
                  ugv_agent_steps: int) -> dict[str, float]:
    """Per-iteration layer metrics of one traced training run.

    ``spans`` must hold a ``bench.setup`` root around agent construction
    and a ``bench.train`` root around ``agent.train``; ``ugv_agent_steps``
    is K × T × episodes × U per iteration (the actionable-share base).
    """
    by_id = {s.id: s for s in spans}
    train = [s for s in spans if root_of(s, by_id).name == "bench.train"]
    setup = [s for s in spans if root_of(s, by_id).name == "bench.setup"]
    r = rollup(train)
    n = float(iterations)
    out = _zeros()

    def per_iter_ms(name: str, self_time: bool = False) -> float:
        roll = r.get(name)
        if roll is None:
            return 0.0
        return (roll.self_total if self_time else roll.total) * 1e3 / n

    def per_iter_calls(name: str) -> float:
        roll = r.get(name)
        return roll.count / n if roll else 0.0

    for name, key in (("runner.build_agent", "runner.build_agent_s"),
                      ("maps.build_campus", "maps.build_campus_s"),
                      ("maps.build_stop_graph", "maps.build_stop_graph_s")):
        out[key] = _mean(s.duration for s in setup if s.name == name)
    out["ippo.collect_ms"] = per_iter_ms("ippo.collect")
    out["ippo.collect_self_ms"] = per_iter_ms("ippo.collect", self_time=True)
    out["env.step_calls"] = per_iter_calls("env.step")
    out["env.step_ms"] = per_iter_ms("env.step")
    out["buffer.gae_ms"] = per_iter_ms("buffer.gae")
    out["ippo.update_ugv_ms"] = per_iter_ms("ippo.update_ugv")
    out["ippo.update_ugv_self_ms"] = per_iter_ms("ippo.update_ugv", self_time=True)
    out["ippo.update_uav_ms"] = per_iter_ms("ippo.update_uav")

    ugv_fwd = _outermost(train, "policies.ugv_forward", by_id)
    out["policies.ugv_forward_rollout_ms"] = sum(
        s.duration for s in ugv_fwd
        if _has_ancestor(s, by_id, "ippo.collect")) * 1e3 / n
    out["policies.ugv_forward_update_ms"] = sum(
        s.duration for s in ugv_fwd
        if _has_ancestor(s, by_id, "ippo.update_ugv")) * 1e3 / n
    out["policies.ugv_rows_per_call"] = _mean(s.attrs["rows"] for s in ugv_fwd)
    uav_fwd = _outermost(train, "policies.uav_forward", by_id)
    out["policies.uav_forward_ms"] = per_iter_ms("policies.uav_forward")
    out["policies.uav_rows_per_call"] = _mean(s.attrs["rows"] for s in uav_fwd)

    for layer in ("mc_gcn.forward", "ecomm.forward", "nn.backward"):
        out[f"{layer}_calls"] = per_iter_calls(layer)
        out[f"{layer}_ms"] = per_iter_ms(layer)
    out["nn.adam_step_ms"] = per_iter_ms("nn.adam_step")
    out["nn.clip_grad_ms"] = per_iter_ms("nn.clip_grad")
    tensors, elements = counts.get("bench.train", (0, 0))
    out["nn.ops_per_iter"] = tensors / n
    out["nn.elems_per_op"] = elements / tensors if tensors else 0.0

    # UGV GAE runs once per iteration (in collect, or inside the vec
    # update); the vec UAV update recomputes the flat batch collect
    # already built, so UAV samples are counted under collect only.
    gae = [s for s in train if s.name == "buffer.gae" and s.attrs]
    ugv_samples = sum(s.attrs["samples"] for s in gae if s.attrs["kind"] == "ugv")
    uav_samples = sum(s.attrs["samples"] for s in gae if s.attrs["kind"] == "uav"
                      and _has_ancestor(s, by_id, "ippo.collect"))
    out["ippo.ugv_samples"] = ugv_samples / n
    out["ippo.uav_samples"] = uav_samples / n
    out["ippo.minibatches"] = per_iter_calls("nn.adam_step")
    out["rollout.actionable_share"] = ugv_samples / (ugv_agent_steps * n)
    return out


def serve_metrics(spans, counts: dict, engine_stats: dict, max_wait_s: float,
                  client: list[dict]) -> dict[str, float]:
    """Per-request layer metrics of one traced serve run.

    ``spans`` come from the server process, ``client`` holds the load
    generator's answered requests (``rid``, ``latency_s``, ``client_s``).
    """
    by_id = {s.id: s for s in spans}
    requests = [s for s in spans if s.name == "engine.request"
                and not (s.attrs or {}).get("failed")]
    served = max(1, len(requests))
    # Engine-thread forwards are the outermost artifact forwards; the
    # load-time probe forwards run nested under artifact.load.
    forwards = {kind: sorted((s for s in spans if s.parent is None
                              and s.name == f"artifact.{kind}_forward"),
                             key=lambda s: s.start)
                for kind in ("ugv", "uav")}
    engine_roots = {s.id for fw in forwards.values() for s in fw}
    in_engine = [s for s in spans if root_of(s, by_id).id in engine_roots]
    r = rollup(in_engine)
    out = _zeros()

    for name, key in (("runner.build_agent", "runner.build_agent_s"),
                      ("maps.build_campus", "maps.build_campus_s"),
                      ("maps.build_stop_graph", "maps.build_stop_graph_s"),
                      ("artifact.load", "artifact.load_s"),
                      ("artifact.warmup", "artifact.warmup_s")):
        out[key] = _mean(s.duration for s in spans if s.name == name)

    starts = {kind: [s.start for s in fw] for kind, fw in forwards.items()}
    waits, solo = [], 0
    for req in requests:
        kind = req.attrs["kind"]
        i = bisect.bisect_left(starts[kind], req.start)
        if i < len(starts[kind]):
            wait = starts[kind][i] - req.start
            waits.append(wait)
            if req.attrs.get("batch_size") == 1 and wait >= max_wait_s:
                solo += 1
    out["engine.latency_ms"] = _mean(s.duration for s in requests) * 1e3
    out["engine.queue_wait_ms"] = _mean(waits) * 1e3
    batches = int(engine_stats.get("batches", 0))
    out["engine.batches"] = float(batches)
    out["engine.requests_per_batch"] = (engine_stats.get("completed", 0) / batches
                                        if batches else 0.0)
    n_forwards = sum(len(fw) for fw in forwards.values())
    out["engine.solo_batch_share"] = solo / n_forwards if n_forwards else 0.0

    ugv, uav = forwards["ugv"], forwards["uav"]
    out["artifact.ugv_forward_ms"] = _mean(s.duration for s in ugv) * 1e3
    out["artifact.ugv_rows_per_call"] = _mean(s.attrs["rows"] for s in ugv)
    out["artifact.uav_forward_ms"] = _mean(s.duration for s in uav) * 1e3
    padded = sum(s.attrs["padded"] for s in uav)
    out["artifact.uav_padded_row_share"] = (
        (padded - sum(s.attrs["rows"] for s in uav)) / padded if padded else 0.0)

    out["policies.ugv_rows_per_call"] = _mean(
        s.attrs["rows"] for s in _outermost(in_engine, "policies.ugv_forward", by_id))
    out["policies.uav_rows_per_call"] = _mean(
        s.attrs["rows"] for s in _outermost(in_engine, "policies.uav_forward", by_id))
    for layer in ("mc_gcn.forward", "ecomm.forward"):
        roll = r.get(layer)
        out[f"{layer}_calls"] = roll.count / served if roll else 0.0
        out[f"{layer}_ms"] = roll.total * 1e3 / served if roll else 0.0
    tensors = sum(counts.get(f"artifact.{k}_forward", (0, 0))[0]
                  for k in ("ugv", "uav"))
    elements = sum(counts.get(f"artifact.{k}_forward", (0, 0))[1]
                   for k in ("ugv", "uav"))
    out["nn.ops_per_iter"] = tensors / served
    out["nn.elems_per_op"] = elements / tensors if tensors else 0.0

    engine_by_rid = {s.rid: s.duration for s in requests if s.rid is not None}
    http_self = [c["latency_s"] - engine_by_rid[c["rid"]] for c in client
                 if c["rid"] in engine_by_rid]
    out["service.http_self_ms"] = _mean(http_self) * 1e3
    out["loadgen.client_ms"] = _mean(c["client_s"] for c in client) * 1e3
    return out
