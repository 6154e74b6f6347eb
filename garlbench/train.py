"""The train-k1 and train-k8 workloads: fixed-work GARL training runs.

One run builds the agent once per iteration plus twice (``setup_s`` is
the median), trains the second build for a fixed number of iterations
through ``agent.train`` — the call ``run_training`` makes — and evaluates
it for a fixed number of stochastic episodes, as ``run_training`` does
after training.  The work is fixed by ``--seconds`` and the seed, never
by the clock: a time box would cover different iterations, whose sample
counts differ, on every run.

The evaluation episodes supply the per-decision latencies
(``ugv_*``/``uav_*``): each is one ``UGVPolicy.forward`` or
``UAVPolicy.forward`` call at batch one with no tape, the in-process
twin of a served request.  They are timed in the calling thread's CPU
time: a 4 ms forward's p99 is otherwise decided by how often the
hypervisor preempts the vCPU, not by the program.  Each is bracketed by
two :func:`host.quiet_probe` timings, and their p50 is the median of the
decisions whose probes show a quiet host (:func:`stats.quiet_median`).
Enough episodes run for a p99 with ten samples beyond it.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from contextlib import nullcontext
from pathlib import Path

from .host import cpu_rotation, peak_rss_mb, quiet_probe
from .layers import install, train_metrics
from .stats import blocked_tail, median, quiet_median
from .tracing import Patcher, SpanRecorder

__all__ = ["run_train", "plan"]

PRESET = "smoke"
CAMPUS = "kaist"
NUM_UGVS = 4
NUM_UAVS_PER_UGV = 2
# Iteration wall time of each workload on the reference host (2 vCPU,
# OpenBLAS 2 threads); only used to turn --seconds into an iteration count.
NOMINAL_ITER_S = {1: 1.8, 8: 1.6}
# Evaluation episodes per requested second (60 at 25 s: >1000 decisions
# of each kind, so p99 has ten samples beyond it).
EVAL_EPISODES_PER_S = 2.4


def plan(num_envs: int, seconds: float) -> tuple[int, int]:
    """``(iterations, eval episodes)`` for a run of ``seconds``."""
    iterations = max(2, round(seconds / NOMINAL_ITER_S[num_envs]))
    return iterations, max(2, math.ceil(seconds * EVAL_EPISODES_PER_S))


def _digest(agent, snapshot, samples: dict) -> str:
    blob = {"history": [[r.iteration, r.metrics, r.ugv_reward, r.uav_reward,
                         r.losses] for r in agent.trainer.history],
            "eval": snapshot.as_dict(), "samples": samples}
    return hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()


def _sample_counters(patcher: Patcher, samples: dict) -> None:
    """Count PPO samples at the update calls (four calls per iteration)."""
    from repro.core.ippo import IPPOTrainer

    def counted(key: str, size):
        def make(fn):
            def wrapper(self, batch, *args, **kwargs):
                samples[key] += int(size(batch))
                return fn(self, batch, *args, **kwargs)
            return wrapper
        return make

    patcher.wrap(IPPOTrainer, "update_ugv", counted("ugv", len))
    patcher.wrap(IPPOTrainer, "update_ugv_vec", counted(
        "ugv", lambda roll: roll.actionable[:, :len(roll)].sum()))
    patcher.wrap(IPPOTrainer, "update_uav", counted("uav", len))
    patcher.wrap(IPPOTrainer, "update_uav_vec", counted(
        "uav", lambda roll: roll.num_transitions))


def _decision_timers(patcher: Patcher, decisions: dict, on: list) -> None:
    """Time decision forwards in the calling thread's CPU time while
    ``on[0]`` is true, each as a ``(probe, forward, probe)`` triple
    appended to its kind's list."""
    from repro.core.policies import UAVPolicy, UGVPolicy

    def timer(key: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                if not on[0]:
                    return fn(*args, **kwargs)
                before = quiet_probe()
                t0 = time.thread_time()
                out = fn(*args, **kwargs)
                elapsed = time.thread_time() - t0
                decisions[key].append((before, elapsed, quiet_probe()))
                return out
            return wrapper
        return make

    patcher.wrap(UGVPolicy, "forward", timer("ugv"))
    patcher.wrap(UAVPolicy, "forward", timer("uav"))


def _once(num_envs: int, seed: int, iterations: int, episodes: int,
          recorder: SpanRecorder | None) -> dict:
    """One setup + train + evaluate pass; returns raw measurements.

    The decision episodes run on the first agent built (untrained: a
    forward costs the same whatever the weights), so the trained agent's
    rng streams and digest do not depend on them.  Untraced, they are
    spread over the run — a share after every iteration, excluded from
    the iteration times — because the host's speed drifts within
    seconds and a single block of decisions would sample one moment of
    it.  The extra agent builds are spread over the run the same way.
    Traced, both run after training, outside the train spans.  The first
    two builds, and each iteration with what follows it, run on the next
    CPU in turn (:func:`host.cpu_rotation`).
    """
    from repro.experiments import runner
    from repro.experiments.presets import get_preset

    def root(name: str):
        return recorder.span(name) if recorder is not None else nullcontext()

    preset = get_preset(PRESET)
    with cpu_rotation() as next_cpu:
        setup = []

        def build():
            runner.campus_cache_clear()  # setup_s includes campus + stop graph
            t0 = time.perf_counter()
            with root("bench.setup"):
                built = runner.build_agent("garl", CAMPUS, preset, NUM_UGVS,
                                           NUM_UAVS_PER_UGV, seed)
            setup.append(time.perf_counter() - t0)
            return built

        next_cpu()
        evaluator = build()
        next_cpu()
        agent = build()

        samples = {"ugv": 0, "uav": 0}
        decisions: dict[str, list[tuple]] = {"ugv": [], "uav": []}
        timing = [False]
        share, extra = divmod(episodes, iterations)
        interleave = recorder is None
        starts, stamps = [], []

        def decide(n: int) -> None:
            timing[0] = True
            try:
                evaluator.evaluate(episodes=n, greedy=False)
            finally:
                timing[0] = False

        def callback(record) -> None:
            stamps.append(time.perf_counter())
            next_cpu()
            if interleave:
                decide(share + (len(stamps) <= extra))
                build()
            starts.append(time.perf_counter())

        with Patcher() as patcher:
            _sample_counters(patcher, samples)
            _decision_timers(patcher, decisions, timing)
            starts.append(time.perf_counter())
            with root("bench.train"):
                agent.train(iterations, preset.episodes_per_iteration,
                            callback=callback, num_envs=num_envs)
            if not interleave:
                with root("bench.eval"):
                    decide(episodes)
                for _ in range(iterations):
                    build()
    iter_s = [b - a for a, b in zip(starts, stamps)]
    snapshot = agent.evaluate(episodes=preset.eval_episodes, greedy=False)

    bad = sum(not all(math.isfinite(v) for v in r.losses.values())
              for r in agent.trainer.history)
    return {
        "setup": setup,
        "iter_s": iter_s,
        "train_wall": sum(iter_s),
        "samples": samples,
        "decisions": decisions,
        "eval": snapshot.as_dict(),
        "bad_iterations": bad,
        "finite": bad == 0
        and all(math.isfinite(v) for v in snapshot.as_dict().values()),
        "digest": _digest(agent, snapshot, samples),
        "env_steps": (num_envs * preset.episode_len
                      * preset.episodes_per_iteration * iterations),
        "ugv_agent_steps": (num_envs * preset.episode_len
                            * preset.episodes_per_iteration * NUM_UGVS),
    }


def _ms(p) -> float | None:
    return None if p is None else p.value * 1e3


def run_train(num_envs: int, seed: int, seconds: float, trace: bool,
              state_dir: Path, source_digest: str) -> dict:
    """Run the workload; returns metrics, counts, checks and the record."""
    iterations, episodes = plan(num_envs, seconds)
    base = _once(num_envs, seed, iterations, episodes, None)
    checks = [("losses and eval metrics are finite", base["finite"], "")]
    checks.append(_check_repeat(state_dir, f"train-k{num_envs}", seed,
                                iterations, episodes, source_digest,
                                base["digest"]))
    checks.append(("every iteration trained on UGV samples",
                   base["samples"]["ugv"] > 0 and len(base["iter_s"]) == iterations,
                   f"samples={base['samples']}"))
    record = {"iterations": iterations, "eval_episodes": episodes,
              "digest": base["digest"], "samples": base["samples"],
              "eval_metrics": base["eval"],
              "iter_ms": [round(s * 1e3, 3) for s in base["iter_s"]],
              "setup_s": [round(s, 4) for s in base["setup"]],
              "decisions": {k: len(v) for k, v in base["decisions"].items()}}

    if not trace:
        wall = base["train_wall"]
        decisions = base["decisions"]
        quiet = {k: quiet_median(v) for k, v in decisions.items()}
        lat = {k: [x for _, x, _ in v] for k, v in decisions.items()}
        metrics = {
            "setup_s": median(base["setup"]).value,
            "peak_rss_mb": peak_rss_mb(),
            "iter_p50_ms": median(base["iter_s"]).value * 1e3,
            "steps_per_s": base["env_steps"] / wall,
            "throughput_per_s": (base["samples"]["ugv"]
                                 + base["samples"]["uav"]) / wall,
            "ugv_p50_ms": _ms(quiet["ugv"]),
            "ugv_p99_ms": _ms(blocked_tail(lat["ugv"], 99)),
            "uav_p50_ms": _ms(quiet["uav"]),
            "uav_p99_ms": _ms(blocked_tail(lat["uav"], 99)),
        }
        record["sample_counts"] = {"iter_p50_ms": iterations,
                                   "ugv": len(lat["ugv"]), "uav": len(lat["uav"]),
                                   "ugv_p50_quiet": quiet["ugv"].n,
                                   "uav_p50_quiet": quiet["uav"].n}
        return {"metrics": metrics, "attempted": iterations,
                "failed": base["bad_iterations"], "checks": checks,
                "record": record}

    recorder = SpanRecorder()
    with Patcher() as patcher:
        install(recorder, patcher)
        traced = _once(num_envs, seed, iterations, episodes, recorder)
    checks.append(("traced run reproduces the untraced digest",
                   traced["digest"] == base["digest"],
                   f"{traced['digest']} vs {base['digest']}"))
    metrics = train_metrics(recorder.spans, recorder.counts(), iterations,
                            base["ugv_agent_steps"])
    metrics["trace.overhead_share"] = traced["train_wall"] / base["train_wall"] - 1
    record["traced_train_wall_s"] = traced["train_wall"]
    record["untraced_train_wall_s"] = base["train_wall"]
    record["spans"] = len(recorder.spans)
    return {"metrics": metrics, "attempted": 2 * iterations,
            "failed": base["bad_iterations"] + traced["bad_iterations"],
            "checks": checks, "record": record, "spans": recorder.spans}


def _check_repeat(state_dir: Path, workload: str, seed: int, iterations: int,
                  episodes: int, source_digest: str, digest: str):
    """Compare with the digest an earlier run of the same work recorded."""
    path = state_dir / "digests.json"
    key = f"{workload}|seed={seed}|iterations={iterations}|episodes={episodes}"
    try:
        store = json.loads(path.read_text())
    except (OSError, ValueError):
        store = {}
    if store.get("source") != source_digest:
        store = {"source": source_digest, "runs": {}}
    previous = store["runs"].get(key)
    if previous is None:
        store["runs"][key] = digest
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
        tmp.replace(path)
        return ("same seed gives the same digest", True, "first run of this seed")
    return ("same seed gives the same digest", previous == digest,
            f"{digest} vs earlier {previous}")
