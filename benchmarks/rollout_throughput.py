"""Measure rollout/update throughput: sequential vs vectorized execution.

Compares the per-episode sequential path (``run_episode``) against the
batched pipeline (``VecAirGroundEnv`` + ``run_vec_episodes`` + array
rollouts) at K in {1, 4, 8} replicas:

* **rollout steps/s** — environment steps collected per wall second,
  policy forwards included (a vec step advances K envs);
* **update minibatch steps/s** — PPO optimizer steps per wall second,
  and the per-sample processing rate, sequential ``update_ugv``/
  ``update_uav`` vs ``update_ugv_vec``/``update_uav_vec``.

Results land in ``BENCH_vecrollout.json`` at the repo root:

    PYTHONPATH=src python benchmarks/rollout_throughput.py

``--quick`` runs a reduced matrix (K in {1, 4}, fewer reps), skips the
JSON write unless ``--write`` is also given, and exits non-zero if the
vectorized rollout at K=4 is slower than the sequential path — the CI
regression gate for the batched pipeline.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.garl import GARLAgent
from repro.core.ippo import run_episode, run_vec_episodes
from repro.core.buffer import VecUAVRollout, VecUGVRollout
from repro.env.vector import VecAirGroundEnv
from repro.experiments import get_preset
from repro.experiments.runner import build_env

REPO_ROOT = Path(__file__).resolve().parents[1]
NUM_UGVS = 4
NUM_UAVS_PER_UGV = 2


def _make_agent(seed: int = 0):
    preset = get_preset("smoke")
    env = build_env("kaist", preset, num_ugvs=NUM_UGVS,
                    num_uavs_per_ugv=NUM_UAVS_PER_UGV, seed=seed)
    return env, GARLAgent(env, preset.garl_config())


def bench_sequential_rollout(reps: int) -> float:
    env, agent = _make_agent()
    rng = np.random.default_rng(0)
    run_episode(env, agent.ugv_policy, agent.uav_policy, rng)  # warmup
    t0 = time.perf_counter()
    for _ in range(reps):
        run_episode(env, agent.ugv_policy, agent.uav_policy, rng)
    dt = time.perf_counter() - t0
    return reps * env.config.episode_len / dt


def bench_vec_rollout(num_envs: int, reps: int) -> float:
    env, agent = _make_agent()
    venv = VecAirGroundEnv.from_env(env, num_envs)
    rng = np.random.default_rng(0)
    run_vec_episodes(venv, agent.ugv_policy, agent.uav_policy, rng)  # warmup
    t0 = time.perf_counter()
    for _ in range(reps):
        run_vec_episodes(venv, agent.ugv_policy, agent.uav_policy, rng)
    dt = time.perf_counter() - t0
    return reps * num_envs * env.config.episode_len / dt


def bench_sequential_update() -> dict:
    env, agent = _make_agent()
    trainer = agent.trainer
    ugv_samples, uav_samples, _, _, _ = trainer.collect(episodes=1)
    trainer.update_ugv(ugv_samples[:8])  # warmup
    ppo = trainer.ppo
    n = len(ugv_samples) + len(uav_samples)
    steps = ppo.epochs * (
        -(-len(ugv_samples) // ppo.minibatch_size)
        + -(-len(uav_samples) // ppo.minibatch_size))
    t0 = time.perf_counter()
    trainer.update_ugv(ugv_samples)
    trainer.update_uav(uav_samples)
    dt = time.perf_counter() - t0
    return {"minibatch_steps_per_s": steps / dt,
            "samples_per_s": ppo.epochs * n / dt}


def bench_vec_update(num_envs: int) -> dict:
    env, agent = _make_agent()
    trainer = agent.trainer
    ugv_roll, uav_roll, _, _, _ = trainer.collect_vec(1, num_envs)
    ppo = trainer.ppo
    ugv_flat = ugv_roll.flat_samples(ppo.gamma, ppo.gae_lambda)
    uav_flat = uav_roll.flat_samples(ppo.gamma, ppo.gae_lambda)
    n = len(ugv_flat) + len(uav_flat)
    steps = ppo.epochs * (
        -(-len(ugv_flat) // ppo.minibatch_size)
        + -(-len(uav_flat) // ppo.minibatch_size))
    t0 = time.perf_counter()
    trainer.update_ugv_vec(ugv_roll)
    trainer.update_uav_vec(uav_roll)
    dt = time.perf_counter() - t0
    return {"minibatch_steps_per_s": steps / dt,
            "samples_per_s": ppo.epochs * n / dt}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="reduced matrix; exit 1 if vec K=4 rollout is "
                             "slower than sequential")
    parser.add_argument("--write", action="store_true",
                        help="write BENCH_vecrollout.json even with --quick")
    args = parser.parse_args(argv)

    reps = 1 if args.quick else 3
    ks = (1, 4) if args.quick else (1, 4, 8)

    seq_sps = bench_sequential_rollout(reps)
    print(f"sequential rollout: {seq_sps:8.1f} steps/s")
    vec_sps = {}
    for k in ks:
        vec_sps[k] = bench_vec_rollout(k, reps)
        print(f"vec rollout K={k}:   {vec_sps[k]:8.1f} steps/s "
              f"({vec_sps[k] / seq_sps:.2f}x)")

    seq_upd = bench_sequential_update()
    vec_upd = bench_vec_update(max(ks))
    print(f"sequential update:  {seq_upd['minibatch_steps_per_s']:8.1f} "
          f"minibatch steps/s ({seq_upd['samples_per_s']:.0f} samples/s)")
    print(f"vec update K={max(ks)}:    {vec_upd['minibatch_steps_per_s']:8.1f} "
          f"minibatch steps/s ({vec_upd['samples_per_s']:.0f} samples/s)")

    results = {
        "preset": "smoke", "campus": "kaist",
        "num_ugvs": NUM_UGVS, "num_uavs_per_ugv": NUM_UAVS_PER_UGV,
        "reps": reps,
        "rollout_steps_per_s": {
            "sequential": round(seq_sps, 1),
            **{f"vec_k{k}": round(v, 1) for k, v in vec_sps.items()},
        },
        "rollout_speedup": {f"k{k}": round(v / seq_sps, 2)
                            for k, v in vec_sps.items()},
        "update": {
            "sequential": {k: round(v, 1) for k, v in seq_upd.items()},
            f"vec_k{max(ks)}": {k: round(v, 1) for k, v in vec_upd.items()},
        },
    }
    if not args.quick or args.write:
        out = REPO_ROOT / "BENCH_vecrollout.json"
        out.write_text(json.dumps(results, indent=2) + "\n")
        print(f"written to {out}")

    if args.quick and vec_sps[4] < seq_sps:
        print(f"FAIL: vec K=4 rollout ({vec_sps[4]:.1f} steps/s) slower than "
              f"sequential ({seq_sps:.1f} steps/s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
