"""Vectorized execution of K independent env replicas.

``VecAirGroundEnv`` owns K :class:`AirGroundEnv` replicas behind a single
``reset(seeds)`` / ``step(batched_actions)`` API.  Observations are
encoded straight into preallocated ``(K, num_agents, ...)`` struct-of-
arrays (:class:`~repro.env.observation.UGVObsArrays` /
``UAVObsArrays``) so the hot path constructs no per-agent dataclasses;
policies consume the batch in one forward.

Semantics chosen for sequential equivalence at K=1:

* Replica ``k`` seeds with :func:`replica_seed` — replica 0 keeps the
  base seed, so a K=1 vec rollout draws the exact rng stream of the
  sequential path.
* Auto-reset on ``done`` calls ``reset_state()`` *without* a seed,
  continuing each replica's rng stream — the same thing a sequential
  trainer's next ``run_episode`` would do.  The step that finishes an
  episode returns the *post-reset* observation (standard VecEnv
  convention); the final pre-reset metrics arrive in
  ``infos[k]["final_metrics"]``.
* Observation arrays are double-buffered: the result of the previous
  ``step``/``reset`` stays valid while the next step encodes, so rollout
  buffers can copy "previous obs + new rewards" after stepping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..obs.scope import counter_add, scope as obs_scope
from .airground import AirGroundEnv
from .metrics import MetricSnapshot
from .observation import UAVObsArrays, UGVObsArrays

__all__ = ["VecAirGroundEnv", "VecStepResult", "replica_seed"]

# Seed stride between replicas.  A large prime keeps replica streams from
# colliding with the small per-method offsets of runner.method_seed.
_REPLICA_SEED_STRIDE = 9973


def replica_seed(seed: int, replica: int) -> int:
    """Seed of env replica ``k`` derived from a base seed.

    Replica 0 keeps the base seed (so K=1 reproduces the sequential
    stream); higher replicas stride by a large prime.  The derivation is a
    pure function of ``(seed, replica)``, which is what keeps results
    reproducible for any K.
    """
    return seed + _REPLICA_SEED_STRIDE * replica


@dataclass
class VecStepResult:
    """Struct-of-arrays result of one vectorized step over K replicas."""

    ugv_obs: UGVObsArrays  # leading dim K
    uav_obs: UAVObsArrays  # leading dim K
    ugv_rewards: np.ndarray  # (K, U)
    uav_rewards: np.ndarray  # (K, V)
    ugv_actionable: np.ndarray  # (K, U) bool — which UGVs act next slot
    dones: np.ndarray  # (K,) bool
    infos: list[dict] = field(default_factory=list)


class VecAirGroundEnv:
    """K independent AirGroundEnv replicas stepped as one batch."""

    def __init__(self, envs: list[AirGroundEnv]):
        if not envs:
            raise ValueError("VecAirGroundEnv needs at least one replica")
        cfg = envs[0].config
        for env in envs[1:]:
            if env.config is not cfg and env.config != cfg:
                raise ValueError("all replicas must share an EnvConfig")
            if env.stops.num_stops != envs[0].stops.num_stops:
                raise ValueError("all replicas must share a stop graph")
        self.envs = envs
        self.config = cfg
        self.num_envs = len(envs)
        self.num_stops = envs[0].num_stops
        k, u, v = self.num_envs, cfg.num_ugvs, cfg.num_uavs
        # Double-buffered observation arrays (see module docstring).
        self._ugv_buffers = [UGVObsArrays.allocate((k,), u, self.num_stops)
                             for _ in range(2)]
        self._uav_buffers = [UAVObsArrays.allocate((k,), v, cfg.uav_obs_size)
                             for _ in range(2)]
        self._parity = 0
        self._needs_reset = np.ones(k, dtype=bool)

    @classmethod
    def from_env(cls, env: AirGroundEnv, num_envs: int) -> "VecAirGroundEnv":
        """Build K replicas sharing ``env``'s campus/stops/builder.

        ``env`` itself becomes replica 0, so its seed and rng stream are
        preserved — a K=1 vec env is *the same environment*.
        """
        envs = [env]
        for k in range(1, num_envs):
            envs.append(AirGroundEnv(env.campus, env.config, stops=env.stops,
                                     seed=replica_seed(env._seed, k),
                                     data_weights=env._data_weights,
                                     builder=env.builder))
        return cls(envs)

    # ------------------------------------------------------------------
    def _next_buffers(self) -> tuple[UGVObsArrays, UAVObsArrays]:
        self._parity ^= 1
        return self._ugv_buffers[self._parity], self._uav_buffers[self._parity]

    def reset(self, seeds: list[int] | np.ndarray | None = None) -> VecStepResult:
        """Reset every replica; ``seeds`` reseeds per replica when given."""
        if seeds is not None and len(seeds) != self.num_envs:
            raise ValueError(f"expected {self.num_envs} seeds, got {len(seeds)}")
        cfg = self.config
        ugv_obs, uav_obs = self._next_buffers()
        actionable = np.zeros((self.num_envs, cfg.num_ugvs), dtype=bool)
        with obs_scope("env/reset"):
            for k, env in enumerate(self.envs):
                env.reset_state(None if seeds is None else int(seeds[k]))
                env.encode_observations(ugv_obs, uav_obs, k)
                actionable[k] = env._actionable()
        self._needs_reset[:] = False
        return VecStepResult(
            ugv_obs=ugv_obs, uav_obs=uav_obs,
            ugv_rewards=np.zeros((self.num_envs, cfg.num_ugvs)),
            uav_rewards=np.zeros((self.num_envs, cfg.num_uavs)),
            ugv_actionable=actionable,
            dones=np.zeros(self.num_envs, dtype=bool),
            infos=[{} for _ in self.envs])

    def step(self, ugv_actions: np.ndarray, uav_actions: np.ndarray,
             reset_on_done: bool = True) -> VecStepResult:
        """Step all replicas; auto-reset finished ones (per-replica).

        Parameters
        ----------
        ugv_actions:
            ``(K, U)`` ints; rows for waiting UGVs are ignored.
        uav_actions:
            ``(K, V, 2)`` movement deltas in metres; rows for docked UAVs
            are ignored.
        reset_on_done:
            With False a finishing replica is left in its terminal state
            (marked pending-reset) instead of auto-resetting — used by
            rollout drivers on the final step of a collect window so the
            per-replica rng streams match sequential episode boundaries.
        """
        if self._needs_reset.any():
            raise RuntimeError("replicas finished without auto-reset; call reset()")
        cfg = self.config
        ugv_actions = np.asarray(ugv_actions, dtype=int)
        uav_actions = np.asarray(uav_actions, dtype=float)
        if ugv_actions.shape != (self.num_envs, cfg.num_ugvs):
            raise ValueError(f"expected UGV actions of shape "
                             f"{(self.num_envs, cfg.num_ugvs)}, got {ugv_actions.shape}")
        if uav_actions.shape != (self.num_envs, cfg.num_uavs, 2):
            raise ValueError(f"expected UAV actions of shape "
                             f"{(self.num_envs, cfg.num_uavs, 2)}, got {uav_actions.shape}")

        ugv_obs, uav_obs = self._next_buffers()
        ugv_rewards = np.zeros((self.num_envs, cfg.num_ugvs))
        uav_rewards = np.zeros((self.num_envs, cfg.num_uavs))
        actionable = np.zeros((self.num_envs, cfg.num_ugvs), dtype=bool)
        dones = np.zeros(self.num_envs, dtype=bool)
        infos: list[dict] = []
        with obs_scope("env/step"):
            for k, env in enumerate(self.envs):
                ugv_r, uav_r, done, collected = env.step_dynamics(
                    ugv_actions[k], uav_actions[k])
                ugv_rewards[k] = ugv_r
                uav_rewards[k] = uav_r
                dones[k] = done
                info = {"t": env.t, "collected_this_step": collected}
                if done:
                    info["final_metrics"] = env.metrics()
                    if reset_on_done:
                        env.reset_state()  # unseeded: continue the rng stream
                    else:
                        self._needs_reset[k] = True
                infos.append(info)
                env.encode_observations(ugv_obs, uav_obs, k)
                actionable[k] = env._actionable()
        counter_add("env/steps", self.num_envs)
        if dones.any():
            counter_add("env/episodes", int(dones.sum()))
        return VecStepResult(ugv_obs=ugv_obs, uav_obs=uav_obs,
                             ugv_rewards=ugv_rewards, uav_rewards=uav_rewards,
                             ugv_actionable=actionable, dones=dones, infos=infos)

    # ------------------------------------------------------------------
    def rng_states(self) -> list[dict]:
        """Per-replica rng snapshots (replica 0 first).

        Captured at collect-window boundaries, these pin down every
        replica's continuation stream — including the ``replica_seed``
        striding baked into each replica's ``_seed`` and the auto-reset
        continuation position (auto-resets are unseeded, so the stream
        position encodes them).
        """
        return [env.rng_state() for env in self.envs]

    def set_rng_states(self, states: list[dict]) -> None:
        """Restore snapshots captured by :meth:`rng_states`."""
        if len(states) != self.num_envs:
            raise ValueError(f"expected {self.num_envs} rng states, "
                             f"got {len(states)}")
        for env, state in zip(self.envs, states):
            env.set_rng_state(state)

    def state_digests(self) -> list[str]:
        """Per-replica state digests (see ``AirGroundEnv.state_digest``).

        Replica order is part of the contract: ``repro check-determinism``
        compares these positionally, so a replica swap shows up as a diff
        even when the multiset of replica states matches.
        """
        return [env.state_digest() for env in self.envs]

    # ------------------------------------------------------------------
    def metrics(self) -> MetricSnapshot:
        """Batched reduction: mean of every replica's current metrics."""
        return MetricSnapshot.mean(env.metrics() for env in self.envs)

    def metrics_per_env(self) -> list[MetricSnapshot]:
        """Each replica's current metrics, in replica order."""
        return [env.metrics() for env in self.envs]
