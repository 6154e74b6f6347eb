"""The serve-http workload: closed-loop load on a real ``repro serve``.

Set-up exports an artifact from a seeded one-iteration smoke checkpoint
(serving cost depends on shapes, not weights), records observations
from the real environment, and spawns the service :data:`SETUP_SPAWNS`
times at its defaults; ``setup_s`` is the median time from spawn to its
ready file (artifact verification plus warm-up).  The middle process
serves the load; the others start before and after it, so the set-up
samples are spread over the run as the host's speed drifts.

Load is :data:`STREAMS` closed-loop scenario streams on one asyncio
thread, one keep-alive npz connection each.  A stream walks the recorded
timesteps: a UGV request per timestep plus a UAV request when UAVs are
airborne, each sent only after the previous answer arrived, as a
dispatch client that steps its simulator on the answer would.  The
first :data:`WARMUP_S` seconds are not measured.

The run ends with greedy probe requests whose actions and values must
equal, bit for bit, a direct forward of the exported policy; it also
requires every answer to be a 200 and the SIGTERM drain to exit 0.
"""

from __future__ import annotations

import asyncio
import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from .host import vm_hwm_mb
from .layers import serve_metrics
from .stats import blocked_tail, median
from .tracing import read_chrome_trace

__all__ = ["run_serve"]

SETUP_SPAWNS = 9
STREAMS = 2
WARMUP_S = 1.0
POOL_EPISODES = 16
PROBES = 8
SESSION_SEED_BASE = 1000
# Upper end of the uniform think time between a stream's timesteps (the
# order of one env step); without it the two closed loops lock into
# whatever relative phase they start in, and that phase decides which
# requests share a batch and so each kind's p50.
THINK_MAX_S = 0.002
PROBE_SESSION_SEED = 999
_UGV_FIELDS = ("stop_features", "ugv_positions", "ugv_stops", "action_mask")


class ServeError(RuntimeError):
    """The service could not be started or stopped as expected."""


def _make_artifact(workdir: Path, seed: int) -> Path:
    from repro.experiments.runner import run_training
    from repro.serve.artifact import export_artifact

    run_dir = workdir / "run"
    run_training("garl", "kaist", "smoke", seed=seed, train_iterations=1,
                 checkpoint_dir=run_dir, save_every=1, handle_signals=False)
    return export_artifact(run_dir, workdir / "artifact")


def _npz(arrays: dict) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


class Server:
    """One service process, from spawn to a verified SIGTERM drain."""

    def __init__(self, argv: list[str], root: Path, workdir: Path, tag: str):
        self.ready = workdir / f"ready-{tag}"
        self.ready.unlink(missing_ok=True)
        self.log = workdir / f"server-{tag}.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(root)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        with open(self.log, "wb") as log:
            t0 = time.perf_counter()
            self.proc = subprocess.Popen(
                argv + ["--ready-file", str(self.ready)], cwd=root, env=env,
                stdout=log, stderr=subprocess.STDOUT)
        deadline = t0 + 120.0
        while True:
            text = self.ready.read_text() if self.ready.exists() else ""
            if len(text.split()) == 2:
                break
            if self.proc.poll() is not None:
                raise ServeError(f"service exited {self.proc.returncode}:\n"
                                 f"{self.log.read_text()}")
            if time.perf_counter() > deadline:
                self.kill()
                raise ServeError("service never became ready")
            time.sleep(0.002)
        self.ready_s = time.perf_counter() - t0
        host, port = text.split()
        self.host, self.port = host, int(port)

    def peak_rss_mb(self) -> float | None:
        return vm_hwm_mb(self.proc.pid)

    def drain(self) -> int:
        """SIGTERM and wait; returns the exit code."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            return -1

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)


async def _request(reader, writer, head: str, body: bytes) -> tuple[int, bytes]:
    writer.write(head.encode("latin-1") + body)
    await writer.drain()
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionResetError("server closed the connection")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, (await reader.readexactly(length) if length else b"")


def _head(method: str, path: str, length: int, ctype: str) -> str:
    return (f"{method} {path} HTTP/1.1\r\nHost: garlbench\r\n"
            f"Content-Type: {ctype}\r\nContent-Length: {length}\r\n"
            f"Connection: keep-alive\r\n\r\n")


async def _open_session(host: str, port: int, seed: int):
    reader, writer = await asyncio.open_connection(host, port)
    body = json.dumps({"seed": seed}).encode()
    status, payload = await _request(
        reader, writer, _head("POST", "/v1/session", len(body),
                              "application/json"), body)
    if status != 200:
        raise ServeError(f"session create answered {status}: {payload!r}")
    return reader, writer, json.loads(payload)["session"]


async def _close(writer) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except OSError:
        pass


async def _stream(host: str, port: int, index: int, jobs: list, window: tuple,
                  think: np.random.Generator, out: dict) -> None:
    """One closed-loop stream until the window closes."""
    seed = SESSION_SEED_BASE + index
    reader, writer, sid = await _open_session(host, port, seed)
    start, stop = window
    n = 0
    step = index * len(jobs) // STREAMS
    try:
        while time.perf_counter() < stop:
            await asyncio.sleep(think.uniform(0.0, THINK_MAX_S))
            t_step = time.perf_counter()
            ok = True
            for kind, body in jobs[step % len(jobs)]:
                t_client = time.perf_counter()
                head = _head("POST", f"/v1/act?session={sid}&kind={kind}",
                             len(body), "application/x-npz")
                t0 = time.perf_counter()
                status, payload = await _request(reader, writer, head, body)
                t1 = time.perf_counter()
                out["attempted"] += 1
                if status != 200:
                    out["non_200"][status] = out["non_200"].get(status, 0) + 1
                    ok = False
                else:
                    with np.load(io.BytesIO(payload)) as answer:
                        answer["actions"]  # decode, as a client would
                    if t0 >= start:
                        out["requests"].append(
                            {"kind": kind, "rid": f"{seed}:{n}",
                             "latency_s": t1 - t0,
                             "client_s": (t0 - t_client
                                          + time.perf_counter() - t1)})
                n += 1
            step += 1
            if ok and t_step >= start:
                out["steps"].append(time.perf_counter() - t_step)
    finally:
        await _close(writer)


async def _probe(host: str, port: int, pool: list, out: dict) -> list[tuple]:
    """Greedy requests, one at a time; returns (kind, entry, answer)."""
    reader, writer, sid = await _open_session(host, port, PROBE_SESSION_SEED)
    answers = []
    try:
        ugv = pool[:PROBES]
        uav = [e for e in pool if "grids" in e][:PROBES]
        for kind, entries in (("ugv", ugv), ("uav", uav)):
            for entry in entries:
                fields = _UGV_FIELDS if kind == "ugv" else ("grids", "aux")
                body = _npz({k: entry[k] for k in fields})
                head = _head("POST", f"/v1/act?session={sid}&kind={kind}&greedy=1",
                             len(body), "application/x-npz")
                status, payload = await _request(reader, writer, head, body)
                out["attempted"] += 1
                if status != 200:
                    out["non_200"][status] = out["non_200"].get(status, 0) + 1
                    continue
                with np.load(io.BytesIO(payload)) as answer:
                    answers.append((kind, entry, {k: answer[k] for k in answer.files}))
    finally:
        await _close(writer)
    return answers


def _load(server: Server, pool: list, jobs: list, seconds: float,
          seed: int) -> dict:
    out = {"attempted": 0, "non_200": {}, "requests": [], "steps": []}

    async def main():
        start = time.perf_counter() + WARMUP_S
        window = (start, start + seconds)
        await asyncio.gather(*(
            _stream(server.host, server.port, i, jobs, window,
                    np.random.default_rng([seed, i]), out)
            for i in range(STREAMS)))
        out["window_s"] = seconds
        out["probes"] = await _probe(server.host, server.port, pool, out)

    asyncio.run(main())
    return out


def _probe_mismatches(reference, answers: list) -> list[str]:
    """Compare greedy answers with a direct forward, bit for bit."""
    from repro.env.observation import UGVObsArrays

    bad = []
    for i, (kind, entry, answer) in enumerate(answers):
        if kind == "ugv":
            obs = UGVObsArrays(
                stop_features=entry["stop_features"][None],
                ugv_positions=entry["ugv_positions"][None],
                ugv_stops=entry["ugv_stops"][None].astype(np.int64),
                action_mask=entry["action_mask"][None])
            logits, values = reference.ugv_forward(obs)
            shifted = logits[0] - logits[0].max(axis=-1, keepdims=True)
            logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
            expect = {"actions": logp.argmax(axis=-1), "values": values[0]}
        else:
            mean, _, values = reference.uav_forward(entry["grids"], entry["aux"])
            expect = {"actions": mean, "values": values}
        for key, want in expect.items():
            got = answer[key]
            if got.shape != want.shape or got.tobytes() != want.tobytes():
                bad.append(f"probe {i} ({kind}) {key}")
    return bad


def _session(root: Path, workdir: Path, argv: list[str], tag: str,
             pool: list, jobs: list, seconds: float, seed: int) -> tuple:
    server = Server(argv, root, workdir, tag)
    try:
        load = _load(server, pool, jobs, seconds, seed)
        rss = server.peak_rss_mb()
        rc = server.drain()
    finally:
        server.kill()
    return server, load, rss, rc


def _e2e(load: dict) -> dict:
    window = load["window_s"]
    req = load["requests"]
    lat = {k: [r["latency_s"] for r in req if r["kind"] == k] for k in ("ugv", "uav")}

    def ms(p):
        return None if p is None else p.value * 1e3

    return {
        "iter_p50_ms": ms(median(load["steps"])),
        "steps_per_s": len(load["steps"]) / window,
        "throughput_per_s": len(req) / window,
        "ugv_p50_ms": ms(median(lat["ugv"])),
        "ugv_p99_ms": ms(blocked_tail(lat["ugv"], 99)),
        "uav_p50_ms": ms(median(lat["uav"])),
        "uav_p99_ms": ms(blocked_tail(lat["uav"], 99)),
    }, {"steps": len(load["steps"]), "ugv": len(lat["ugv"]), "uav": len(lat["uav"])}


def run_serve(seed: int, seconds: float, trace: bool, root: Path,
              workdir: Path) -> dict:
    """Run the workload; returns metrics, counts, checks and the record."""
    from repro.serve.artifact import load_artifact
    from repro.serve.loadgen import build_observation_pool

    artifact = _make_artifact(workdir, seed)
    reference = load_artifact(artifact, verify=True)
    pool = build_observation_pool("kaist", "smoke", 4, 2, seed=seed,
                                  episodes=POOL_EPISODES)
    jobs = [[("ugv", _npz({k: e[k] for k in _UGV_FIELDS}))]
            + ([("uav", _npz({"grids": e["grids"], "aux": e["aux"]}))]
               if "grids" in e else []) for e in pool]
    serve_argv = [sys.executable, "-m", "repro", "serve", str(artifact),
                  "--port", "0"]

    checks = []
    setup = []

    def spawn(i: int) -> None:
        server = Server(serve_argv, root, workdir, f"setup{i}")
        setup.append(server.ready_s)
        rc = server.drain()
        checks.append((f"set-up spawn {i} drains with exit 0", rc == 0,
                       f"rc={rc}"))

    for i in range(SETUP_SPAWNS // 2):
        spawn(i)
    server, load, rss, rc = _session(root, workdir, serve_argv, "load",
                                     pool, jobs, seconds, seed)
    setup.append(server.ready_s)
    for i in range(SETUP_SPAWNS // 2, SETUP_SPAWNS - 1):
        spawn(i)
    checks += _load_checks(load, rc, reference)
    metrics, counts = _e2e(load)
    record = {"pool_timesteps": len(pool), "streams": STREAMS,
              "window_s": seconds, "warmup_s": WARMUP_S,
              "setup_s": [round(s, 4) for s in setup], "sample_counts": counts,
              "non_200": load["non_200"], "probes": len(load["probes"])}
    attempted, failed = load["attempted"], sum(load["non_200"].values())

    if not trace:
        metrics.update(setup_s=median(setup).value, peak_rss_mb=rss)
        return {"metrics": metrics, "attempted": attempted, "failed": failed,
                "checks": checks, "record": record}

    spans_path = workdir / "server-spans.json"
    traced_argv = [sys.executable, "-m", "garlbench.serve_launcher",
                   str(artifact), "--spans", str(spans_path)]
    _, tload, _, trc = _session(root, workdir, traced_argv, "traced",
                                pool, jobs, seconds, seed)
    checks += [(f"traced {name}", ok, detail)
               for name, ok, detail in _load_checks(tload, trc, reference)]
    spans, other = read_chrome_trace(spans_path)
    counts_by_root = {(k or None): tuple(v) for k, v in other["counts"].items()}
    layer = serve_metrics(spans, counts_by_root, other["engine_stats"],
                          other["max_wait_s"], tload["requests"])
    traced_tp = len(tload["requests"]) / tload["window_s"]
    layer["trace.overhead_share"] = metrics["throughput_per_s"] / traced_tp - 1
    record["traced_throughput_per_s"] = traced_tp
    record["untraced_throughput_per_s"] = metrics["throughput_per_s"]
    record["spans"] = len(spans)
    return {"metrics": layer, "attempted": attempted + tload["attempted"],
            "failed": failed + sum(tload["non_200"].values()),
            "checks": checks, "record": record, "spans": spans}


def _load_checks(load: dict, rc: int, reference) -> list[tuple]:
    bad = _probe_mismatches(reference, load["probes"])
    return [
        ("every answer is a 200", not load["non_200"], str(load["non_200"])),
        ("greedy probes equal a direct forward bit for bit",
         not bad and len(load["probes"]) > 0,
         ", ".join(bad) or f"{len(load['probes'])} probes"),
        ("SIGTERM drain exits 0", rc == 0, f"rc={rc}"),
    ]
