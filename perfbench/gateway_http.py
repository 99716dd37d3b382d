"""The ``gateway_http`` workload: journalled HTTP serving.

``python -m repro serve --store <journal>`` runs as a subprocess over
LAR-like data (or, traced, through ``launch.py``, which installs the
span wrappers first and writes the server's spans when it drains).
Each server boot touches every design once, so membership builds stay
out of the timings.  Two closed-loop phases follow on one server, on
fresh seeds:

* ``light`` — one connection, each request sent when the previous one
  is answered: the serial service time;
* ``loaded`` — ``nproc`` (at most two) connections, each sending its
  next request as soon as it is answered, so requests always contend
  for the gather lock.

The request mix: mostly sync ``POST /audit`` with a fresh seed over
several grid designs and one small squares design, at the default
``n_worlds``; a share repeats a spec from the previous phase (a
report-cache hit); a share submits with ``wait: false`` and redeems
with ``GET /tickets/<id>``; a share asks for ``budget: "adaptive"``.
See README for why the load is a closed loop and not the open-loop
Poisson schedule first planned.

The client is a plain keep-alive ``http.client`` connection with no
socket options, so it sees what any client of the server sees,
including the ~40 ms delayed-ACK stalls on responses shorter than one
TCP segment (see README, *Findings*).
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from tracing import REQUEST_HEADER
from workloads import canonical, nproc

N_POINTS = 20_000
DESIGNS = (
    {"kind": "grid", "nx": 25, "ny": 12},
    {"kind": "grid", "nx": 20, "ny": 10},
    {"kind": "grid", "nx": 16, "ny": 16},
    {"kind": "grid", "nx": 10, "ny": 10},
    {"kind": "squares", "n_centers": 8},
)
REPEAT_SHARE = 0.15
TICKET_SHARE = 0.10
ADAPTIVE_SHARE = 0.10
#: Requests in the light phase.
LIGHT_REQUESTS = 60
#: Loaded-phase requests per second of ``--seconds``: the loaded phase
#: lasts about ``--seconds`` at the ~15-18 requests/s two connections
#: reach on the reference machine (2-core Xeon).
LOADED_PER_SECOND = 15
DIGEST_REQUESTS = 10
CROSS_CHECKS = 6
#: Repeats pick among this many of the previous phase's last requests,
#: all settled and still in the server's report cache.
REPEAT_WINDOW = 12
BOOT_TIMEOUT = 60.0
REQUEST_TIMEOUT = 60.0


class Server:
    """One ``repro serve`` subprocess."""

    def __init__(self, root: Path, run_dir: Path, npz: Path, tag: str,
                 trace_dir: Path | None):
        store = run_dir / f"journal-{tag}.sqlite"
        args = [
            "serve", "--port", "0", "--store", str(store),
            "--data", f"lar={npz}",
        ]
        if trace_dir is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            cmd = [
                sys.executable, str(Path(__file__).with_name("launch.py")),
                "--trace-dir", str(trace_dir), "--", *args,
            ]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        self._log = open(run_dir / f"server-{tag}.log", "wb")
        self.proc = subprocess.Popen(
            cmd, cwd=str(root), env=env, stdout=subprocess.PIPE,
            stderr=self._log,
        )
        self.port = self._await_port()

    def _await_port(self) -> int:
        box: dict = {}

        def read():
            box["line"] = self.proc.stdout.readline().decode().strip()

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(BOOT_TIMEOUT)
        line = box.get("line", "")
        if not line.startswith("listening on "):
            self.stop()
            raise RuntimeError(f"server did not boot: {line!r}")
        return int(line.rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        """SIGTERM (the server drains), then wait; kill on timeout."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class Client:
    """One keep-alive connection."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=REQUEST_TIMEOUT
        )

    def call(self, method: str, path: str, body=None, req: str = ""):
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"}
        if req:
            headers[REQUEST_HEADER] = req
        self.conn.request(method, path, body=data, headers=headers)
        resp = self.conn.getresponse()
        return resp.status, resp.read()

    def close(self) -> None:
        self.conn.close()


def spec_dict(design: dict, seed: int, adaptive: bool = False) -> dict:
    spec = {"regions": dict(design), "seed": int(seed)}
    if adaptive:
        spec["budget"] = "adaptive"
    return spec


def make_phase(rng, phase: str, n: int, base_seed: int,
               targets: list) -> list:
    """The ``n`` requests of one phase: kind and spec.  Kinds and
    designs come in fixed proportions, shuffled, so every seed offers
    the same mix."""
    kinds = []
    if targets:
        kinds += ["repeat"] * round(REPEAT_SHARE * n)
    kinds += ["ticket"] * round(TICKET_SHARE * n)
    kinds += ["adaptive"] * round(ADAPTIVE_SHARE * n)
    kinds += ["sync"] * (n - len(kinds))
    kinds = rng.permutation(kinds)
    designs = rng.permutation([i % len(DESIGNS) for i in range(n)])
    out = []
    for i in range(n):
        kind = str(kinds[i])
        design = DESIGNS[int(designs[i])]
        if kind == "repeat":
            spec = targets[int(rng.integers(len(targets)))]
        else:
            spec = spec_dict(design, base_seed + i, kind == "adaptive")
        out.append({"req": f"{phase}-{i}", "kind": kind, "spec": spec})
    return out


def perform(client: Client, item: dict) -> tuple:
    """Send one request; returns ``(ok, response body)``.  The body is
    parsed later, outside the timed path."""
    body = {"dataset": "lar", "spec": item["spec"]}
    if item["kind"] == "ticket":
        body["wait"] = False
        status, raw = client.call("POST", "/audit", body, item["req"])
        if status != 202:
            return False, None
        ticket = json.loads(raw)["ticket"]
        status, raw = client.call(
            "GET", f"/tickets/{ticket}", None, item["req"]
        )
    else:
        status, raw = client.call("POST", "/audit", body, item["req"])
    return status == 200, raw


def report_text(raw: bytes) -> str:
    """The canonical JSON text of a response's report."""
    report = json.loads(raw)["report"]
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def run_loop(port: int, items: list, conns: int = 1) -> None:
    """Send ``items`` in order over ``conns`` connections, each sending
    its next request as soon as the previous one is answered; fills in
    each item's timings and result.  ``lag`` is how long a free
    connection took to send."""
    lock = threading.Lock()
    cursor = iter(items)

    def worker():
        client = Client(port)
        try:
            while True:
                ready = time.monotonic()
                with lock:
                    item = next(cursor, None)
                if item is None:
                    return
                sent = time.monotonic()
                try:
                    ok, raw = perform(client, item)
                except (OSError, http.client.HTTPException, ValueError):
                    ok, raw = False, None
                    client.close()
                    client = Client(port)
                done = time.monotonic()
                item.update(sent=sent, done=done, ok=ok, raw=raw,
                            lag=sent - ready)
        finally:
            client.close()

    threads = [threading.Thread(target=worker) for _ in range(conns)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class GatewayHTTP:
    """Drives one seed's data and request schedule against a server."""

    name = "gateway_http"

    def __init__(self, seed: int, seconds: float, root: Path,
                 run_dir: Path):
        from repro.datasets import generate_lar_like

        self.seed = seed
        self.root = root
        self.run_dir = run_dir
        data = generate_lar_like(n_applications=N_POINTS, seed=seed)
        self.coords, self.outcomes = data.coords, data.y_pred
        self.npz = run_dir / "lar.npz"
        np.savez(self.npz, coords=self.coords, outcomes=self.outcomes)
        self.phases = self._schedule(seconds)
        self._boots = 0

    def _schedule(self, seconds: float) -> dict:
        rng = np.random.default_rng(self.seed)
        # The light phase has no earlier phase to repeat from.
        light = make_phase(rng, "light", LIGHT_REQUESTS, 10_000, [])
        loaded = make_phase(
            rng, "loaded", round(LOADED_PER_SECOND * seconds), 30_000,
            self._targets(light),
        )
        return {"light": light, "loaded": loaded}

    @staticmethod
    def _targets(items: list) -> list:
        return [
            it["spec"] for it in items[-REPEAT_WINDOW:]
            if it["kind"] != "repeat"
        ]

    def boot(self, trace_dir: Path | None = None) -> tuple:
        """Start a server and touch every design once; returns
        ``(server, seconds)``."""
        self._boots += 1
        t0 = time.monotonic()
        server = Server(self.root, self.run_dir, self.npz,
                        str(self._boots), trace_dir)
        try:
            client = Client(server.port)
            try:
                for i, design in enumerate(DESIGNS):
                    status, _ = client.call(
                        "POST", "/audit",
                        {"dataset": "lar", "spec": spec_dict(design, i)},
                        f"setup-{i}",
                    )
                    if status != 200:
                        raise RuntimeError(f"warm-up request {status}")
            finally:
                client.close()
        except BaseException:
            server.stop()
            raise
        return server, time.monotonic() - t0

    def new_run(self) -> dict:
        """A fresh copy of the schedule to record one run's timings
        and results in."""
        return {
            "phases": {
                k: [dict(it) for it in v] for k, v in self.phases.items()
            },
        }

    def light(self, server: Server, run: dict) -> None:
        """Run the light phase."""
        run_loop(server.port, run["phases"]["light"])

    def loaded(self, server: Server, run: dict) -> None:
        """Run the loaded phase, then read the server's counters and
        peak memory."""
        run_loop(server.port, run["phases"]["loaded"], min(2, nproc()))
        client = Client(server.port)
        try:
            status, raw = client.call("GET", "/stats")
            run["stats"] = json.loads(raw) if status == 200 else {}
        finally:
            client.close()
        run["rss_mb"] = server.peak_rss_mb()

    def verify(self, result: dict) -> tuple:
        """Response checks: every request succeeded, repeats returned
        the bytes of the spec they repeat, and sampled reports equal
        in-process runs of the same specs.  Returns ``(attempted,
        failed)``."""
        from repro import AuditSession, AuditSpec

        attempted = failed = 0
        by_spec: dict = {}
        everything = [it for v in result["phases"].values() for it in v]
        for item in everything:
            attempted += 1
            if item.get("ok"):
                try:
                    item["text"] = report_text(item.pop("raw"))
                except (ValueError, KeyError):
                    item["ok"] = False
            if not item.get("ok"):
                failed += 1
                continue
            key = json.dumps(item["spec"], sort_keys=True)
            if item["kind"] == "repeat" and key in by_spec:
                failed += by_spec[key] != item["text"]
            by_spec.setdefault(key, item["text"])
        loaded = [it for it in result["phases"]["loaded"] if it.get("ok")]
        rng = np.random.default_rng(self.seed + 7)
        picks = rng.choice(len(loaded), size=min(CROSS_CHECKS, len(loaded)),
                           replace=False) if loaded else []
        session = AuditSession(self.coords, self.outcomes)
        for k in sorted(int(p) for p in picks):
            item = loaded[k]
            spec = AuditSpec.from_dict(item["spec"])
            attempted += 1
            failed += canonical(session.run(spec)) != item["text"]
        return attempted, failed

    def digest_reports(self, result: dict) -> list:
        light = result["phases"]["light"][:DIGEST_REQUESTS]
        return [it.get("text") or "" for it in light]


def latencies_ms(items: list) -> list:
    """Latency of every answered request, in ms."""
    return [(it["done"] - it["sent"]) * 1e3 for it in items if "done" in it]


def elapsed_s(items: list) -> float:
    """From the phase's first send to its last answer."""
    return max(it["done"] for it in items) - min(it["sent"] for it in items)
