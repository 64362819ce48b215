"""The served topology: `edge_router --fleet` supervising two `edge_serve`
replicas on loopback, every flag at its default."""

import json
import os
import re
import signal
import socket
import subprocess
import threading
import time

import procstat

REPLICAS = 2
ROUTER_LISTEN = re.compile(r"edge_router: listening on \S+:(\d+)")
REPLICA_LISTEN = re.compile(r"edge_serve: listening on ")


def free_ports(n):
    """n distinct loopback ports that were free a moment ago."""
    sockets = [socket.socket() for _ in range(n)]
    try:
        for s in sockets:
            s.bind(("127.0.0.1", 0))
        return [s.getsockname()[1] for s in sockets]
    finally:
        for s in sockets:
            s.close()


class LineClient:
    """One LDJSON connection; answers arrive in request order."""

    def __init__(self, port, timeout=30.0):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""

    def ask(self, line):
        self.sock.sendall(line.encode() + b"\n")
        while b"\n" not in self.buffer:
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("router closed the connection")
            self.buffer += chunk
        answer, self.buffer = self.buffer.split(b"\n", 1)
        return answer.decode()

    def close(self):
        self.sock.close()


class Fleet:
    """Launches the router in fleet mode and times its bring-up.

    setup_s runs from launching the router until the fleet answers its
    first predict; replica_listen_s is when the later replica announced its
    listening socket, on the same clock.
    """

    def __init__(self, router, serve, model, gazetteer, workdir, tag, trace=False):
        self.router, self.serve = router, serve
        self.model, self.gazetteer = model, gazetteer
        self.workdir, self.tag, self.trace = workdir, tag, trace
        self.proc = None
        self.pid = None
        self.port = None
        self.replica_pids = []
        self.setup_s = None
        self.replica_listen_s = None
        self.stderr_lines = []
        self._reader = None

    def _extra_flags(self, name):
        if not self.trace:
            return []
        base = os.path.join(self.workdir, f"{self.tag}.{name}")
        return ["--trace-out", base + ".trace.json", "--metrics-out", base + ".metrics.json"]

    def _read_stderr(self):
        for raw in self.proc.stderr:
            self.stderr_lines.append((time.monotonic(), raw.decode(errors="replace")))

    def start(self, probe_line, timeout=60.0):
        config = os.path.join(self.workdir, f"{self.tag}.fleet.cfg")
        with open(config, "w") as f:
            for i, port in enumerate(free_ports(REPLICAS)):
                argv = [self.serve, "--model", self.model, "--gazetteer", self.gazetteer,
                        "--listen", str(port)] + self._extra_flags(f"replica{i}")
                f.write(f"replica 127.0.0.1:{port} " + " ".join(argv) + "\n")
        argv = [self.router, "--gazetteer", self.gazetteer, "--listen", "0",
                "--fleet", config] + self._extra_flags("router")
        launched = time.monotonic()
        self.proc = subprocess.Popen(argv, cwd=self.workdir, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                     start_new_session=True)
        self.pid = self.proc.pid
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()
        deadline = launched + timeout
        while self.port is None:
            for _, line in list(self.stderr_lines):
                match = ROUTER_LISTEN.search(line)
                if match:
                    self.port = int(match.group(1))
            self._check_alive(deadline)
            time.sleep(0.001)
        # The router answers a structured error until a replica is readmitted.
        client = LineClient(self.port)
        try:
            while True:
                answer = client.ask(probe_line)
                if '"error"' not in answer:
                    break
                self._check_alive(deadline)
                time.sleep(0.002)
            self.setup_s = time.monotonic() - launched
            while self.control(client, "health")["health"]["router"]["up"] < REPLICAS:
                self._check_alive(deadline)
                time.sleep(0.01)
        finally:
            client.close()
        listens = [t for t, line in self.stderr_lines if REPLICA_LISTEN.search(line)]
        if len(listens) < REPLICAS:
            raise RuntimeError("replicas never announced their sockets")
        self.replica_listen_s = max(listens[:REPLICAS]) - launched
        self.replica_pids = procstat.children(self.proc.pid)
        if len(self.replica_pids) != REPLICAS:
            raise RuntimeError(f"expected {REPLICAS} replica processes, "
                               f"found {self.replica_pids}")
        return self.setup_s

    def _check_alive(self, deadline):
        if self.proc.poll() is not None:
            raise RuntimeError(f"router exited (rc={self.proc.returncode}): "
                               + self.stderr_text()[-2000:])
        if time.monotonic() > deadline:
            raise RuntimeError("fleet bring-up timed out: " + self.stderr_text()[-2000:])

    @staticmethod
    def control(client, verb):
        return json.loads(client.ask(json.dumps({verb: True})))

    def stats(self):
        client = LineClient(self.port)
        try:
            return self.control(client, "stats")["stats"]
        finally:
            client.close()

    def pids(self):
        return [self.pid] + self.replica_pids

    def stderr_text(self):
        return "".join(line for _, line in self.stderr_lines)

    def stop(self):
        """SIGTERM the router (it drains and stops its replicas), then make
        sure no process of the fleet survives."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                # The replicas share the router's process group.
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        for pid in self.replica_pids:
            # Not our children: poll until gone, killing a straggler.
            for _ in range(500):
                if procstat.command(pid) != "edge_serve":
                    break
                os.kill(pid, signal.SIGKILL)
                time.sleep(0.01)
        if self._reader is not None:
            self._reader.join(timeout=5)
        self.proc = None
