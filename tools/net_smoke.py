#!/usr/bin/env python3
"""End-to-end smoke for the networked serving tier (CI: net-serve).

Drives the same request stream three ways and requires bitwise-identical
responses:

  1. in-process: edge_serve reading stdin (the PR-4 path), canonical form;
  2. over TCP:   one edge_serve --listen replica, raw socket client;
  3. sharded:    edge_router in front of N replicas, N in --replica-counts.

Then a coordinated-reload drill: a stream that hot-swaps the model halfway
through must answer bitwise-identically to the in-process run of the same
stream — predictions before the swap on the old model, after it on the new —
with the router draining and reloading every replica in between.

Everything runs with --canonical true and --cache-capacity 0 so responses
are pure functions of (model, request stream) and byte comparison is exact.

Usage:
  python3 tools/net_smoke.py --serve build/tools/edge_serve \
      --router build/tools/edge_router --model m1.edge --model2 m2.edge \
      --gazetteer g.tsv --requests requests.txt --replica-counts 1,2,4

With --chaos, instead runs the self-healing drills (CI: net-chaos):

  A. supervised fleet at the default 2 s probe interval: edge_router
     --fleet spawns 4 replicas, which must all be up within 2 s of the
     router's listen line (readmission is paced by probe replies, not by
     the liveness tick); one is then SIGKILLed mid-stream. Zero predict
     answers may be lost, every answer must be byte-identical to the
     in-process pipe (orphaned predicts fail over to surviving replicas),
     the victim must be respawned, probed and readmitted within 3 s of the
     kill without a router restart, and the router stats aggregate must
     validate against tools/schemas/router_stats.schema.json.
  P. probes off: a one-replica supervised fleet under --probe-interval-ms 0
     must still readmit its replica and answer a predict, byte-identical to
     the in-process pipe, within 5 s of the listen line.
  B. unroutable replica: a router fronting one live replica plus an
     address that never answers must keep serving (bounded connect), answer
     a stats broadcast within its deadline reporting the bad replica down
     (pre-fix regression: the aggregate hung forever), and stream with
     full byte parity.
"""

import argparse
import json
import os
import re
import signal
import socket
import subprocess
import sys
import time

LISTEN_RE = re.compile(r"listening on (\S+):(\d+)")
ROUTER_LISTEN_RE = re.compile(r"edge_router: listening on (\S+):(\d+)")


def wait_for_listen(proc, path, timeout=30.0, pattern=LISTEN_RE):
    """Polls a process's stderr file for the listen announcement.

    Fleet-mode replica children share the router's stderr, so callers that
    spawn a fleet must pass ROUTER_LISTEN_RE to avoid matching a child's
    announcement.
    """
    deadline = time.time() + timeout
    while time.time() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(
                f"process exited early (rc={proc.returncode}): "
                + open(path).read()
            )
        match = pattern.search(open(path).read())
        if match:
            return match.group(1), int(match.group(2))
        time.sleep(0.05)
    raise RuntimeError("no listen announcement in " + open(path).read())


def tcp_roundtrip(host, port, request_lines):
    """Pipelines every request line, half-closes, returns response lines."""
    expected = len(request_lines)
    with socket.create_connection((host, port), timeout=60) as sock:
        sock.sendall(b"".join(line + b"\n" for line in request_lines))
        sock.shutdown(socket.SHUT_WR)
        buf = b""
        sock.settimeout(120)
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            buf += chunk
    lines = buf.split(b"\n")
    assert lines[-1] == b"", "response stream did not end in a newline"
    lines = lines[:-1]
    assert len(lines) == expected, f"expected {expected} responses, got {len(lines)}"
    return lines


class Fleet:
    """N edge_serve replicas plus (for N>=1 with a router) an edge_router."""

    def __init__(self, args, count, workdir_prefix):
        self.procs = []
        self.errs = []
        self.replica_ports = []
        self.router_addr = None
        self.prefix = workdir_prefix
        self.args = args
        self.count = count

    def __enter__(self):
        for i in range(self.count):
            err_path = f"{self.prefix}.replica{i}.err"
            err = open(err_path, "w")
            proc = subprocess.Popen(
                [
                    self.args.serve,
                    "--model", self.args.model,
                    "--gazetteer", self.args.gazetteer,
                    "--canonical", "true",
                    "--cache-capacity", "0",
                    "--listen", "0",
                ],
                stderr=err,
            )
            self.procs.append(proc)
            self.errs.append(err_path)
            host, port = wait_for_listen(proc, err_path)
            self.replica_ports.append((host, port))
        replicas = ",".join(f"{h}:{p}" for h, p in self.replica_ports)
        err_path = f"{self.prefix}.router.err"
        err = open(err_path, "w")
        proc = subprocess.Popen(
            [
                self.args.router,
                "--gazetteer", self.args.gazetteer,
                "--replicas", replicas,
                "--listen", "0",
            ],
            stderr=err,
        )
        self.procs.append(proc)
        self.errs.append(err_path)
        self.router_addr = wait_for_listen(proc, err_path)
        return self

    def __exit__(self, *exc):
        for proc in reversed(self.procs):
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                rc = proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise RuntimeError("process did not exit on SIGTERM")
            if rc != 0:
                raise RuntimeError(
                    f"process rc={rc}: " + open(self.errs[self.procs.index(proc)]).read()
                )
        return False


def inprocess_responses(args, request_lines):
    """The ground truth: the stdin/stdout pipe path."""
    result = subprocess.run(
        [
            args.serve,
            "--model", args.model,
            "--gazetteer", args.gazetteer,
            "--canonical", "true",
            "--cache-capacity", "0",
        ],
        input=b"".join(line + b"\n" for line in request_lines),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        check=True,
        timeout=300,
    )
    return result.stdout.splitlines()


def diff_streams(name, expected, got, skip=()):
    assert len(expected) == len(got), (
        f"{name}: {len(expected)} expected vs {len(got)} received"
    )
    for i, (e, g) in enumerate(zip(expected, got)):
        if i in skip:
            continue
        assert e == g, (
            f"{name}: line {i} differs\n  expected: {e[:160]}\n  received: {g[:160]}"
        )
    print(f"{name}: {len(expected) - len(skip)} lines bitwise identical")


def pick_free_ports(n):
    """Reserves n distinct ephemeral ports (bind, record, close)."""
    socks, ports = [], []
    for _ in range(n):
        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        socks.append(s)
        ports.append(s.getsockname()[1])
    for s in socks:
        s.close()
    return ports


def control_roundtrip(addr, verb, timeout=30.0):
    """Sends one control line ({"stats"/"health": true}) and parses the reply."""
    with socket.create_connection(addr, timeout=timeout) as sock:
        sock.sendall((json.dumps({verb: True}) + "\n").encode())
        sock.shutdown(socket.SHUT_WR)
        sock.settimeout(timeout)
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            buf += chunk
    return json.loads(buf)


def wait_for_up(addr, want_up, timeout, why):
    """Polls the router health aggregate until `want_up` replicas take traffic."""
    deadline = time.time() + timeout
    last = None
    while time.time() < deadline:
        last = control_roundtrip(addr, "health")["health"]["router"]
        if last["up"] >= want_up:
            return last
        time.sleep(0.2)
    raise RuntimeError(f"{why}: router never reached up={want_up}: {last}")


def expand_stream(requests, n):
    """Repeats the request stream to exactly n lines (ground truth repeats too)."""
    out = []
    while len(out) < n:
        out.extend(requests)
    return out[:n]


def validate_router_stats(args, stats, workdir_tag):
    """Schema-checks a router stats aggregate via validate_metrics.py."""
    path = f"{args.workdir}/{workdir_tag}.router_stats.json"
    with open(path, "w") as f:
        json.dump(stats, f)
    tools_dir = os.path.dirname(os.path.abspath(__file__))
    subprocess.run(
        [
            sys.executable,
            os.path.join(tools_dir, "validate_metrics.py"),
            "--schema",
            os.path.join(tools_dir, "schemas", "router_stats.schema.json"),
            path,
        ],
        check=True,
    )
    print(f"chaos: router stats validated against schema ({path})")


# Readmission bounds. Probation probes go back to back behind the replays,
# so a fleet is up once its children bind; a 2 s liveness tick that gated
# readmission took 4 s (two ticks) for each.
BRINGUP_BOUND_S = 2.0
RECONVERGE_BOUND_S = 3.0
PROBES_OFF_BOUND_S = 5.0


def chaos_fleet_drill(args):
    """Drill A: SIGKILL a supervised replica mid-stream; nothing may be lost."""
    requests = open(args.requests, "rb").read().splitlines()
    stream = expand_stream(requests, 200)
    expected = inprocess_responses(args, stream)

    ports = pick_free_ports(4)
    config_path = f"{args.workdir}/chaos.fleet.cfg"
    with open(config_path, "w") as f:
        for port in ports:
            f.write(
                f"replica 127.0.0.1:{port} {args.serve}"
                f" --model {args.model} --gazetteer {args.gazetteer}"
                f" --canonical true --cache-capacity 0"
                f" --max-batch 4"
                f" --listen {port}\n"
            )

    err_path = f"{args.workdir}/chaos.router.err"
    router = subprocess.Popen(
        [
            args.router,
            "--gazetteer", args.gazetteer,
            "--fleet", config_path,
            "--listen", "0",
            # Fast redial knobs so the whole drill fits a CI budget: redial
            # from 50ms capped at 500ms. The probe interval stays at its 2 s
            # default: readmission after 2 clean probes must not wait on it.
            "--connect-timeout-ms", "500",
            "--request-timeout-ms", "15000",
            "--broadcast-timeout-ms", "5000",
            "--redial-base-ms", "50",
            "--redial-max-ms", "500",
            "--readmit-probes", "2",
            "--flap-max-deaths", "0",
        ],
        stderr=open(err_path, "w"),
        # Fleet children inherit the router's environment, so this arms
        # deterministic +15ms latency on every replica's batch-drain path
        # (the PR-5 fault layer; latency does not change predictions). A
        # 50-request backlog then takes ~200ms per replica to drain, which
        # guarantees the SIGKILL below lands on a non-empty FIFO and the
        # drill actually exercises failover. The router itself has no
        # serve.batch probe, and the ground-truth in-process run above was
        # spawned without the variable.
        env={**os.environ, "EDGE_FAULT_SPEC": "serve.batch=latency,ms=15"},
    )
    try:
        addr = wait_for_listen(router, err_path, pattern=ROUTER_LISTEN_RE)
        listened = time.time()
        wait_for_up(addr, 4, 60, "fleet bring-up")
        bringup_s = time.time() - listened
        print(f"chaos: 4 replicas up {bringup_s:.3f}s after the listen line")
        assert bringup_s < BRINGUP_BOUND_S, (
            f"fleet bring-up took {bringup_s:.2f}s (bound {BRINGUP_BOUND_S}s): "
            "readmission is waiting on the probe tick"
        )

        stats = control_roundtrip(addr, "stats")["stats"]["router"]
        victims = [
            r for r in stats["replica_states"]
            if r["state"] == "up" and r.get("pid", -1) > 0
        ]
        assert victims, f"no killable replica in {stats}"
        victim = victims[0]

        with socket.create_connection(addr, timeout=60) as sock:
            sock.sendall(b"".join(line + b"\n" for line in stream))
            # The router pipelines a full --max-in-flight window onto the
            # replica FIFOs at once and each replica drains its share over
            # ~200ms (the injected batch latency above), so a kill just
            # after dispatch lands on a FIFO still holding queued predicts.
            time.sleep(0.05)
            os.kill(victim["pid"], signal.SIGKILL)
            killed = time.time()
            print(f"chaos: SIGKILLed replica {victim['addr']} pid {victim['pid']}")
            sock.shutdown(socket.SHUT_WR)
            sock.settimeout(120)
            buf = b""
            while True:
                chunk = sock.recv(1 << 16)
                if not chunk:
                    break
                buf += chunk
        got = buf.split(b"\n")
        assert got[-1] == b"", "response stream did not end in a newline"
        got = got[:-1]
        # Zero lost answers, zero error lines, full byte parity: failed-over
        # predictions are bitwise-identical because predictions are pure
        # functions of the entity set.
        for i, line in enumerate(got):
            assert b'"error"' not in line, f"line {i} errored: {line[:200]}"
        diff_streams("chaos fleet parity x4 (mid-stream SIGKILL)", expected, got)

        # The victim must rejoin without a router restart: respawned by the
        # supervisor, probed back to health, readmitted to the ring.
        wait_for_up(addr, 4, 60, "post-kill reconvergence")
        reconverge_s = time.time() - killed
        print(f"chaos: 4 replicas up again {reconverge_s:.3f}s after the kill")
        assert reconverge_s < RECONVERGE_BOUND_S, (
            f"reconvergence took {reconverge_s:.2f}s "
            f"(bound {RECONVERGE_BOUND_S}s)"
        )
        final = control_roundtrip(addr, "stats")
        router_stats = final["stats"]["router"]
        assert router_stats["respawns"] >= 1, router_stats
        assert router_stats["redials"] >= 1, router_stats
        assert router_stats["failovers"] >= 1, (
            "SIGKILL mid-stream should orphan at least one in-flight predict: "
            f"{router_stats}"
        )
        victim_state = next(
            r for r in router_stats["replica_states"]
            if r["addr"] == victim["addr"]
        )
        assert victim_state["state"] == "up", victim_state
        assert victim_state["deaths"] >= 1, victim_state
        validate_router_stats(args, final, "chaos")
        print("chaos fleet drill: kill -> failover -> respawn -> readmission ok")
    finally:
        router.terminate()
        rc = router.wait(timeout=30)
    assert rc == 0, f"router rc={rc}: " + open(err_path).read()


def chaos_probes_off_drill(args):
    """Drill P: --probe-interval-ms 0 turns off liveness probes, not
    readmission; a supervised replica must still come up and answer."""
    requests = open(args.requests, "rb").read().splitlines()
    expected = inprocess_responses(args, requests[:1])[0]
    port = pick_free_ports(1)[0]
    config_path = f"{args.workdir}/probes_off.fleet.cfg"
    with open(config_path, "w") as f:
        f.write(
            f"replica 127.0.0.1:{port} {args.serve}"
            f" --model {args.model} --gazetteer {args.gazetteer}"
            f" --canonical true --cache-capacity 0 --listen {port}\n"
        )
    err_path = f"{args.workdir}/probes_off.router.err"
    router = subprocess.Popen(
        [
            args.router,
            "--gazetteer", args.gazetteer,
            "--fleet", config_path,
            "--listen", "0",
            "--probe-interval-ms", "0",
        ],
        stderr=open(err_path, "w"),
    )
    try:
        addr = wait_for_listen(router, err_path, pattern=ROUTER_LISTEN_RE)
        listened = time.time()
        answer = None
        while time.time() - listened < PROBES_OFF_BOUND_S:
            answer = tcp_roundtrip(*addr, requests[:1])[0]
            if b'"error"' not in answer:
                break
            time.sleep(0.05)
        answered_s = time.time() - listened
        assert b'"error"' not in answer, (
            f"--probe-interval-ms 0 fleet still answers {answer[:120]} after "
            f"{answered_s:.1f}s: its replica was never readmitted"
        )
        assert answer == expected, (
            f"probes-off answer differs\n  expected: {expected[:160]}\n"
            f"  received: {answer[:160]}"
        )
        print(f"chaos probes-off drill: first answer {answered_s:.3f}s after "
              "the listen line ok")
    finally:
        router.terminate()
        rc = router.wait(timeout=30)
    assert rc == 0, f"router rc={rc}: " + open(err_path).read()


def chaos_unroutable_drill(args):
    """Drill B: a dead address must never wedge the router or its broadcasts."""
    requests = open(args.requests, "rb").read().splitlines()
    expected = inprocess_responses(args, requests)
    bad_addr = "203.0.113.1:9999"  # TEST-NET-3: no edge_serve ever answers.

    err_path = f"{args.workdir}/chaos.replica0.err"
    replica = subprocess.Popen(
        [
            args.serve,
            "--model", args.model,
            "--gazetteer", args.gazetteer,
            "--canonical", "true",
            "--cache-capacity", "0",
            "--listen", "0",
        ],
        stderr=open(err_path, "w"),
    )
    router_err = f"{args.workdir}/chaos.router2.err"
    router = None
    try:
        host, port = wait_for_listen(replica, err_path)
        start = time.time()
        router = subprocess.Popen(
            [
                args.router,
                "--gazetteer", args.gazetteer,
                "--replicas", f"{host}:{port},{bad_addr}",
                "--listen", "0",
                "--probe-interval-ms", "500",
                "--connect-timeout-ms", "250",
                "--request-timeout-ms", "1000",
                "--broadcast-timeout-ms", "1000",
                "--redial-base-ms", "100",
                "--redial-max-ms", "500",
            ],
            stderr=open(router_err, "w"),
        )
        addr = wait_for_listen(router, router_err, pattern=ROUTER_LISTEN_RE)
        startup_s = time.time() - start
        assert startup_s < 20, (
            f"startup took {startup_s:.1f}s: the dead replica dial is unbounded"
        )

        # Pre-fix regression: the stats aggregate waited forever on the dead
        # replica. Now it must answer within the broadcast deadline and
        # report the replica as a down entry.
        start = time.time()
        stats = control_roundtrip(addr, "stats", timeout=30)
        stats_s = time.time() - start
        assert stats_s < 10, f"stats took {stats_s:.1f}s despite 1s deadline"
        entries = {r["addr"]: r for r in stats["stats"]["replicas"]}
        assert bad_addr in entries, entries
        assert "reply" not in entries[bad_addr], (
            f"dead replica produced a reply? {entries[bad_addr]}"
        )
        assert entries[bad_addr].get("up") is False, entries[bad_addr]
        validate_router_stats(args, stats, "chaos_unroutable")

        # The stream must still reach full byte parity: anything the ring
        # hashes onto the dead replica fails over to the live one.
        got = tcp_roundtrip(*addr, requests)
        diff_streams("chaos unroutable parity", expected, got)
        print("chaos unroutable drill: bounded dials, bounded broadcasts ok")
    finally:
        for proc in (router, replica):
            if proc is not None and proc.poll() is None:
                proc.terminate()
        if router is not None:
            rc = router.wait(timeout=30)
            assert rc == 0, f"router rc={rc}: " + open(router_err).read()
        replica.wait(timeout=30)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--serve", required=True)
    parser.add_argument("--router", required=True)
    parser.add_argument("--model", required=True)
    parser.add_argument("--model2", required=True,
                        help="second checkpoint for the reload drill")
    parser.add_argument("--requests", required=True)
    parser.add_argument("--gazetteer", required=True)
    parser.add_argument("--replica-counts", default="1,2,4")
    parser.add_argument("--workdir", default=".")
    parser.add_argument("--chaos", action="store_true",
                        help="run the self-healing drills instead of parity")
    args = parser.parse_args()

    requests = open(args.requests, "rb").read().splitlines()
    assert len(requests) >= 20, "need a meaningful request stream"

    if args.chaos:
        chaos_fleet_drill(args)
        chaos_probes_off_drill(args)
        chaos_unroutable_drill(args)
        print("net smoke: all chaos drills passed")
        return

    # Parity: the same stream through 1/2/4-replica fleets must be bitwise
    # identical to the in-process pipe.
    expected = inprocess_responses(args, requests)
    for count in [int(c) for c in args.replica_counts.split(",")]:
        with Fleet(args, count, f"{args.workdir}/fleet{count}") as fleet:
            got = tcp_roundtrip(*fleet.router_addr, requests)
            diff_streams(f"parity x{count}", expected, got)

    # Coordinated reload mid-stream: old model before the ack line, new model
    # after it, across every replica at once. The ack formats differ between
    # the single process (one generation) and the router (per-replica list),
    # so only that one line is exempt from the byte diff.
    half = len(requests) // 2
    reload_line = ('{"reload": "%s", "id": "swap"}' % args.model2).encode()
    reload_stream = requests[:half] + [reload_line] + requests[half:]
    expected = inprocess_responses(args, reload_stream)
    assert b'"reload":"ok"' in expected[half], expected[half][:200]
    with Fleet(args, 2, f"{args.workdir}/fleetreload") as fleet:
        got = tcp_roundtrip(*fleet.router_addr, reload_stream)
        assert b'"reload":"ok"' in got[half], got[half][:200]
        assert got[half].count(b'"reload":"ok"') >= 2, (
            "router ack must carry every replica's ack: " + got[half][:200].decode()
        )
        diff_streams("reload parity x2", expected, got, skip={half})

    print("net smoke: all parity and reload checks passed")


if __name__ == "__main__":
    sys.exit(main())
