"""The benchmark workloads.

Each workload drives pbmkit from outside, through the public functions
of dsl, refiner, pdp, pep_sim and netrepo, and checks every output
against oracle.py or against an in-process recomputation, outside the
timed region.  The functions are looked up through their modules on
every call, so the Tracer's wrappers see them.

A workload has four parts: prepare() makes the seeded inputs (not
timed), setup() does the program's own set-up (timed as setup_s),
loop() runs timed operations until their busy time reaches the given
seconds, and layer_metrics() turns a traced loop into per-layer numbers.
"""
from __future__ import annotations

import dataclasses
import io
import os
import re
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from ipaddress import IPv4Address
from time import perf_counter

import inputs
import oracle
from pbmkit import dsl, model, netrepo, pdp, pep_sim, refiner

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
# Steps are visited with this stride (prime, so every step comes round once
# per pass), so that any prefix of a pass samples the whole week: a run that
# ends mid-pass has the same office-hours share whatever its speed.
STEP_STRIDE = 389


@dataclasses.dataclass
class Phase:
    """What one loop() call did: busy seconds and the operations in them."""

    busy: float = 0.0
    ops: int = 0
    attempted: int = 0
    failed: int = 0
    latencies: list = dataclasses.field(default_factory=list)
    operations: int = 0

    def record(self, seconds: float, done: int) -> None:
        self.busy += seconds
        self.ops += done
        self.operations += 1

    def extend(self, other: "Phase") -> None:
        """Append another loop's operations to this one."""
        self.busy += other.busy
        self.ops += other.ops
        self.attempted += other.attempted
        self.failed += other.failed
        self.latencies.extend(other.latencies)
        self.operations += other.operations

    @property
    def throughput(self) -> float:
        """Ops per second of busy time over the whole phase."""
        return self.ops / self.busy if self.busy else 0.0


class Workload:
    name = ""
    op_unit = ""  # what one operation of throughput_per_s is
    latency_unit = ""  # what one latency_p90_ms sample times

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.problems: list[str] = []
        self.failures: Counter = Counter()
        self.counters: Counter = Counter()
        self.cursor = 0

    def prepare(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def after_setup(self) -> None:
        """Untimed work that the checks need once set-up is done."""

    def teardown(self) -> None:
        """Release what setup() acquired; safe to call more than once."""

    def loop(self, seconds: float, tracer=None) -> Phase:
        raise NotImplementedError

    def finish(self) -> None:
        """Untimed work after the timed loops, before the results are read."""

    def accounting(self, phases) -> tuple[int, int]:
        """(attempted, failed) operations for the result line."""
        return sum(p.attempted for p in phases), sum(p.failed for p in phases)

    def instrument(self, tracer) -> None:
        """Wrap the package functions this workload calls."""
        tracer.patch(dsl, "parse", "dsl.parse")
        tracer.patch(refiner, "enumerate_strategies", "refiner.enumerate_strategies")
        tracer.patch(refiner, "compile_strategy", "refiner.compile_strategy")
        tracer.patch(netrepo, "parse", "dsl.parse")
        tracer.patch(netrepo, "serialize", "dsl.serialize")
        tracer.patch(netrepo, "repo_commit", "netrepo.repo_commit")
        tracer.patch(netrepo, "repo_load", "netrepo.repo_load")
        tracer.patch(netrepo, "fnv1a64", "netrepo.fnv1a64", self._count_bytes)
        tracer.patch(pep_sim, "read_trace", "pep_sim.read_trace")
        tracer.patch(pep_sim, "write_report", "pep_sim.write_report")
        tracer.patch(pep_sim, "replay", "pep_sim.replay")
        tracer.patch(pep_sim, "decide", "pdp.decide", self._count_decide)
        tracer.patch(pep_sim, "allocate", "pep_sim.allocate", self._count_allocate)

    def _count_bytes(self, args, result) -> None:
        self.counters["fnv_bytes"] += len(args[0])

    def _count_decide(self, args, result) -> None:
        self.counters["rules_tested"] += len(args[0])
        self.counters["rules_matched"] += len(result.matched)

    def _count_allocate(self, args, result) -> None:
        flows, capacity = args[0], args[1]
        pipes = args[2] if len(args) > 2 else ()
        need = sum(
            min(d.effective_min_kbps, demand)
            for d, demand in flows
            if d.admission is model.Admission.ALLOW and d.effective_min_kbps is not None
        ) + sum(p.min_kbps for p in pipes if p.min_kbps is not None)
        self.counters["allocate_flows"] += len(flows)
        self.counters["allocate_pipes"] += len(pipes)
        self.counters["allocate_contended"] += need > capacity

    def layer_metrics(self, tracer) -> dict[str, float]:
        """Per-layer metrics from spans and counters common to every workload."""
        c = self.counters
        allocations = tracer.calls("pep_sim.allocate")
        fnv_time = tracer.total("netrepo.fnv1a64")
        return {
            "pdp.decide.us": tracer.mean("pdp.decide") * 1e6,
            "pdp.decide.calls": tracer.calls("pdp.decide"),
            "pdp.decide.match_ratio": c["rules_matched"] / c["rules_tested"] if c["rules_tested"] else 0.0,
            "pep_sim.allocate.ms.p50": tracer.percentile("pep_sim.allocate", 50) * 1e3,
            "pep_sim.allocate.ms.p90": tracer.percentile("pep_sim.allocate", 90) * 1e3,
            "pep_sim.allocate.calls": allocations,
            "pep_sim.allocate.flows_per_call": c["allocate_flows"] / allocations if allocations else 0.0,
            "pep_sim.allocate.pipes_per_call": c["allocate_pipes"] / allocations if allocations else 0.0,
            "pep_sim.allocate.contended_ratio": c["allocate_contended"] / allocations if allocations else 0.0,
            "pep_sim.replay.self_ms": tracer.self_mean("pep_sim.replay") * 1e3,
            "pep_sim.write_report.ms": tracer.mean("pep_sim.write_report") * 1e3,
            "pep_sim.read_trace.ms": tracer.mean("pep_sim.read_trace") * 1e3,
            "dsl.parse.ms": tracer.mean("dsl.parse") * 1e3,
            "dsl.serialize.ms": tracer.mean("dsl.serialize") * 1e3,
            "refiner.enumerate_strategies.ms": tracer.mean("refiner.enumerate_strategies") * 1e3,
            "refiner.compile_strategy.ms": tracer.mean("refiner.compile_strategy") * 1e3,
            "netrepo.repo_commit.ms": tracer.mean("netrepo.repo_commit") * 1e3,
            "netrepo.repo_load.ms": tracer.mean("netrepo.repo_load") * 1e3,
            "netrepo.fnv1a64.mb_per_s": c["fnv_bytes"] / fnv_time / 1e6 if fnv_time else 0.0,
        }

    def properties(self) -> list[str]:
        """Input properties, printed with the results."""
        return []

    def extra_rss_mb(self) -> float:
        """Peak RSS of processes the workload started, in MB."""
        return 0.0

    def server_cpu(self) -> float | None:
        """CPU seconds used so far by a server process, if there is one."""
        return None


def _compile(text: str, root: str):
    doc = dsl.parse(text)
    strategies = refiner.enumerate_strategies(doc.graph, root)
    return doc, tuple(refiner.compile_strategy(doc, strategies[0]))


def _time_direct(fn, items) -> float:
    """Mean seconds per call of fn over items, timed as one loop."""
    start = perf_counter()
    for item in items:
        fn(*item)
    return (perf_counter() - start) / len(items)


def _descriptor(flow) -> model.FlowDescriptor:
    ts, src, dst, proto, port, demand = flow
    return model.FlowDescriptor(IPv4Address(src), IPv4Address(dst), proto, port, ts, demand)


# -- local replay --------------------------------------------------------------


class ReplayWorkload(Workload):
    """Replay one step of a trace per replay() call, as `simulate` does.

    A step reads its CSV rows with read_trace, replays them and writes
    the report CSV.  A step that raises is a failed operation: its time
    counts, its flows do not.  Every step of the trace runs at least once
    in a run (finish() runs, untimed, any that the timed loops did not
    reach), and attempted/failed count the distinct steps, so they are
    the same in every run of the same inputs.
    """

    op_unit = "flows in completed replay steps"
    latency_unit = "one completed replay step (read_trace, replay, write_report)"
    root = "G1"
    capacity = 0
    step_seconds = 1

    def prepare(self) -> None:
        self.steps = self.make_trace()
        self.policy_text = self.policy_path.read_text(encoding="utf-8")
        self.outcomes: dict[int, tuple] = {}

    def setup(self) -> None:
        doc, self.rules = _compile(self.policy_text, self.root)
        self.catalogs = doc.catalogs

    def after_setup(self) -> None:
        self.matcher = oracle.Matcher(self.rules, self.catalogs)

    def loop(self, seconds: float, tracer=None) -> Phase:
        phase = Phase()
        while phase.busy < seconds:
            k = self.cursor * STEP_STRIDE % len(self.steps)
            self.cursor += 1
            if tracer is not None:
                tracer.request = self.cursor
            elapsed, ok = self.run_step(k)
            phase.attempted += 1
            if ok:
                phase.record(elapsed, len(self.steps[k].flows))
                phase.latencies.append(elapsed)
            else:
                phase.record(elapsed, 0)
                phase.failed += 1
        return phase

    def run_step(self, k: int) -> tuple[float, bool]:
        """Run and check step k; its elapsed seconds and whether it completed."""
        step = self.steps[k]
        reports = out = error = None
        start = perf_counter()
        try:
            flows = pep_sim.read_trace(io.StringIO(step.csv))
            reports = pep_sim.replay(
                self.rules, self.catalogs, flows, self.capacity, self.step_seconds
            )
            out = io.StringIO()
            pep_sim.write_report(reports, out)
        except Exception as exc:  # a failed step is counted, not fatal
            error = exc
        elapsed = perf_counter() - start
        self.check(k, step, reports, out, error)
        return elapsed, error is None

    def finish(self) -> None:
        for k in range(len(self.steps)):
            if k not in self.outcomes:
                self.run_step(k)

    def accounting(self, phases) -> tuple[int, int]:
        failed = sum(outcome[0] == "failed" for outcome in self.outcomes.values())
        return len(self.outcomes), failed

    def check(self, k, step, reports, out, error) -> None:
        """Check a step the first time it runs; later passes must repeat it."""
        if error is None:
            outcome = ("ok", hash((tuple(reports), out.getvalue())))
        else:
            outcome = ("failed", f"{type(error).__name__}: {error}")
        seen = self.outcomes.get(k)
        if seen is None:
            self.outcomes[k] = outcome
            if error is None:
                problems = oracle.check_step(
                    self.matcher, step, reports, self.capacity, self.step_seconds
                )
                if out.getvalue().count("\n") != len(step.flows) + 1:
                    problems.append("report CSV row count differs from the flow count")
                self.problems.extend(f"step {k}: {p}" for p in problems[:3])
            else:
                if (
                    isinstance(error, ValueError)
                    and oracle.DEFECT_1 in str(error)
                    and oracle.hits_defect_1(self.matcher, step)
                ):
                    self.outcomes[k] = ("failed", "ROADMAP defect 1: denied flow with per-connection bounds")
                self.failures[self.outcomes[k][1]] += 1
        elif seen[0] != outcome[0] or (error is None and seen != outcome):
            self.problems.append(f"step {k}: a later pass gave a different outcome")

    def layer_metrics(self, tracer) -> dict[str, float]:
        metrics = super().layer_metrics(tracer)
        pairs = []
        for step in self.steps[:40]:
            for flow in step.flows[:10]:
                descriptor = _descriptor(flow)
                pairs.extend((r.condition, descriptor, self.catalogs) for r in self.rules)
        metrics["model.condition_matches.us"] = _time_direct(model.condition_matches, pairs) * 1e6
        return metrics

    def properties(self) -> list[str]:
        flows = [len(s.flows) for s in self.steps]
        failing = sum(oracle.hits_defect_1(self.matcher, s) for s in self.steps)
        return [
            f"{len(self.steps)} distinct steps of {min(flows)}-{max(flows)} flows,"
            f" {self.step_seconds} s each, replayed in turn",
            f"{len(self.rules)} compiled rules, capacity {self.capacity} kbps",
            f"{failing} of {len(self.steps)} steps hit ROADMAP defect 1",
        ]


class CampusReplay(ReplayWorkload):
    name = "campus_replay"
    root = "G1-1"
    policy_path = inputs.CAMPUS_POLICY
    capacity = inputs.CAMPUS_CAPACITY_KBPS
    step_seconds = inputs.CAMPUS_STEP_SECONDS

    def make_trace(self):
        return inputs.campus_trace(self.seed)

    def properties(self) -> list[str]:
        probe = inputs.defect_1_probe(self.seed)
        try:
            flows = pep_sim.read_trace(io.StringIO(probe.csv))
            pep_sim.replay(self.rules, self.catalogs, flows, self.capacity, self.step_seconds)
            state = "completes: ROADMAP defect 1 is fixed"
        except Exception as exc:
            state = f"raises {type(exc).__name__}: {exc}"
        return super().properties() + [
            f"untimed probe step with a denied per-connection flow {state}",
        ]


class ContendedReplay(ReplayWorkload):
    name = "contended_replay"
    policy_path = inputs.CONTENDED_POLICY
    capacity = inputs.CONTENDED_CAPACITY_KBPS
    step_seconds = inputs.CONTENDED_STEP_SECONDS

    def make_trace(self):
        return inputs.contended_trace(self.seed)


# -- remote decisions ----------------------------------------------------------


def _proc_cpu(pid: int) -> float:
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def _proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        match = re.search(r"^VmHWM:\s+(\d+) kB", handle.read(), re.M)
    return int(match.group(1)) / 1024 if match else 0.0


class RemotePep(Workload):
    """A closed-loop enforcement point against `pbmkit pdp serve` on loopback.

    It mirrors `pep run`: one REQUEST per flow, then a pipe-less
    allocate() (ROADMAP defect 2, copied on purpose) and one REPORT per
    step.  Every COMMIT_EVERY requests it commits an edited campus policy,
    so the server reloads and pushes SYNC frames while requests run.
    """

    name = "remote_pep"
    op_unit = "decisions received"
    latency_unit = "one REQUEST until its decoded Decision, SYNC handling included"
    COMMIT_EVERY = 500

    def prepare(self) -> None:
        # Client and server share one vCPU, which the server inherits.  On a
        # busy VM host, waking an idle second vCPU for each round trip took
        # up to 10 ms and left both processes idle most of the run.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.steps = inputs.campus_trace(self.seed)
        # `pep run` parses its whole trace before it connects, so the steps
        # are parsed here, untimed, and a timed step holds only the
        # requests, allocate() and the REPORT.
        self.step_flows = [pep_sim.read_trace(io.StringIO(s.csv)) for s in self.steps]
        self.edits = inputs.campus_edits(self.seed)
        self.policy_text = inputs.CAMPUS_POLICY.read_text(encoding="utf-8")
        self.server = None
        self.session = None
        self.server_rss_mb = 0.0

    def setup(self) -> None:
        self.repo = tempfile.mkdtemp(prefix="repo-", dir=self.workdir)
        doc, rules = _compile(self.policy_text, "G1-1")
        self.base = dataclasses.replace(doc, rules=rules)
        netrepo.repo_commit(self.repo, self.base)
        self._start_server()
        self.session = netrepo.PepSession("127.0.0.1", self.port)

    def _start_server(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(inputs.HERE.parent / "src"))
        with open(os.path.join(self.workdir, "server.log"), "ab") as log:
            self.server = subprocess.Popen(
                [sys.executable, "-m", "pbmkit.cli", "pdp", "serve",
                 "--listen", "127.0.0.1:0", "--repo", self.repo],
                stdout=subprocess.PIPE, stderr=log, env=env,
            )
        ready, _, _ = select.select([self.server.stdout], [], [], 60)
        line = self.server.stdout.readline().decode() if ready else ""
        match = re.search(r"listening on [\d.]+:(\d+)", line)
        if match is None:
            self.teardown()
            raise RuntimeError(f"pdp serve did not start: {line!r}")
        self.port = int(match.group(1))

    def teardown(self) -> None:
        self.finish()
        if self.session is not None:
            self.session.close()
            self.session = None
        if self.server is not None:
            if self.server.poll() is None:
                self.server_rss_mb = max(self.server_rss_mb, _proc_peak_rss_mb(self.server.pid))
                self.server.terminate()
            try:
                self.server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server.stdout.close()
            self.server = None

    def after_setup(self) -> None:
        self.variants = []
        for edit in self.edits:
            rules = tuple(
                r if r.id != edit.rule_id else dataclasses.replace(
                    r, actions=dataclasses.replace(
                        r.actions,
                        bandwidth=dataclasses.replace(r.actions.bandwidth, min_kbps=edit.min_kbps),
                        priority=edit.priority,
                    ),
                )
                for r in self.base.rules
            )
            self.variants.append(dataclasses.replace(self.base, rules=rules))
        self.committed = 1
        self.commit_at: dict[int, float] = {}
        self.seen_version = None
        self.since_commit = 0
        self.commits = 0
        self.lags: list[float] = []
        # Decisions wait here until the next commit pause to be checked.
        # Checked after every step, the first request of each step took
        # 2.5x the median of the rest, and those 2% of the requests put a
        # step in the latency curve right at p99.
        self.pending: list[tuple] = []

    def finish(self) -> None:
        self.check(getattr(self, "pending", ()))
        self.pending = []

    def version_doc(self, version: int):
        return self.base if version == 1 else self.variants[(version - 2) % len(self.variants)]

    def loop(self, seconds: float, tracer=None) -> Phase:
        phase = Phase()
        session = self.session
        commits, lags = self.commits, len(self.lags)
        while phase.busy < seconds:
            k = self.cursor * STEP_STRIDE % len(self.steps)
            self.cursor += 1
            step = self.steps[k]
            records = []
            error = None
            start = perf_counter()
            try:
                flows = self.step_flows[k]
                decisions = []
                for flow in flows:
                    if tracer is not None:
                        tracer.request += 1
                    low = session.synced_version or 1
                    phase.attempted += 1
                    sent = perf_counter()
                    decision = session.request(flow)
                    done = perf_counter()
                    phase.latencies.append(done - sent)
                    decisions.append(decision)
                    records.append((flow, decision, low, self.committed))
                    if session.synced_version != self.seen_version:
                        self.seen_version = session.synced_version
                        if self.seen_version in self.commit_at:
                            self.lags.append(done - self.commit_at[self.seen_version])
                phase.attempted += 1
                grants = pep_sim.allocate(
                    [(d, f.demand_kbps) for d, f in zip(decisions, flows)], inputs.CAMPUS_CAPACITY_KBPS
                )
                timestep = step.bucket_start // inputs.CAMPUS_STEP_SECONDS * inputs.CAMPUS_STEP_SECONDS
                session.report(timestep, inputs.CAMPUS_CAPACITY_KBPS, sum(grants))
            except Exception as exc:  # counted; the session is not reused after it
                error = exc
            phase.record(perf_counter() - start, len(records))
            self.pending.extend(records)
            if error is not None:
                phase.failed += 1
                self.failures[f"{type(error).__name__}: {error}"] += 1
                break
            self.since_commit += len(records)
            if self.since_commit >= self.COMMIT_EVERY:
                self.check(self.pending)
                self.pending.clear()
                self.commit()
        self.phase_commits = self.commits - commits
        self.phase_lags = self.lags[lags:]
        return phase

    def commit(self) -> None:
        version = self.committed + 1
        entry = netrepo.repo_commit(self.repo, self.version_doc(version))
        self.commit_at[version] = perf_counter()
        if entry.version != version:
            self.problems.append(f"commit stored version {entry.version}, expected {version}")
        self.committed = entry.version
        self.since_commit = 0
        self.commits += 1

    def check(self, records) -> None:
        """Each decision must be what in-process decide() gives for a live version.

        The live version lies between the client's last synced version
        and the newest version committed when the request was sent.
        """
        for flow, decision, low, high in records:
            for version in range(low, high + 1):
                doc = self.version_doc(version)
                if pdp.decide(doc.rules, flow, doc.catalogs) == decision:
                    break
            else:
                self.problems.append(
                    f"decision for {flow} matches no version in {low}..{high}: {decision}"
                )

    def instrument(self, tracer) -> None:
        super().instrument(tracer)
        tracer.patch(netrepo.PepSession, "request", "netrepo.request")
        tracer.patch(netrepo.PepSession, "report", "netrepo.report")
        tracer.patch(netrepo, "encode_message", "netrepo.encode_message")
        tracer.patch(netrepo, "read_frame", "netrepo.read_frame", self._count_frame)
        tracer.patch(netrepo, "parse_payload", "netrepo.parse_payload")
        tracer.patch(netrepo, "decision_from_fields", "netrepo.decision_from_fields")

    def _count_frame(self, args, result) -> None:
        if result is not None and result[0] is netrepo.MessageKind.SYNC:
            self.counters["sync_frames"] += 1

    def layer_metrics(self, tracer) -> dict[str, float]:
        metrics = super().layer_metrics(tracer)
        requests = tracer.calls("netrepo.request")
        codec = {"netrepo.parse_payload", "netrepo.decision_from_fields"}
        decode = tracer.child_total("netrepo.request", codec)
        encode = tracer.child_total("netrepo.request", {"netrepo.encode_message"})
        live = self.version_doc(self.committed)
        sample = [(live.rules, _descriptor(f), live.catalogs) for s in self.steps[:20] for f in s.flows]
        matched = sum(len(pdp.decide(*item).matched) for item in sample)
        metrics.update({
            "pdp.decide.us": _time_direct(pdp.decide, sample) * 1e6,
            "pdp.decide.calls": requests,
            "pdp.decide.match_ratio": matched / (len(sample) * len(live.rules)),
            "netrepo.encode_message.us": tracer.mean("netrepo.encode_message") * 1e6,
            "netrepo.decode.us": decode / requests * 1e6 if requests else 0.0,
            "netrepo.wait.us": (tracer.total("netrepo.request") - decode - encode) / requests * 1e6 if requests else 0.0,
            "netrepo.report.us": tracer.mean("netrepo.report") * 1e6,
            "netrepo.sync_frames": self.counters["sync_frames"] / self.phase_commits if self.phase_commits else 0.0,
            "netrepo.sync_lag_ms": statistics.median(self.phase_lags) * 1e3 if self.phase_lags else 0.0,
        })
        return metrics

    def server_cpu(self) -> float | None:
        return _proc_cpu(self.server.pid)

    def extra_rss_mb(self) -> float:
        if self.server is not None:
            self.server_rss_mb = max(self.server_rss_mb, _proc_peak_rss_mb(self.server.pid))
        return self.server_rss_mb

    def properties(self) -> list[str]:
        return [
            f"{len(self.steps)} distinct steps of {len(self.steps[0].flows)} flows from the campus trace,"
            f" {inputs.CAMPUS_CAPACITY_KBPS} kbps, 1 closed-loop client over loopback only,"
            " client and server pinned to one vCPU",
            f"{self.commits} policy commits (one per {self.COMMIT_EVERY} requests),"
            f" {len(self.lags)} SYNC versions seen",
        ]


# -- policy authoring ----------------------------------------------------------


class PolicyCheck(Workload):
    """Publish generated documents: text in hand to a verified stored version."""

    name = "policy_check"
    op_unit = "documents published"
    latency_unit = "one document publish (publish_s)"
    DOCUMENTS = 16

    def prepare(self) -> None:
        self.documents = [inputs.policy_document(self.seed, i) for i in range(self.DOCUMENTS)]
        self.profile = pdp.DEFAULT_PROFILES["shaper"]
        self.sample = [_descriptor(f) for f in inputs.policy_flow_sample(self.seed)]

    def setup(self) -> None:
        self.repo = tempfile.mkdtemp(prefix="repo-", dir=self.workdir)

    def teardown(self) -> None:
        shutil.rmtree(self.repo, ignore_errors=True)

    def loop(self, seconds: float, tracer=None) -> Phase:
        phase = Phase()
        while phase.busy < seconds:
            text = self.documents[self.cursor % len(self.documents)]
            self.cursor += 1
            published = error = None
            start = perf_counter()
            try:
                if tracer is not None:
                    tracer.request = self.cursor
                    with tracer.span("publish"):
                        published = self.publish(text)
                else:
                    published = self.publish(text)
            except Exception as exc:  # a failed document is counted, not fatal
                error = exc
            elapsed = perf_counter() - start
            phase.attempted += 1
            phase.record(elapsed, error is None)
            if error is None:
                phase.latencies.append(elapsed)
                self.check(*published)
            else:
                phase.failed += 1
                self.failures[f"{type(error).__name__}: {error}"] += 1
        return phase

    def publish(self, text: str):
        doc = dsl.parse(text)
        strategies = refiner.enumerate_strategies(doc.graph, "G1")
        rules = refiner.compile_strategy(doc, strategies[0])
        conflicts = pdp.detect_conflicts(rules, doc.catalogs)
        lines = [
            line for rule in rules for line in pdp.translate_to_device(rule, doc.catalogs, self.profile)
        ]
        compiled = dataclasses.replace(doc, rules=tuple(rules))
        entry = netrepo.repo_commit(self.repo, compiled)
        loaded = netrepo.repo_load(self.repo, entry.version)
        self.last_rules, self.last_catalogs = compiled.rules, compiled.catalogs
        return strategies, compiled, conflicts, lines, entry, loaded

    def check(self, strategies, compiled, conflicts, lines, entry, loaded) -> None:
        if len(strategies) != inputs.POLICY_STRATEGIES or len(compiled.rules) != inputs.POLICY_RULES:
            self.problems.append(f"{len(strategies)} strategies, {len(compiled.rules)} rules")
        if len(lines) != len(compiled.rules):
            self.problems.append(f"{len(lines)} device lines for {len(compiled.rules)} rules")
        with open(os.path.join(self.repo, entry.path), encoding="utf-8") as handle:
            stored = handle.read()
        if dsl.serialize(loaded) != stored or loaded.rules != compiled.rules or loaded.catalogs != compiled.catalogs:
            self.problems.append(f"version {entry.version} does not round-trip")
        by_id = {r.id: r for r in compiled.rules}
        for conflict in conflicts:
            problem = oracle.check_conflict(conflict, by_id, compiled.catalogs, pdp.decide, pdp.DecisionFlag)
            if problem is not None:
                self.problems.append(problem)
                break
        self.findings = len(conflicts)

    def instrument(self, tracer) -> None:
        super().instrument(tracer)
        tracer.patch(pdp, "detect_conflicts", "pdp.detect_conflicts", self._count_pairs)
        tracer.patch(pdp, "translate_to_device", "pdp.translate_to_device")

    def _count_pairs(self, args, result) -> None:
        n = len(args[0])
        self.counters["pairs"] += n * (n - 1) // 2
        self.counters["findings"] += len(result)

    def layer_metrics(self, tracer) -> dict[str, float]:
        metrics = super().layer_metrics(tracer)
        calls = tracer.calls("pdp.detect_conflicts")
        docs = tracer.calls("publish")
        sample = [(self.last_rules, flow, self.last_catalogs) for flow in self.sample]
        matched = sum(len(pdp.decide(*item).matched) for item in sample)
        metrics.update({
            "pdp.detect_conflicts.s": tracer.mean("pdp.detect_conflicts"),
            "pdp.detect_conflicts.pairs": self.counters["pairs"] / calls if calls else 0.0,
            "pdp.detect_conflicts.findings": self.counters["findings"] / calls if calls else 0.0,
            "pdp.translate_to_device.ms": tracer.total("pdp.translate_to_device") / docs * 1e3 if docs else 0.0,
            "pdp.decide.us": _time_direct(pdp.decide, sample) * 1e6,
            "pdp.decide.calls": len(sample),
            "pdp.decide.match_ratio": matched / (len(sample) * len(self.last_rules)),
        })
        return metrics

    def properties(self) -> list[str]:
        return [
            f"{self.DOCUMENTS} generated documents published in turn, each"
            f" {min(len(d) for d in self.documents) // 1000}-{max(len(d) for d in self.documents) // 1000} kB,"
            f" {inputs.POLICY_STRATEGIES} strategies of {inputs.POLICY_RULES} rules",
            f"{getattr(self, 'findings', 0)} conflict findings in the last document",
        ]


WORKLOADS = {w.name: w for w in (CampusReplay, ContendedReplay, RemotePep, PolicyCheck)}
