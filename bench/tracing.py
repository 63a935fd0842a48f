"""Span tracer for the benchmark's traced run.

The tracer times splitchain's layers from outside: it replaces public
functions and methods with wrappers that record one span per call (name,
start, end, parent) in memory, and restores the originals afterwards. No
file of the program changes. A function is wrapped at the name its caller
resolves at call time, so ``manager.run_commit_round`` is patched in
``splitchain.manager``, which imported it by name, not in
``splitchain.consensus``. Methods are patched on their class.

Spans are aggregated per op and then dropped, so memory stays bounded:
a layer's self time is its span's duration minus the durations of its
direct children, and its inclusive time counts only spans with no
ancestor of the same name.
"""

import importlib
import time
from collections import Counter, defaultdict

# (module, attribute path, layer name). Several patch points may feed one
# layer name when different callers resolve the same function separately.
PATCH_POINTS = (
    ("splitchain.scenario", "parse_scenario", "scenario.parse_scenario"),
    ("splitchain.manager", "ChainSim.commit", "manager.commit"),
    ("splitchain.manager", "ChainSim.on_divide", "manager.on_divide"),
    ("splitchain.manager", "ChainSim.on_ack", "manager.on_ack"),
    ("splitchain.manager", "Ecosystem.fuse_chains", "manager.fuse_chains"),
    ("splitchain.manager", "run_commit_round", "consensus.run_commit_round"),
    ("splitchain.manager", "collect_certificate",
     "consensus.collect_certificate"),
    ("splitchain.xchain", "collect_certificate",
     "consensus.collect_certificate"),
    ("splitchain.xchain", "verify_certificate",
     "consensus.verify_certificate"),
    ("splitchain.manager", "assign", "assignment.assign"),
    ("splitchain.netsim", "Network.send", "netsim.send"),
    ("splitchain.crypto", "SignatureScheme.sign", "crypto.sign"),
    ("splitchain.crypto", "SignatureScheme.verify", "crypto.verify"),
    ("splitchain.model", "replay", "model.replay"),
    ("splitchain.manager", "build_genesis", "model.build_genesis"),
    ("splitchain.manager", "make_block", "model.make_block"),
    ("splitchain.model", "make_block", "model.make_block"),
    ("splitchain.manager", "apply_transaction", "model.apply_transaction"),
    ("splitchain.model", "apply_transaction", "model.apply_transaction"),
    ("splitchain.model", "quorum_size", "model.quorum_size"),
    ("splitchain.xchain", "toa_lock", "xchain.toa_lock"),
    ("splitchain.xchain", "toa_claim", "xchain.toa_claim"),
    ("splitchain.xchain", "toa_resolve", "xchain.toa_resolve"),
    ("splitchain.xchain", "tok_generate_proof", "xchain.tok_generate_proof"),
    ("splitchain.xchain", "tok_verify_proof", "xchain.tok_verify_proof"),
    ("splitchain.analysis", "violation_probability_exact",
     "analysis.violation_probability_exact"),
    ("splitchain.analysis", "violation_frequency_montecarlo",
     "analysis.violation_frequency_montecarlo"),
    ("splitchain.analysis", "violation_probability_bound",
     "analysis.violation_probability_bound"),
    ("splitchain.cli", "sweep_csv", "cli.sweep_csv"),
)

LAYERS = tuple(dict.fromkeys(name for _, _, name in PATCH_POINTS))

OP = "op"  # root span of one benchmark op


class OpProfile:
    """Per-op aggregate of the spans recorded while one op ran."""

    def __init__(self, spans):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        for name, start, end, parent in spans:
            duration = end - start
            self.calls[name] += 1
            self.self_s[name] += duration
            if parent >= 0:
                self.self_s[spans[parent][0]] -= duration
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                self.inclusive_s[name] += duration


class Tracer:
    """Records spans around patched splitchain entry points."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.stack = []  # indices of open spans
        self.networks = []  # every Network built while installed
        self._saved = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        for module_name, path, name in PATCH_POINTS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            self._patch(owner, attr, self._wrap(name, owner.__dict__[attr]))
        # Keep every network so per-op message and drop counts can be read
        # from Network.messages_sent / messages_dropped; run_scenario
        # returns only the message total.
        network_cls = importlib.import_module("splitchain.netsim").Network
        init = network_cls.__init__
        networks = self.networks

        def capture(net, *args, **kwargs):
            init(net, *args, **kwargs)
            networks.append(net)

        self._patch(network_cls, "__init__", capture)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def run(self, fn, *args, owns_networks=True):
        """Call fn(*args) inside an `op` root span; return (result, profile).

        ``profile.cpu_s`` is the call's thread CPU time, taken before the
        spans are aggregated.

        With ``owns_networks``, networks built during the call are released
        afterwards (a scenario run builds its own); set-up passes False so
        that a fixture built there stays counted.
        """
        self.spans.clear()
        before = self._message_totals()
        start = time.thread_time()
        try:
            result = self._wrap(OP, fn)(*args)
        finally:
            cpu_s = time.thread_time() - start
            profile = OpProfile(self.spans)
            profile.cpu_s = cpu_s
            self.spans.clear()
            after = self._message_totals()
            profile.messages_sent = after[0] - before[0]
            profile.messages_dropped = after[1] - before[1]
            if owns_networks:  # lets the op's ecosystem be freed
                del self.networks[before[2]:]
        return result, profile

    def _message_totals(self):
        return (sum(n.messages_sent for n in self.networks),
                sum(n.messages_dropped for n in self.networks),
                len(self.networks))
