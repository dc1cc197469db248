"""Span tracing for the benchmark's traced run, applied from outside qshift.

``Tracer.install`` wraps every public function of qshift's modules (and
the ``StateVector`` methods the scans use) and rebinds each name that
refers to one, in every qshift module, so calls between modules are seen
too. A wrapped call made inside an operation becomes a span
``[name, start, end, parent, op, detail]``; spans stay in memory until
the run ends. Calls outside an operation, such as the oracle's, are not
recorded. ``layer_metrics`` derives the per-layer metrics from the spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

MODULES = ("state", "gates", "shift_register", "arithmetic", "statefile", "cli")
METHODS = ("nonzero_labels", "copy")  # of StateVector, named state.<method>
GATE_KINDS = ("X", "H", "CNOT", "SWAP", "TOFFOLI", "CSWAP")
SCANS = ("state.segment_is_zero_on_support", "state.support_values", "state.nonzero_labels")
CIRCUIT_BUILDERS = (
    "arithmetic.build_multiply_registers_circuit",
    "shift_register.shift_cascade",
    "arithmetic.adder_gates",
)
SPAN_FIELDS = ("name", "start", "end", "parent", "op", "detail")


def _gate_detail(counts, args, result):
    state, gate = args[0], args[1]
    return gate.kind, state.amplitudes.nbytes


def _circuit_counts(counts, args, result):
    for kind, n in args[1].counts().items():
        counts[f"gates.circuit_gates.{kind}"] += n


def _text_out(counts, args, result):
    counts["statefile.lines"] += result.count("\n")
    counts["statefile.bytes"] += len(result)


def _text_in(counts, args, result):
    counts["statefile.lines"] += args[0].count("\n")
    counts["statefile.bytes"] += len(args[0])


def _exit_status(counts, args, result):
    counts["cli.exit_nonzero"] += result != 0


# An observer sees each finished call of its function: it may add to the
# counters, and what it returns becomes the span's detail.
OBSERVERS = {
    "state.apply_gate": _gate_detail,
    "state.run_circuit": _circuit_counts,
    "statefile.state_to_text": _text_out,
    "statefile.state_from_text": _text_in,
    "cli.main": _exit_status,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def operation(self, op_id: int):
        """Root span of one benchmark operation; wrapped calls inside it nest under it."""
        span = ["op", 0.0, 0.0, -1, op_id, None]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        self._op = op_id
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._op = None
            self._stack.pop()

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1], self._op, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                span[5] = observe(counts, args, result)
            return result

        return traced

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = {short: sys.modules[f"qshift.{short}"] for short in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrapped[fn] = self._wrap(f"{short}.{attr}", fn)
        for name, mod in list(sys.modules.items()):
            if name == "qshift" or name.startswith("qshift."):
                for attr, value in list(vars(mod).items()):
                    if inspect.isfunction(value) and value in wrapped:
                        self._patch(mod, attr, wrapped[value])
        state_cls = mods["state"].StateVector
        for method in METHODS:
            self._patch(state_cls, method, self._wrap(f"state.{method}", getattr(state_cls, method)))
        gate_cls = mods["gates"].Gate
        post_init = gate_cls.__post_init__

        def counted_post_init(gate):
            if self._op is not None:
                self.counts["gates.constructed"] += 1
            post_init(gate)

        self._patch(gate_cls, "__post_init__", counted_post_init)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _apply_gate_bytes(kind: str, nbytes: int) -> float:
    """Bytes a dense gate moves, computed from the array size: the two slices
    it exchanges (or, for H, combines) are each read once and written once.
    A gate on w wires fixes w bits, so each slice is 2**-w of the array."""
    wires = 1 if kind in ("X", "H") else 3 if kind in ("TOFFOLI", "CSWAP") else 2
    return 2 * 2 * nbytes / 2**wires


def layer_metrics(tracer: Tracer) -> tuple[dict[str, tuple[float, str]], dict[str, float], float]:
    """Per-layer metrics per operation, each span name's self-time share of
    the operations' wall time, and the lowest share of an operation's wall
    time that its child spans cover."""
    spans = tracer.spans
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    calls: Counter = Counter()
    busy: Counter = Counter()
    self_s: Counter = Counter()
    for i, s in enumerate(spans):
        calls[s[0]] += 1
        busy[s[0]] += dur[i]
        self_s[s[0]] += dur[i] - child[i]
    ops = calls["op"]
    op_time = busy["op"]
    coverage = min((child[i] / dur[i] for i, s in enumerate(spans) if s[0] == "op"), default=0.0)

    gate_calls: Counter = Counter()
    gate_busy: Counter = Counter()
    gate_bytes = 0.0
    preconditions = circuit_run = build = 0.0
    for i, s in enumerate(spans):
        parent = spans[s[3]][0] if s[3] >= 0 else None
        if s[0] == "state.apply_gate":
            kind, nbytes = s[5]
            gate_calls[kind] += 1
            gate_busy[kind] += dur[i]
            gate_bytes += _apply_gate_bytes(kind, nbytes)
        elif s[0] in SCANS and parent == "arithmetic.multiply_registers":
            preconditions += dur[i]
        elif s[0] == "state.run_circuit" and parent is not None and parent.startswith("arithmetic."):
            circuit_run += dur[i]
        if s[0] in CIRCUIT_BUILDERS and parent not in CIRCUIT_BUILDERS:
            build += dur[i]

    per_op = 1.0 / ops if ops else 0.0
    count, seconds = "count/op", "s/op"
    m: dict[str, tuple[float, str]] = {
        "state.apply_gate.calls": (calls["state.apply_gate"] * per_op, count),
        "state.apply_gate.busy_s": (busy["state.apply_gate"] * per_op, seconds),
    }
    for kind in GATE_KINDS:
        m[f"state.apply_gate.{kind}.calls"] = (gate_calls[kind] * per_op, count)
        m[f"state.apply_gate.{kind}.busy_s"] = (gate_busy[kind] * per_op, seconds)
    m["state.apply_gate.bytes_computed"] = (gate_bytes * per_op, "B/op")
    m["state.apply_gate.share"] = (busy["state.apply_gate"] / op_time if op_time else 0.0, "frac")
    for scan in SCANS:
        m[f"{scan}.calls"] = (calls[scan] * per_op, count)
        m[f"{scan}.busy_s"] = (busy[scan] * per_op, seconds)
    m["gates.constructed"] = (tracer.counts["gates.constructed"] * per_op, count)
    for kind in GATE_KINDS:
        m[f"gates.circuit_gates.{kind}"] = (tracer.counts[f"gates.circuit_gates.{kind}"] * per_op, count)
    m["gates.build.busy_s"] = (build * per_op, seconds)
    for fn in ("shift_register.shift", "shift_register.rotate"):
        m[f"{fn}.calls"] = (calls[fn] * per_op, count)
        m[f"{fn}.busy_s"] = (busy[fn] * per_op, seconds)
        m[f"{fn}.self_s"] = (self_s[fn] * per_op, seconds)
    m["arithmetic.multiply_registers.busy_s"] = (busy["arithmetic.multiply_registers"] * per_op, seconds)
    m["arithmetic.multiply_registers.self_s"] = (self_s["arithmetic.multiply_registers"] * per_op, seconds)
    m["arithmetic.preconditions.busy_s"] = (preconditions * per_op, seconds)
    m["arithmetic.run_circuit.busy_s"] = (circuit_run * per_op, seconds)
    for fn in ("statefile.state_to_text", "statefile.state_from_text"):
        m[f"{fn}.calls"] = (calls[fn] * per_op, count)
        m[f"{fn}.busy_s"] = (busy[fn] * per_op, seconds)
    m["statefile.write_state.self_s"] = (self_s["statefile.write_state"] * per_op, seconds)
    m["statefile.read_state.self_s"] = (self_s["statefile.read_state"] * per_op, seconds)
    m["statefile.lines"] = (tracer.counts["statefile.lines"] * per_op, "lines/op")
    m["statefile.bytes"] = (tracer.counts["statefile.bytes"] * per_op, "B/op")
    text = busy["statefile.state_to_text"] + busy["statefile.state_from_text"]
    m["statefile.text.share"] = (text / op_time if op_time else 0.0, "frac")
    m["cli.main.calls"] = (calls["cli.main"] * per_op, count)
    m["cli.main.busy_s"] = (busy["cli.main"] * per_op, seconds)
    m["cli.parse_args.busy_s"] = (busy["cli.parse_args"] * per_op, seconds)
    m["cli.prepare_state.busy_s"] = (busy["cli.prepare_state"] * per_op, seconds)
    m["cli.run.self_s"] = (self_s["cli.run"] * per_op, seconds)
    m["cli.exit_nonzero"] = (tracer.counts["cli.exit_nonzero"] * per_op, count)

    shares = {name: t / op_time for name, t in self_s.items() if name != "op" and op_time}
    return m, shares, coverage
