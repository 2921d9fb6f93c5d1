"""Outside-in tracing of the meridian layers for the traced benchmark run.

The package imports its helpers by name (`from .kernels import kernel_batch`,
`from .quadrature import panel_nodes`, the `_RECONSTRUCTORS` table), so a
wrapper on the defining module alone would miss most calls.  `Tracer.install`
therefore replaces every binding of each wrapped function in every
`meridian.*` namespace and dict table, and `uninstall` puts the originals
back.  Nothing under `src/` changes.

Each call becomes one span (id, name, start, end, parent, command id,
extra) appended to an in-memory list; spans are written out once, at the
end of the run.  A span's self time is its duration minus the part of that
interval its child spans cover.
"""

import inspect
import itertools
import json
import sys
import threading
from time import perf_counter

import numpy as np

# CLI command -> the function that runs it
CLI_COMMANDS = {"kernel-scan": "cmd_kernel_scan", "decay": "cmd_decay",
                "feasibility": "cmd_feasibility", "roundtrip": "cmd_roundtrip",
                "bmo": "cmd_bmo"}
# layer -> public functions wrapped; `fields`, `profiles` and `operators`
# only build inputs in the benchmark and are not traced
LAYERS = {
    "cli": tuple(CLI_COMMANDS.values()),
    "kernels": ("kernel_batch",),
    "reconstruct": ("reconstruct_ur", "reconstruct_uz", "reconstruct_utheta",
                    "decay_trace"),
    "envelopes": ("scan_grid", "evaluate_scan_grid", "report_from_data",
                  "refine_and_compare", "write_scan_csv",
                  "write_summary_json"),
    "quadrature": ("panel_nodes",),
    "rates": ("bruteforce_feasible_set", "construct_feasible_pair",
              "fit_decay", "optimize_split", "predicted_decay"),
    "norms": ("bmo_oscillation_ln", "disk_mean_ln", "lq_growth_exponent",
              "lq_norm_cylinder", "weak_lorentz_norm"),
}

# kernel_batch is split by the function that called it; the reconstruction
# calls it from closures nested in these functions, so a few frames up the
# stack are searched
KERNEL_CALLERS = {"_integrate_polar_core": "polar_core",
                  "_integrate_rect": "rect",
                  "evaluate_scan_grid": "scan"}
KERNEL_SPLIT = ("polar_core", "rect", "scan", "other")
RECONSTRUCTORS = ("reconstruct_ur", "reconstruct_uz", "reconstruct_utheta")
BOOKKEEPING = "trace.bookkeeping"


def _caller_kind():
    frame = sys._getframe(2)      # 0: here, 1: the wrapper, 2: its caller
    for _ in range(4):
        if frame is None:
            break
        kind = KERNEL_CALLERS.get(frame.f_code.co_name)
        if kind is not None:
            return kind
        frame = frame.f_back
    return "other"


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.command = None     # command id shared by all its spans
        self._command_stack = None
        self._patched = []

    # -- spans ---------------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # a worker thread of a CLI pool starts with an empty stack; its work
        # was submitted by the innermost span open on the command's thread,
        # which waits for it
        try:
            return self._command_stack[-1]
        except (IndexError, TypeError):
            return None

    def call(self, name, fn, args, kwargs, extra_fn=None):
        """Run fn as one span.  `extra_fn(args, kwargs, result)` gives the
        span's extra data; it runs after the span closes and is recorded as
        a bookkeeping span of its own, so its cost is charged to the tracer
        and not to the caller's self time."""
        stack = self._stack()
        parent = self._parent(stack)
        sid = next(self._ids)
        stack.append(sid)
        extra = None
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
        if extra_fn is not None:
            extra = extra_fn(args, kwargs, result)
            self.spans.append((next(self._ids), BOOKKEEPING, t1, perf_counter(),
                               parent, self.command, None))
        self.spans.append((sid, name, t0, t1, parent, self.command, extra))
        return result

    def begin_command(self, command_id, label):
        """Open the root span of one benchmark command; returns a closer."""
        sid = next(self._ids)
        self.command = command_id
        stack = self._command_stack = self._stack()
        stack.append(sid)
        t0 = perf_counter()

        def end():
            t1 = perf_counter()
            stack.pop()
            self.spans.append((sid, "command." + label, t0, t1, None,
                               command_id, None))
        return end

    # -- wrappers ------------------------------------------------------
    def _wrap(self, layer, fname, fn):
        if fname == "kernel_batch":
            counts = _kernel_counter(fn)

            def wrapper(*args, **kwargs):
                return self.call("kernels.kernel_batch." + _caller_kind(), fn,
                                 args, kwargs, counts)
        else:
            name = "%s.%s" % (layer, fname)
            extra_fn = _reconstruction_extra if fname in RECONSTRUCTORS else None

            def wrapper(*args, **kwargs):
                return self.call(name, fn, args, kwargs, extra_fn)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Replace every binding of the wrapped functions in meridian.*."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "meridian" or n.startswith("meridian.")]
        for layer, names in LAYERS.items():
            home = sys.modules["meridian." + layer]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(layer, fname, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
                        elif isinstance(value, dict) and not attr.startswith("__"):
                            for key, item in list(value.items()):
                                if item is original:
                                    self._patched.append((value, key, original))
                                    value[key] = wrapper

    def uninstall(self):
        for target, key, original in reversed(self._patched):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patched = []

    def write(self, path):
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, command, extra in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0,
                                     "end": t1, "parent": parent,
                                     "command": command,
                                     "extra": extra}) + "\n")


def _kernel_counter(fn):
    """extra_fn giving (points, integrand evaluations) of a kernel_batch call.

    The evaluation count is computed, not observed: points times the
    angular nodes of the layer_panels mesh the call builds (n_nodes per
    panel, plus n_err per panel for the embedded error rule)."""
    from meridian.kernels import layer_panels
    sig = inspect.signature(fn)

    def counts(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        r = float(a["r"])
        rho, zeta = np.broadcast_arrays(np.asarray(a["rho"], dtype=float),
                                        np.asarray(a["zeta"], dtype=float))
        points = int(rho.size)
        if points == 0:
            return 0, 0
        d = (r - rho) ** 2 + zeta ** 2
        k_max = float(np.max(4.0 * r * rho / d))
        panels = len(layer_panels(k_max, deepen=a["deepen"])) - 1
        per_panel = a["n_nodes"] + (a["n_err"] if a["with_errors"] else 0)
        return points, points * panels * per_panel
    return counts


def _reconstruction_extra(args, kwargs, result):
    return (result.component, result.r, result.z, result.value,
            result.quad_err, result.tail_bound, bool(result.tol_met))


def self_times(spans):
    """span id -> duration minus the union of its children's intervals."""
    children = {}
    for sid, _, t0, t1, parent, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, _, t0, t1, _, _, _ in spans:
        covered = 0.0
        edge = t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, edge), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                edge = c1
        out[sid] = (t1 - t0) - covered
    return out


def layer_metrics(spans, passes, truth=None):
    """Per-layer metrics of a traced window of `passes` workload passes.

    Counts and self seconds are per pass; a function the workload never
    calls reads 0.  Self seconds of spans on a CLI worker thread add to
    those of the command thread, so a layer's seconds can exceed the pass
    time when a command runs a worker pool.  `truth` maps
    (component, "%.12g" r, "%.12g" z) to the exact velocity for the
    certificate check on roundtrip probes."""
    selfs = self_times(spans)
    by_name = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)

    def self_s(*names):
        return sum(selfs[s[0]] for n in names for s in by_name.get(n, ())) / passes

    m = {}
    kernel_calls = {}
    for kind in KERNEL_SPLIT:
        name = "kernels.kernel_batch." + kind
        group = by_name.get(name, ())
        kernel_calls[kind] = len(group)
        m[name + ".calls"] = len(group) / passes
        m[name + ".points"] = sum(s[6][0] for s in group) / passes
        m[name + ".integrand_evals"] = sum(s[6][1] for s in group) / passes
        m[name + ".self_s"] = self_s(name)

    rec_spans = [s for n in RECONSTRUCTORS for s in by_name.get("reconstruct." + n, ())]
    results = [s[6] for s in rec_spans]
    n_rec = len(results)
    violations = 0
    if truth:
        for comp, r, z, value, quad_err, tail, _ in results:
            exact = truth.get((comp, "%.12g" % r, "%.12g" % z))
            if exact is not None and abs(value - exact) > quad_err + tail:
                violations += 1
    m["reconstruct.calls"] = n_rec / passes
    # one reconstruction, kernels and quadrature included
    m["reconstruct.s_per_call"] = (sum(s[3] - s[2] for s in rec_spans) / n_rec
                                   if n_rec else 0.0)
    m["reconstruct.kernel_calls_per_call"] = (
        (kernel_calls["polar_core"] + kernel_calls["rect"]) / n_rec
        if n_rec else 0.0)
    m["reconstruct.tol_met_share"] = (sum(1 for x in results if x[6]) / n_rec
                                      if n_rec else 0.0)
    m["reconstruct.quad_err_max"] = max((x[4] for x in results), default=0.0)
    m["reconstruct.cert_violations"] = violations / passes

    for fname in ("evaluate_scan_grid", "report_from_data", "write_scan_csv"):
        m["envelopes.%s.self_s" % fname] = self_s("envelopes." + fname)
    m["envelopes.scan_points"] = m["kernels.kernel_batch.scan.points"]

    m["quadrature.panel_nodes.calls"] = len(
        by_name.get("quadrature.panel_nodes", ())) / passes
    m["quadrature.panel_nodes.self_s"] = self_s("quadrature.panel_nodes")
    for fname in ("bruteforce_feasible_set", "fit_decay", "optimize_split"):
        m["rates.%s.self_s" % fname] = self_s("rates." + fname)
    for fname in ("bmo_oscillation_ln", "lq_norm_cylinder", "weak_lorentz_norm"):
        m["norms.%s.self_s" % fname] = self_s("norms." + fname)
    for command, fname in CLI_COMMANDS.items():
        m["cli.%s.self_s" % command] = self_s("cli." + fname)
    return m


def self_shares(spans, top=8):
    """The `top` span names by self time, as (name, share of all self time)."""
    selfs = self_times(spans)
    totals = {}
    for span in spans:
        totals[span[1]] = totals.get(span[1], 0.0) + selfs[span[0]]
    whole = sum(totals.values()) or 1.0
    ranked = sorted(totals.items(), key=lambda kv: -kv[1])[:top]
    return [(name, value / whole) for name, value in ranked]
