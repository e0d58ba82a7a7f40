"""Span tracer that wraps the public functions of the cfomech modules.

The wrappers replace module attributes for the duration of a traced run and
are removed again by ``Tracer.uninstall``.  Code inside a module looks its
globals up at call time, so nested calls (the second ``stability_eigen``
inside ``steady_state_covariance``, say) are caught as well.

A span is (id, parent id, name index, start ns, end ns). The spans of the
current pass stay in memory until the next pass begins; those of the last
pass are written out at the end.  A span's self time is its duration minus
the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import re
from time import perf_counter_ns

#: Layer of each wrapped function: first (module, name pattern) that matches.
#: Private helpers are not wrapped, so their time stays with their caller.
LAYER_RULES = (
    ("experiments", r"resolve", "experiments.resolve"),
    ("experiments", r"", "experiments.rows"),
    ("dynamics", r"lyapunov|steady_state", "dynamics.lyapunov"),
    ("dynamics", r"stab|abscissa", "dynamics.stability"),
    ("dynamics", r"propagat|transition|interval|expm", "dynamics.propagate"),
    ("dynamics", r"state_space|drift|diffusion", "dynamics.state_space"),
    ("entanglement", r"", "entanglement.pt_spectrum"),
    ("cli", r"serial", "cli.serialize"),
    ("cli", r"", "cli.main"),
)

#: numpy eigen-solvers whose calls are counted (not timed) per enclosing layer.
EIG_FUNCTIONS = ("eig", "eigvals", "eigh", "eigvalsh")


def layer_of(module: str, name: str) -> str:
    for mod, pattern, layer in LAYER_RULES:
        if mod == module and re.search(pattern, name):
            return layer
    raise KeyError(f"no layer for {module}.{name}")


class Tracer:
    """Wraps module attributes on ``install`` and restores them on ``uninstall``.

    Single-threaded by design: the benchmark runs one caller in one thread.
    """

    def __init__(self, modules: dict, linalg_module):
        self._modules = modules  # short name -> module object
        self._linalg = linalg_module
        self._saved: list[tuple[object, str, object]] = []
        self.names: list[str] = []      # span name index -> "module.function"
        self.layers: list[str] = []     # span name index -> layer
        self.pass_id = -1
        self.spans: list[tuple] = []
        self.eig_calls: dict[str, int] = {}
        self._stack: list[tuple[int, int]] = []
        self._next_id = 0

    # -- installation ------------------------------------------------------
    def targets(self) -> list[tuple[object, str, str]]:
        """(module object, attribute, short module name) of every wrapped function."""
        out = []
        for short, mod in self._modules.items():
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                # scipy's expm is imported into dynamics; it is traced too
                if obj.__module__ == mod.__name__ or (short, attr) == ("dynamics", "expm"):
                    out.append((mod, attr, short))
        return out

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.names, self.layers = [], []
        for mod, attr, short in self.targets():
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            self.names.append(f"{short}.{attr}")
            self.layers.append(layer_of(short, attr))
            setattr(mod, attr, self._span(len(self.names) - 1, original))
        for attr in EIG_FUNCTIONS:
            original = getattr(self._linalg, attr)
            self._saved.append((self._linalg, attr, original))
            setattr(self._linalg, attr, self._counter(original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording ---------------------------------------------------------
    def begin_pass(self) -> None:
        """Drop the previous pass's spans and counts and start a new pass."""
        self.pass_id += 1
        self.spans = []
        self.eig_calls = {}

    def _span(self, index: int, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            stack.append((sid, index))
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                self.spans.append((sid, parent, index, start, end))
        return wrapper

    def _counter(self, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            layer = self.layers[stack[-1][1]] if stack else "untraced"
            self.eig_calls[layer] = self.eig_calls.get(layer, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    # -- analysis ----------------------------------------------------------
    def pass_summary(self) -> dict:
        """Self time (s) and layer entries per layer, span calls per function,
        and eigen-solver calls per layer, for the current pass."""
        spans = self.spans
        layer_by_id = {sid: self.layers[idx] for sid, _, idx, _, _ in spans}
        child_ns: dict[int, int] = {}
        for _, parent, _, start, end in spans:
            if parent >= 0:
                child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        self_s: dict[str, float] = {}
        entries: dict[str, int] = {}
        calls: dict[str, int] = {}
        for sid, parent, idx, start, end in spans:
            layer = self.layers[idx]
            own = (end - start - child_ns.get(sid, 0)) * 1e-9
            self_s[layer] = self_s.get(layer, 0.0) + own
            if layer_by_id.get(parent) != layer:
                entries[layer] = entries.get(layer, 0) + 1
            calls[self.names[idx]] = calls.get(self.names[idx], 0) + 1
        return {"self_s": self_s, "entries": entries, "calls": calls,
                "eig_calls": dict(self.eig_calls)}

    def write_spans(self, path) -> None:
        """The current pass, one line per span: pass, id, parent, name, start
        ns, end ns. Parent -1 marks a span called from untraced code."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("pass,id,parent,name,start_ns,end_ns\n")
            for sid, parent, idx, start, end in self.spans:
                fh.write(f"{self.pass_id},{sid},{parent},{self.names[idx]},{start},{end}\n")
