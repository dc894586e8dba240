"""Per-layer tracing from outside the program.

The layers are the modules of the ``hyperlap`` package.  ``Tracer``
replaces every public function of every module, under every name any
module binds it to (``spectral.jacobi_sweeps``, ``cuts.subset_scan`` and
``verify.laplacian`` are separate bindings), with a wrapper that records a
span: round, name, start, end, parent span, input id and, for a few
functions, the work it did.  Recursive calls of one function fold into its
outermost span.  Spans stay in memory; the caller writes them out at the
end.  Nothing inside the program changes, so its stdout must not either.
"""

import importlib
import os
import pkgutil
import time
from collections import Counter, defaultdict

# Span fields, by position.
ROUND, NAME, START, END, PARENT, INPUT, INFO = range(7)

JACOBI, SCAN = "kernels.jacobi_sweeps", "kernels.subset_scan"


def _jacobi(args, result):
    return {"n": int(args[0].shape[0]), "sweeps": int(result)}


def _scan(args, result):
    masks, sizes, p = args
    nbytes = masks.nbytes + sizes.nbytes + sum(r.nbytes for r in result)
    return {"mask_edges": (1 << int(p)) * int(masks.shape[0]), "bytes": int(nbytes)}


# Work counts read from a call's arguments and result.
_ANNOTATE = {
    JACOBI: _jacobi,
    SCAN: _scan,
    "hgio.load": lambda args, result: {"bytes": os.path.getsize(args[0])},
    "report.dumps": lambda args, result: {"bytes": len(result.encode("utf-8"))},
    "verify.verify_instances": lambda args, result: {"instances": result.instance_count},
}

# Per-layer metrics and their units; times are per round, counts too.
UNITS = {
    "kernels.jacobi.calls": "count",
    "kernels.jacobi.s": "s",
    "kernels.jacobi.sweeps": "count",
    "kernels.jacobi.rotations": "count",
    "kernels.scan.calls": "count",
    "kernels.scan.s": "s",
    "kernels.scan.mask_edges": "count",
    "kernels.scan.mask_edges_per_s": "1/s",
    "kernels.scan.bytes_computed": "B",
    "kernels.scans_per_input": "count/input",
    "spectral.eigendecompose.calls": "count",
    "spectral.eigendecompose.self_s": "s",
    "spectral.eigendecompose_per_input": "count/input",
    "cuts.max_cut.calls": "count",
    "cuts.isoperimetric.calls": "count",
    "cuts.fiedler_sweep.calls": "count",
    "cuts.self_s": "s",
    "core.adjacency.calls": "count",
    "core.adjacency.s": "s",
    "core.degree_profile.calls": "count",
    "core.degree_profile.s": "s",
    "core.laplacian.self_s": "s",
    "core.adjacency_per_input": "count/input",
    "core.degree_profile_per_input": "count/input",
    "hgio.load.s": "s",
    "hgio.bytes_in": "B",
    "report.dumps.s": "s",
    "report.bytes_out": "B",
    "bounds.calls": "count",
    "bounds.self_s": "s",
    "verify.instances": "count",
    "verify.self_s": "s",
    "generators.random_hypergraph.s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[1].lstrip("_")


class Tracer:
    def __init__(self, package):
        self.spans = []
        self._stack = []
        self.round = 0
        self.input_id = None
        modules = [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        public = {}
        for module in modules:
            for name, obj in sorted(vars(module).items()):
                if (
                    not name.startswith("_")
                    and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == module.__name__
                    and id(obj) not in public
                ):
                    public[id(obj)] = self._wrap(f"{_layer(module)}.{name}", obj)
        self._bindings = [
            (module, name, obj, public[id(obj)])
            for module in modules
            for name, obj in vars(module).items()
            if id(obj) in public
        ]

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        annotate = _ANNOTATE.get(name)

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][NAME] == name:
                return fn(*args, **kwargs)
            span = [self.round, name, 0.0, 0.0, stack[-1] if stack else -1,
                    self.input_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if annotate is not None:
                span[INFO] = annotate(args, result)
            return result

        return traced

    def install(self) -> None:
        for module, name, _, wrapper in self._bindings:
            setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original, _ in self._bindings:
            setattr(module, name, original)


def self_times(spans: list) -> list:
    """Each span's duration minus the time its child spans cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def round_metrics(spans: list, own: list, rnd: int, analyses: int) -> dict:
    """Per-layer metrics of one traced round; ``own`` from self_times."""
    calls, layer_calls = Counter(), Counter()
    total, self_s, layer_self = defaultdict(float), defaultdict(float), defaultdict(float)
    work = Counter()
    for span, mine in zip(spans, own):
        if span[ROUND] != rnd:
            continue
        name = span[NAME]
        layer = name.split(".", 1)[0]
        calls[name] += 1
        layer_calls[layer] += 1
        total[name] += span[END] - span[START]
        self_s[name] += mine
        layer_self[layer] += mine
        for key, value in (span[INFO] or {}).items():
            work[name, key] += value
        if name == JACOBI and span[INFO] and span[INFO]["sweeps"] > 0:
            n = span[INFO]["n"]
            work[name, "rotations"] += span[INFO]["sweeps"] * n * (n - 1) // 2
    mask_edges = work[SCAN, "mask_edges"]
    return {
        "kernels.jacobi.calls": calls[JACOBI],
        "kernels.jacobi.s": total[JACOBI],
        "kernels.jacobi.sweeps": work[JACOBI, "sweeps"],
        "kernels.jacobi.rotations": work[JACOBI, "rotations"],
        "kernels.scan.calls": calls[SCAN],
        "kernels.scan.s": total[SCAN],
        "kernels.scan.mask_edges": mask_edges,
        "kernels.scan.mask_edges_per_s": mask_edges / total[SCAN] if total[SCAN] else 0.0,
        "kernels.scan.bytes_computed": work[SCAN, "bytes"],
        "kernels.scans_per_input": calls[SCAN] / analyses,
        "spectral.eigendecompose.calls": calls["spectral.eigendecompose"],
        "spectral.eigendecompose.self_s": self_s["spectral.eigendecompose"],
        "spectral.eigendecompose_per_input": calls["spectral.eigendecompose"] / analyses,
        "cuts.max_cut.calls": calls["cuts.max_cut"],
        "cuts.isoperimetric.calls": calls["cuts.isoperimetric"],
        "cuts.fiedler_sweep.calls": calls["cuts.fiedler_sweep"],
        "cuts.self_s": layer_self["cuts"],
        "core.adjacency.calls": calls["core.adjacency_matrix"],
        "core.adjacency.s": total["core.adjacency_matrix"],
        "core.degree_profile.calls": calls["core.degree_profile"],
        "core.degree_profile.s": total["core.degree_profile"],
        "core.laplacian.self_s": self_s["core.laplacian"],
        "core.adjacency_per_input": calls["core.adjacency_matrix"] / analyses,
        "core.degree_profile_per_input": calls["core.degree_profile"] / analyses,
        "hgio.load.s": total["hgio.load"],
        "hgio.bytes_in": work["hgio.load", "bytes"],
        "report.dumps.s": total["report.dumps"],
        "report.bytes_out": work["report.dumps", "bytes"],
        "bounds.calls": layer_calls["bounds"],
        "bounds.self_s": layer_self["bounds"],
        "verify.instances": work["verify.verify_instances", "instances"],
        "verify.self_s": layer_self["verify"],
        "generators.random_hypergraph.s": total["generators.random_hypergraph"],
        "cli.self_s": layer_self["cli"],
    }
