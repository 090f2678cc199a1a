"""In-memory span tracer for the pnp_online layers.

`install` wraps the public functions of each pnp_online module at every
binding the CLI path calls them through. Modules import functions by name
(`from pnp_online.forward import grad_full`), so one function can have
several bindings, and each must be patched or its calls go unseen. Every
wrapped call records one span: name, start, end and the index of the
enclosing span.

Scalar Bessel calls and Born operator applications are counted, not
spanned: they run tens of thousands of times per command, and a span apiece
would dominate the layers around them. Their time is part of the self time
of the span that made the call.

Nothing here changes what the wrapped functions compute or return.
"""

import functools
import json
import time

from pnp_online import (bessel, cli, denoisers, forward, linops, metrics,
                        modelio, solvers)

SOLVER_ENTRY_POINTS = ("run_ista", "run_admm", "run_pnp_ista", "run_pnp_admm",
                       "run_pnp_sgd")


def _power_result(tracer, estimate):
    tracer.count("linops.power_iters", estimate.iterations_used)


def _cg_result(tracer, result):
    if isinstance(result, tuple):  # only return_info=True yields CgInfo
        info = result[1]
        tracer.count("linops.cg_iters", info.iterations)
        tracer.count("linops.cg_unconverged", 0 if info.converged else 1)


# (owner, attribute, span name, result hook)
SPANNED = [
    (cli, "cmd_simulate", "cli.simulate", None),
    (cli, "cmd_reconstruct", "cli.reconstruct", None),
    (cli, "build_dt_model", "forward.build", None),
    (forward, "build_dt_model", "forward.build", None),
    (forward, "green_function_2d", "bessel.green", None),
    (linops, "power_iteration_lipschitz", "linops.power", _power_result),
    (forward, "power_iteration_lipschitz", "linops.power", _power_result),
    (modelio, "power_iteration_lipschitz", "linops.power", _power_result),
    (cli, "power_iteration_lipschitz", "linops.power", _power_result),
    (forward, "grad_full", "forward.grad_full", None),
    (solvers, "grad_full", "forward.grad_full", None),
    # PnP-SGD calls gradient_from_indices directly for its minibatches;
    # grad_full reaches it through the forward binding, left unwrapped.
    (forward, "grad_minibatch", "forward.grad_minibatch", None),
    (solvers, "gradient_from_indices", "forward.grad_minibatch", None),
    (forward, "prox_datafit", "forward.prox_datafit", None),
    (solvers, "prox_datafit", "forward.prox_datafit", None),
    (linops, "cg_solve_regularized", "linops.cg", _cg_result),
    (forward, "cg_solve_regularized", "linops.cg", _cg_result),
    (denoisers, "tv_prox", "denoisers.tv", None),
    (denoisers, "averaged_linear_filter", "denoisers.filter", None),
    *[(cli, name, "solvers.solve", None) for name in SOLVER_ENTRY_POINTS],
    (solvers, "operator_P", "solvers.diag", None),
    (metrics, "operator_P", "solvers.diag", None),
    (metrics, "snr_db", "metrics.snr", None),
    (modelio, "save_model", "modelio.save", None),
    (cli, "save_model", "modelio.save", None),
    (modelio, "load_model", "modelio.load", None),
    (cli, "load_model", "modelio.load", None),
    (cli, "write_csv", "cli.output", None),
    (cli, "write_pgm", "cli.output", None),
]

# (owner, attribute, counter name)
COUNTED = [
    (bessel, "hankel1_0", "bessel.hankel_calls"),
    (forward, "hankel1_0", "bessel.hankel_calls"),
    (forward.BornComponentOperator, "apply", "forward.born_calls"),
    (forward.BornComponentOperator, "adjoint_apply", "forward.born_calls"),
]


class Tracer:
    """Spans as [name, start, end, parent index] rows, plus named counts."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.uncovered = []
        self._open = []

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def spanned(self, name, fn, on_result):
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1]
            open_spans.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                open_spans.pop()
            if on_result is not None:
                on_result(self, result)
            return result
        return wrapper

    def counted(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def dump(self, path):
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "uncovered": self.uncovered}, fh)


def _binding(owner, attribute):
    return f"{getattr(owner, '__name__', owner)}.{attribute}"


def install(tracer):
    """Patch every binding in SPANNED and COUNTED; record any that is missing."""
    for owner, attribute, name, on_result in SPANNED:
        original = getattr(owner, attribute, None)
        if original is None:
            tracer.uncovered.append(_binding(owner, attribute))
            continue
        setattr(owner, attribute, tracer.spanned(name, original, on_result))
    for owner, attribute, name in COUNTED:
        original = getattr(owner, attribute, None)
        if original is None:
            tracer.uncovered.append(_binding(owner, attribute))
            continue
        setattr(owner, attribute, tracer.counted(name, original))
