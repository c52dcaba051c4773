"""Outside-in layer tracing for the benchmark's traced runs.

``Tracer.install`` replaces every public function of rsgame's modules at
every module that bound it by name (``nash.principal_eigenpair`` and
``cli.principal_eigenpair`` are separate bindings of one function), and
counts ``GameModel.row`` calls.  Each call becomes a span kept in memory:
function, binding, parent span, start, end, and the time covered by its
direct children, so self time is duration minus child time.  Spans are
written out once, at the end of the run.  Nothing here changes what the
program computes.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import itertools
import json
import threading
import time
from contextlib import contextmanager

LAYERS = ("model", "generator", "eigensolver", "nash", "simulate", "verify", "cli")
SOLVERS = ("eigensolver.principal_eigenpair", "eigensolver.best_response_eigenpair")


class Span:
    __slots__ = ("id", "op", "func", "binding", "parent", "start", "end",
                 "child", "iterations", "work", "command")

    def __init__(self, ident, op, func, binding, parent, start):
        self.id, self.op, self.func, self.binding = ident, op, func, binding
        self.parent, self.start = parent, start
        self.end = start
        self.child = 0.0
        self.iterations = None
        self.work = None
        self.command = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child

    def to_json_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


def _digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


class Tracer:
    """Span recorder plus the per-operation counters the metrics need."""

    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count()
        self.op = 0
        self.paused = False
        self._local = threading.local()
        self.row_calls = 0
        self.rows_seen: set = set()
        self.solve_keys: list = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"rsgame.{name}") for name in LAYERS}
        public = {}
        for name, mod in modules.items():
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    public[obj] = f"{name}.{attr}"
        for name, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in public:
                    setattr(mod, attr, self._wrap(obj, public[obj], f"{name}.{attr}"))
        model_cls = modules["model"].GameModel
        row = model_cls.row
        tracer = self

        @functools.wraps(row)
        def counted_row(model, i, ia, ib):
            if not tracer.paused:
                tracer.row_calls += 1
                tracer.rows_seen.add((id(model), i, ia, ib))
            return row(model, i, ia, ib)

        model_cls.row = counted_row

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, func, binding):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span = Span(next(tracer._ids), tracer.op, func, binding,
                        None if parent is None else parent.id, time.perf_counter())
            if func in SOLVERS:
                tracer.solve_keys.append(_solve_key(func, args, kwargs))
            elif func == "cli.main":
                span.command = (args[0] if args else kwargs["argv"])[0]
            tracer.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child += span.duration
            _annotate(span, result)
            return result

        return traced

    # -- per operation -------------------------------------------------------

    def begin_op(self) -> int:
        self.op += 1
        self.row_calls = 0
        self.rows_seen = set()
        self.solve_keys = []
        return len(self.spans)

    @contextmanager
    def pause(self):
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def write(self, path) -> None:
        """Spans as JSON lines, plus ``<path>.summary.json`` per binding:
        calls, inclusive and self seconds, and eigensolver iterations."""
        summary: dict = {}
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json_dict()) + "\n")
                row = summary.setdefault(span.binding, {
                    "calls": 0, "inclusive_s": 0.0, "self_s": 0.0, "iterations": 0})
                row["calls"] += 1
                row["inclusive_s"] += span.duration
                row["self_s"] += span.self_time
                row["iterations"] += span.iterations or 0
        with open(f"{path}.summary.json", "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)


def _solve_key(func, args, kwargs):
    """Inputs that decide a solve (see README: repeat_solves)."""
    if func == "eigensolver.principal_eigenpair":
        A = args[0] if args else kwargs["A"]
        M = A.A
        return _digest("lin", M.indptr.tobytes(), M.indices.tobytes(),
                       M.data.tobytes(), A.alpha)
    names = ("model", "truncation", "opponent_strategy", "player")
    bound = dict(zip(names, args))
    bound.update({k: v for k, v in kwargs.items() if k in names})
    trunc, opp = bound["truncation"], bound["opponent_strategy"]
    weights = b"".join(opp.weights(i).tobytes() for i in trunc.states)
    return _digest("br", bound["player"], trunc.n, id(bound["model"]), weights)


def _annotate(span, result):
    head = result[0] if isinstance(result, tuple) and result else result
    iterations = getattr(head, "iterations", None)
    if isinstance(iterations, int):
        span.iterations = iterations
    if span.func == "nash.nash_iterate":
        span.work = result.rounds
    elif span.func == "simulate.estimate_risk_cost":
        span.work = result.n_paths
    elif span.func == "simulate.hitting_representation_check":
        span.work = sum(r.n_hit + r.n_killed + r.n_capped for r in result.rows)


def layer_metrics(spans, tracer: Tracer, check_range: int | None,
                  jumps: int | None) -> dict:
    """Per-layer metrics of one operation from its spans and counters."""

    def pick(func):
        return [s for s in spans if s.func == func]

    def incl(*funcs):
        return sum(s.duration for f in funcs for s in pick(f))

    def self_of(prefix):
        return sum(s.self_time for s in spans if s.func.startswith(prefix))

    def ratio(num, den):
        return num / den if den else 0.0

    linear = pick("eigensolver.principal_eigenpair")
    br = pick("eigensolver.best_response_eigenpair")
    solves = len(tracer.solve_keys)
    distinct = len(set(tracer.solve_keys))
    estimate_s = incl("simulate.estimate_risk_cost")
    hitting_s = incl("simulate.hitting_representation_check")
    verify_s = sum(s.duration for s in spans if s.func.startswith("verify."))
    mains = pick("cli.main")
    return {
        "model.load_s": incl("model.load_model", "model.shop_model"),
        "model.validate_s": incl("model.validate_model"),
        "model.row_calls": tracer.row_calls,
        "model.row_distinct": len(tracer.rows_seen),
        "model.row_reuse_ratio": ratio(tracer.row_calls, len(tracer.rows_seen)),
        "generator.assemble_calls": len(pick("generator.assemble")),
        "generator.assemble_s": incl("generator.assemble"),
        "generator.response_rows_calls": len(pick("generator.response_rows")),
        "generator.response_rows_s": incl("generator.response_rows"),
        "generator.average_row_calls": len(pick("generator.average_row")),
        "eigensolver.linear_solves": len(linear),
        "eigensolver.linear_iterations": sum(s.iterations or 0 for s in linear),
        "eigensolver.linear_s": sum(s.duration for s in linear),
        "eigensolver.br_solves": len(br),
        "eigensolver.br_iterations": sum(s.iterations or 0 for s in br),
        "eigensolver.br_self_s": sum(s.self_time for s in br),
        "eigensolver.repeat_solves": solves - distinct,
        "eigensolver.distinct_solve_ratio": ratio(distinct, solves),
        "nash.rounds": sum(s.work or 0 for s in pick("nash.nash_iterate")),
        "nash.certify_calls": len(pick("nash.certify")),
        "nash.self_s": self_of("nash."),
        "simulate.estimate_s": estimate_s,
        "simulate.paths_per_s": ratio(sum(s.work or 0 for s in pick("simulate.estimate_risk_cost")), estimate_s),
        "simulate.jumps_per_s": ratio(jumps or 0, estimate_s),
        "simulate.hitting_s": hitting_s,
        "simulate.hitting_paths_per_s": ratio(sum(s.work or 0 for s in pick("simulate.hitting_representation_check")), hitting_s),
        "verify.conditions_s": incl("verify.shop_condition_report"),
        "verify.drift_s": incl("verify.check_growth_drift", "verify.check_killed_drift"),
        "verify.irreducibility_s": incl("verify.check_irreducibility"),
        "verify.states_per_s": ratio(check_range or 0, verify_s),
        "cli.verify_s": sum(s.duration for s in mains if s.command == "verify"),
        "cli.solve_s": sum(s.duration for s in mains if s.command == "solve"),
        "cli.simulate_s": sum(s.duration for s in mains if s.command == "simulate"),
        "cli.self_s": self_of("cli."),
    }
