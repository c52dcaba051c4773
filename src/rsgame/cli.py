"""Batch command-line front-end.

Four subcommands: ``solve`` (equilibrium iteration, certification and the
selector check, written as JSON), ``ladder`` (eigenvalues over nested
truncations, written as CSV), ``simulate`` (Monte-Carlo growth-rate
estimation with an optional hitting-time check, written as CSV), and
``verify`` (assumption reports as JSON).  Strategies are uniform unless
the run solves for them; machine-readable artifacts come first, a short
human summary goes to standard output.

A JSON config file can mirror every flag (``--config run.json``); flags
given on the command line override the file.  Artifacts are deterministic:
same config and seed, byte-identical files, regardless of worker count.

In one process (``main`` called again and again), consecutive commands
reuse the model when its source is unchanged: the built-in shop, or a
model file whose bytes have the same sha256.  Only the loading is saved;
artifacts are the same as from a fresh process.

Exit codes: 0 when the requested checks pass, 1 on numerical
non-convergence or failed checks (diagnostic artifacts are still
written), 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, fields

from . import nash, verify
from .eigensolver import ConvergenceError, principal_eigenpair, truncation_ladder
from .generator import assemble
from .model import (
    ShopParams,
    _write_json,
    load_model,
    shop_boundary_cut,
    shop_lyapunov_spec,
    shop_model,
    truncate,
    uniform_strategy,
    validate_model,
)
from .simulate import estimate_risk_cost, hitting_representation_check

__all__ = ["RunConfig", "main", "run"]

# Chance that ``simulate --hitting`` fails a correct run, over all starts.
HITTING_FALSE_ALARM = 1e-3


@dataclass
class RunConfig:
    command: str
    model: str | None = None
    builtin: str | None = None
    trunc: tuple = (40,)
    tol: float = 1e-10
    eps: float = 1e-6
    seed: int = 0
    horizon: float = 200.0
    paths: int = 10_000
    batches: int = 20
    out: str = "out"
    workers: int = 1
    damping: float = 1.0
    max_rounds: int = 100
    player: int = 1
    start: int | None = None
    check_range: int = 100
    fixed_uniform: bool = False
    hitting: bool = False
    hit_targets: tuple = ()
    hit_starts: tuple = ()

    def validate(self):
        if (self.model is None) == (self.builtin is None):
            raise ValueError("give exactly one of --model or --builtin")
        if self.builtin is not None and self.builtin != "shop":
            raise ValueError(f"unknown builtin {self.builtin!r}")
        for name in ("tol", "eps", "horizon", "damping"):
            if not 0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"--{name} must be positive and finite")
        for name in ("paths", "batches", "max_rounds", "workers",
                     "check_range"):
            if getattr(self, name) < 1:
                raise ValueError(f"--{name.replace('_', '-')} must be >= 1")
        if not self.trunc or any(n < 1 for n in self.trunc):
            raise ValueError("--trunc needs positive sizes")
        if self.player not in (1, 2):
            raise ValueError("--player must be 1 or 2")
        if self.damping > 1.0:
            raise ValueError("--damping must lie in (0, 1]")


def _parse_int_list(text):
    return tuple(int(x) for x in str(text).split(",") if x != "")


# The JSON values a config file may give a field, by the field's type (see
# _file_value for tuples); a field typed "... | None" also takes null.
_FILE_TYPES = {"bool": (bool, "true or false"), "int": (int, "an integer"),
               "float": ((int, float), "a number"), "str": (str, "a string")}


def _file_value(field, value):
    """Config-file ``value`` of ``field`` as the field takes it; a
    ``ValueError`` naming the key when its type is wrong."""
    if field.type == "tuple":
        if isinstance(value, list) and all(type(x) is int for x in value):
            return tuple(value)
        if type(value) in (int, str):
            try:
                return _parse_int_list(value)
            except ValueError:
                pass
        want = "a list of integers or a comma-separated string"
    else:
        kind = field.type.removesuffix(" | None")
        types, want = _FILE_TYPES[kind]
        if (value is None and kind != field.type) or (
                isinstance(value, types)
                and (type(value) is bool) == (kind == "bool")):
            return value
    raise ValueError(f"config key {field.name!r} must be {want}, "
                     f"got {json.dumps(value)}")


def _build_config(args) -> RunConfig:
    file_fields = [f for f in fields(RunConfig) if f.name != "command"]
    merged = {f.name: f.default for f in file_fields}
    if args.config:
        with open(args.config) as fh:
            file_conf = json.load(fh)
        if not isinstance(file_conf, dict):
            raise ValueError("a config file must hold a JSON object")
        unknown = set(file_conf) - set(merged)
        if unknown:
            raise ValueError(f"unknown config key(s) {sorted(unknown)}")
        merged.update((f.name, _file_value(f, file_conf[f.name]))
                      for f in file_fields if f.name in file_conf)
    for key in merged:
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            merged[key] = cli_value
    config = RunConfig(command=args.command, **merged)
    config.validate()
    return config


# The last model ``_load`` returned, as ``(source key, model)``.
_session = None


def _source_key(config: RunConfig):
    """``"shop"`` for the built-in shop, the sha256 of a model file's bytes
    (read in 64 KiB chunks, so the file is never held whole), or None when
    the model is not a regular file: a pipe can be read only once, and a
    missing file gets ``load_model``'s own error."""
    if config.builtin == "shop":
        return "shop"
    if not os.path.isfile(config.model):
        return None
    digest = hashlib.sha256()
    with open(config.model, "rb") as fh:
        while chunk := fh.read(1 << 16):
            digest.update(chunk)
    return digest.hexdigest()


def _load(config: RunConfig):
    """The command's model, reused from the previous command in this
    process while its source is unchanged.

    On a miss the previous model is dropped before the new one loads, so
    at most one is held.  The new one is kept only when its source still
    has the key it had before the load (a file rewritten meanwhile is
    not).  Sharing is safe: a model's caches are deterministic fills.
    """
    global _session
    key = _source_key(config)
    if _session is not None and _session[0] == key:
        return _session[1]
    _session = None
    if config.builtin == "shop":
        model = shop_model(ShopParams())
    else:
        model = load_model(config.model)
    if key is not None and _source_key(config) == key:
        _session = (key, model)
    return model


def _check_model(model, top):
    """Reject a model whose invariants fail on states ``1..top`` (every
    state of a finite model when ``top`` is None), naming the first
    violation."""
    report = validate_model(model, states=model.states(top))
    if not report.ok:
        raise ValueError(f"invalid model: {report.violations[0]}")


def _fmt(x) -> str:
    return repr(float(x))


def _run_solve(config: RunConfig) -> int:
    model = _load(config)
    _check_model(model, config.trunc[0])
    trunc = truncate(model, config.trunc[0])
    status = 1
    payload = {"command": "solve", "trunc": trunc.n, "eps": config.eps,
               "tol": config.tol}
    try:
        cert = nash.nash_iterate(
            model, trunc, damping=config.damping, eps=config.eps,
            max_rounds=config.max_rounds, tol=config.tol)
        payload["certificate"] = cert.to_json_dict(trunc)
        converse = nash.converse_report(model, trunc, cert.v1, cert.v2,
                                        (cert.eigen1, cert.eigen2),
                                        tol=config.tol)
        payload["certify"] = {"delta": [cert.delta1, cert.delta2],
                              "passed": cert.gap <= cert.eps}
        payload["converse"] = {
            "passed": converse.passed,
            "worst_defect": converse.worst(),
            "per_player": [
                {"player": p.player, "rho": p.rho,
                 "worst_defect": p.worst_defect,
                 "worst_state": p.worst_state, "threshold": p.threshold,
                 "passed": p.passed}
                for p in converse.players],
        }
        if cert.converged and converse.passed:
            status = 0
        print(f"solve: status={cert.status} rho=({cert.rho1:.9g}, "
              f"{cert.rho2:.9g}) gaps=({cert.delta1:.3e}, {cert.delta2:.3e}) "
              f"converse={'pass' if converse.passed else 'fail'}")
        for note in cert.warnings:  # reported; the exit status ignores them
            print(f"solve: warning: {note}")
    except ConvergenceError as exc:
        payload["error"] = str(exc)
        print(f"solve: solver did not converge: {exc}")
    _write_json(config.out, payload)
    return status


def _run_ladder(config: RunConfig) -> int:
    model = _load(config)
    _check_model(model, max(config.trunc))
    opponent = uniform_strategy(model, 3 - config.player)
    own = uniform_strategy(model, config.player) if config.fixed_uniform else None
    result = truncation_ladder(model, opponent, config.player,
                               list(config.trunc), tol=config.tol,
                               own_strategy=own, max_iter=None)
    with open(config.out, "w") as fh:
        fh.write("n,rho,residual,iterations,error\n")
        for rung in result.rungs:
            if rung.eigenpair is not None:
                ep = rung.eigenpair
                fh.write(f"{rung.n},{_fmt(ep.rho)},{_fmt(ep.residual)},"
                         f"{ep.iterations},\n")
            else:
                fh.write(f"{rung.n},,,,\"{rung.error}\"\n")
    rhos = result.rho_values()
    print(f"ladder ({result.mode}): {len(rhos)}/{len(result.rungs)} rungs, "
          f"monotone={result.monotone}, limit~{result.limit_estimate}")
    for note in dict.fromkeys(w for rung in result.rungs if rung.eigenpair
                              for w in rung.eigenpair.warnings):
        print(f"ladder: warning: {note}")
    return 0 if len(rhos) == len(result.rungs) else 1


def _hitting_states(config: RunConfig) -> tuple:
    """The hitting check's targets and starts within the truncation: the
    flags', or by default ``1..5`` and the five states above.  Rejects a
    state outside the truncation (psi is known only on ``1..trunc``, and a
    target outside it is never hit) and starts that are all targets."""
    n = config.trunc[0]
    for flag, states in (("--hit-targets", config.hit_targets),
                         ("--hit-starts", config.hit_starts)):
        for s in states:
            if not 1 <= s <= n:
                raise ValueError(f"{flag}: state {s} lies outside the "
                                 f"truncation 1..{n}")
    targets = config.hit_targets or tuple(range(1, min(5, n) + 1))
    starts = config.hit_starts or tuple(
        s for s in range(max(targets) + 1, max(targets) + 6) if s <= n)
    if all(s in targets for s in starts):
        raise ValueError(f"--hitting tests no start: every start lies in "
                         f"the target set {sorted(set(targets))}")
    return targets, starts


def _run_simulate(config: RunConfig) -> int:
    model = _load(config)
    _check_model(model, None if model.is_finite else config.trunc[0])
    if config.hitting:  # reject bad hitting input before any path runs
        targets, starts = _hitting_states(config)
        trunc = truncate(model, config.trunc[0])
    v1 = uniform_strategy(model, 1)
    v2 = uniform_strategy(model, 2)
    start = config.start if config.start is not None else model.anchor
    est = estimate_risk_cost(model, v1, v2, config.player, start,
                             config.horizon, config.paths, config.batches,
                             config.seed, workers=config.workers)
    with open(config.out, "w") as fh:
        fh.write("batch,rho,se\n")
        for k, rho_b in enumerate(est.batch_rho):
            fh.write(f"{k},{_fmt(rho_b)},\n")
        fh.write(f"all,{_fmt(est.rho_hat)},{_fmt(est.se)}\n")
    print(f"simulate: rho_hat={est.rho_hat:.9g} se={est.se:.3e} "
          f"paths={est.n_paths} escaped={est.escaped}")
    ok = est.valid
    if config.hitting:
        n = trunc.n
        ep = principal_eigenpair(
            assemble(model, trunc, v1, v2, config.player), model.anchor,
            config.tol)
        for note in ep.warnings:
            print(f"simulate: warning: {note}")
        report = hitting_representation_check(
            model, v1, v2, config.player, ep.psi_map(), ep.rho,
            set(targets), list(starts), config.paths, config.seed,
            batches=config.batches, kill_outside=n, workers=config.workers)
        hit_path = config.out + ".hitting.csv"
        with open(hit_path, "w") as fh:
            fh.write("start,psi,estimate,se,rel_deviation,z,hits,killed,"
                     "capped\n")
            for r in report.rows:
                fh.write(f"{r.start},{_fmt(r.psi_ref)},{_fmt(r.estimate)},"
                         f"{_fmt(r.se)},{_fmt(r.rel_deviation)},"
                         f"{_fmt(r.z_score)},{r.n_hit},{r.n_killed},"
                         f"{r.n_capped}\n")
        tested = sum(1 for s in starts if s not in targets)
        bound = _hitting_z_bound(config.batches, tested)
        passed = report.within(bound)
        ok = ok and passed
        print(f"hitting check: within 3 SE = {report.within(3.0)} "
              f"({hit_path})")
        print(f"hitting check: every z <= {bound:.3f} (Student t, "
              f"{config.batches - 1} df, family-wise false alarm "
              f"{HITTING_FALSE_ALARM:g} over {tested} starts) = {passed}")
    return 0 if ok else 1


def _hitting_z_bound(batches: int, starts: int) -> float:
    """Largest z-score the ``simulate --hitting`` exit rule accepts.

    Each start's z divides by a standard error from ``batches`` batch
    means, so on a correct run it follows Student's t with
    ``batches - 1`` degrees of freedom.  Splitting
    ``HITTING_FALSE_ALARM`` evenly over the (two-sided) tests of the
    ``starts`` random starts bounds the chance that a correct run fails.
    """
    from scipy.special import stdtrit

    tail = HITTING_FALSE_ALARM / (2 * max(starts, 1))
    return float(stdtrit(batches - 1, 1.0 - tail))


def _run_verify(config: RunConfig) -> int:
    model = _load(config)
    top = min(config.check_range, model.n_states or config.check_range)
    rng = range(1, top + 1)
    payload = {"command": "verify", "checked_range": [1, top],
               "notes": ["action-continuity conditions are vacuous on "
                         "finite action grids and are not checked"]}
    ok = True

    report = validate_model(model, states=rng)
    payload["model_invariants"] = {"ok": report.ok,
                                   "violations": [str(v) for v in report.violations]}
    ok &= report.ok

    print(f"model invariants: {'ok' if report.ok else 'VIOLATED'} on "
          f"1..{top}")

    trunc = truncate(model, min(config.trunc[0],
                                model.n_states or config.trunc[0]))
    irr = verify.check_irreducibility(model, trunc)
    payload["irreducibility"] = irr.to_json_dict()
    ok &= irr.irreducible
    print(f"irreducibility ({irr.mode}, {trunc.n} states): "
          f"{irr.irreducible} ({irr.n_components} component(s))")

    if config.builtin == "shop":
        params = model.meta["shop_params"]
        spec = shop_lyapunov_spec(params)
        conditions = verify.shop_condition_report(params, rng, model)
        payload["shop_conditions"] = conditions.to_json_dict()
        growth = verify.check_growth_drift(model, spec, rng)
        killed = verify.check_killed_drift(model, spec, "unbounded", rng)
        anchor = verify.check_anchor_row(
            model, 1, range(2, shop_boundary_cut(params) + 1))
        payload["growth_drift"] = growth.to_json_dict()
        payload["killed_drift"] = killed.to_json_dict()
        payload["anchor_row"] = anchor.to_json_dict()
        ok &= conditions.all_pass and growth.holds and killed.holds
        ok &= anchor.holds
        for rep in (growth, killed, anchor):
            print(f"{rep.name}: {rep.status} "
                  f"(range {rep.checked_range[0]}..{rep.checked_range[1]})")
        print(conditions.summary())
        overflow = [w.state for rep in (growth, killed)
                    for w in rep.witnesses if w.note == verify.NOT_FINITE]
        if overflow:
            print(f"verify: {verify.NOT_FINITE}, first at state "
                  f"{min(overflow)}; lower --range")
    else:
        anchor = verify.check_anchor_row(model)
        payload["anchor_row"] = anchor.to_json_dict()
        ok &= anchor.holds
        print(f"{anchor.name}: {anchor.status}")

    _write_json(config.out, payload)
    print(f"verify: {'all checks pass' if ok else 'CHECKS FAILED'} "
          f"({config.out})")
    return 0 if ok else 1


_RUNNERS = {"solve": _run_solve, "ladder": _run_ladder,
            "simulate": _run_simulate, "verify": _run_verify}


def run(config: RunConfig) -> int:
    """Execute a validated configuration; returns the exit status."""
    return _RUNNERS[config.command](config)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    p = argparse.ArgumentParser(
        prog="rsgame",
        description="risk-sensitive ergodic game solver (equilibria, "
                    "eigenvalue ladders, simulation, assumption checks)")
    sub = p.add_subparsers(dest="command", required=True)
    for name, blurb in (("solve", "equilibrium iteration + certification"),
                        ("ladder", "eigenvalues over nested truncations"),
                        ("simulate", "Monte-Carlo growth-rate estimate"),
                        ("verify", "assumption and condition checks")):
        q = sub.add_parser(name, help=blurb)
        q.add_argument("--config", help="JSON file mirroring the flags")
        q.add_argument("--model", help="model JSON file")
        q.add_argument("--builtin", choices=["shop"],
                       help="use a built-in model")
        q.add_argument("--trunc", type=_parse_int_list, default=None,
                       help="truncation sizes, comma separated")
        q.add_argument("--tol", type=float, default=None)
        q.add_argument("--eps", type=float, default=None)
        q.add_argument("--seed", type=int, default=None)
        q.add_argument("--horizon", type=float, default=None)
        q.add_argument("--paths", type=int, default=None)
        q.add_argument("--batches", type=int, default=None)
        q.add_argument("--out", default=None, help="artifact path")
        q.add_argument("--workers", type=int, default=None,
                       help="simulate: processes sharing the paths (capped "
                            "at the usable cores); solve, ladder and verify "
                            "ignore it")
        q.add_argument("--damping", type=float, default=None)
        q.add_argument("--max-rounds", dest="max_rounds", type=int,
                       default=None)
        q.add_argument("--player", type=int, default=None)
        q.add_argument("--start", type=int, default=None)
        q.add_argument("--range", dest="check_range", type=int, default=None,
                       help="state range for assumption checks")
        q.add_argument("--fixed-uniform", dest="fixed_uniform",
                       action="store_const", const=True, default=None,
                       help="freeze both strategies (linear ladder)")
        q.add_argument("--hitting", action="store_const", const=True,
                       default=None,
                       help="also run the hitting-time representation check")
        q.add_argument("--hit-targets", dest="hit_targets",
                       type=_parse_int_list, default=None)
        q.add_argument("--hit-starts", dest="hit_starts",
                       type=_parse_int_list, default=None)
    return p


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        config = _build_config(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:  # a solve not caught by its command
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
